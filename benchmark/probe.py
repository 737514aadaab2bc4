"""Machine-speed probe.

Other tenants of the machine slow this process by up to a half, for seconds
to many minutes at a time (README.md), and no number of passes in one run
averages that out.  While a pass runs, a timer signal every
``INTERVAL_S`` runs a small fixed kernel, which does not touch the program,
and times it.  A pass's time is then reported in reference seconds: its
measured time, with the probe's own time taken out, times ``REF_S`` over
the kernel's median time during that pass.  That is the time the pass would
take where the kernel takes ``REF_S``.

The kernel is only ever timed between stretches of other work.  Run many
times back to back it runs up to 40 % faster, with warm caches, and that
would not say how fast the machine runs the program.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# about the kernel's median time on the 2-CPU machine the benchmark was
# written on
REF_S = 0.001


class SpeedProbe:
    def __init__(self):
        self.A = np.arange(144.0).reshape(12, 12) % 7 + 12 * np.eye(12)
        self.b = np.arange(12.0)
        self.samples: list[float] = []
        # seconds spent in the probe while sampling; solve times subtract it
        self.spent = 0.0
        self._previous = None

    def kernel(self) -> float:
        """Seconds for a fixed mix of the solvers' kinds of work: small
        dense solves with heap operations, and interpreter work on dicts
        and ints."""
        t0 = time.perf_counter()
        heap: list = []
        for i in range(60):
            x = np.linalg.solve(self.A, self.b + i)
            heapq.heappush(heap, (-float(x @ self.b), i, x))
        counts: dict[int, int] = {}
        for i in range(600):
            counts[i % 97] = counts.get(i % 97, 0) + (i * 31) % 17
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        d = self.kernel()
        self.samples.append(d)
        self.spent += d

    def start(self) -> None:
        """Start sampling into a fresh sample list."""
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list[float]:
        """Stop sampling; returns the samples since start(), at least one."""
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
            if not self.samples:  # a pass shorter than INTERVAL_S
                self.samples.append(self.kernel())
        return self.samples


def scale(samples: list[float]) -> float:
    """Factor from measured to reference seconds."""
    return REF_S / statistics.median(samples)
