"""Certified global maximization of a constraint family over its index box.

The maximizer refines a uniform cell decomposition of the box: each cell is
scored by its center value plus the Lipschitz overestimate over the cell, and
the cell with the largest score is split until the best evaluated value is
within the requested gap of the global score.  The certificate rests on the
Lipschitz bound alone, so the returned gap is sound whenever the declared
``lipschitz_in_y`` really is a max-metric Lipschitz constant.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, InputError
from .problem import ConstraintFamily, as_point


@dataclass(frozen=True)
class CertifiedMax:
    """delta-approximate maximizer with a provable optimality gap.

    value is exactly g(x, y_star) as the oracle returns it, and
    sup_Y g(x, .) <= value + gap.
    """

    y_star: np.ndarray
    value: float
    gap: float
    evals: int = 0

    def __post_init__(self):
        if self.gap < 0:
            raise InputError("certificate gap must be nonnegative")
        object.__setattr__(self, "y_star", as_point(self.y_star))


def certified_max(
    family: ConstraintFamily,
    x,
    delta: float,
    node_budget: int = 2_000_000,
) -> CertifiedMax:
    """Compute a certified delta-approximate solution of max_y g(x, y).

    Deterministic: identical inputs produce bit-identical outputs.  Raises
    CertificationError if the cell budget runs out before the gap closes,
    which cannot happen when lipschitz_in_y is a true Lipschitz constant and
    delta is resolvable at float resolution.
    """
    if delta <= 0:
        raise InputError("delta must be positive")
    box = family.y_domain
    p = as_point(x)
    if family.custom_maximizer is not None:
        cm = family.custom_maximizer(p, delta)
        _check_plugin_certificate(family, p, delta, cm)
        return cm

    lo, hi = box.lower, box.upper
    lip = family.local_lipschitz_in_y(p)
    evals = 0

    def g(y: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return float(family.value(p, y))

    center = box.center()
    best_val = g(center)
    best_y = center
    if lip == 0.0:
        # declared constant in y: the center value is the supremum
        return CertifiedMax(y_star=best_y, value=best_val, gap=0.0, evals=evals)

    def radius(cell_lo: np.ndarray, cell_hi: np.ndarray) -> float:
        return 0.5 * float(np.max(cell_hi - cell_lo))

    # heap of (-score, insertion counter, cell lower, cell upper, center value)
    counter = 0
    root_score = best_val + lip * radius(lo, hi)
    heap = [(-root_score, counter, lo, hi, best_val)]
    nodes = 0
    while heap:
        neg_score, _, clo, chi, cval = heap[0]
        upper_bound = -neg_score
        if upper_bound - best_val <= delta:
            return CertifiedMax(
                y_star=best_y,
                value=best_val,
                gap=max(upper_bound - best_val, 0.0),
                evals=evals,
            )
        heapq.heappop(heap)
        nodes += 1
        if nodes > node_budget:
            raise CertificationError(
                f"cell budget {node_budget} exhausted at gap "
                f"{upper_bound - best_val:.3e} (requested {delta:.3e})"
            )
        axis = int(np.argmax(chi - clo))
        mid = 0.5 * (clo[axis] + chi[axis])
        if mid <= clo[axis] or mid >= chi[axis]:
            # cell is at float resolution: score its exact endpoints
            for endpoint in (clo[axis], chi[axis]):
                point_lo, point_hi = clo.copy(), chi.copy()
                point_lo[axis] = point_hi[axis] = endpoint
                v = g(0.5 * (point_lo + point_hi))
                if v > best_val:
                    best_val, best_y = v, 0.5 * (point_lo + point_hi)
                counter += 1
                heapq.heappush(
                    heap,
                    (-(v + lip * radius(point_lo, point_hi)), counter, point_lo, point_hi, v),
                )
            continue
        for half_lo, half_hi in (
            (clo[axis], mid),
            (mid, chi[axis]),
        ):
            child_lo, child_hi = clo.copy(), chi.copy()
            child_lo[axis], child_hi[axis] = half_lo, half_hi
            c = 0.5 * (child_lo + child_hi)
            v = g(c)
            if v > best_val:
                best_val, best_y = v, c
            counter += 1
            heapq.heappush(
                heap, (-(v + lip * radius(child_lo, child_hi)), counter, child_lo, child_hi, v)
            )
    # heap can only empty for a degenerate zero-volume box
    return CertifiedMax(y_star=best_y, value=best_val, gap=0.0, evals=evals)


def _check_plugin_certificate(
    family: ConstraintFamily, x: np.ndarray, delta: float, cm: CertifiedMax
) -> None:
    if not isinstance(cm, CertifiedMax):
        raise InputError("custom maximizer must return a CertifiedMax")
    if cm.gap > delta:
        raise InputError(
            f"custom maximizer returned gap {cm.gap:.3e} > requested {delta:.3e}"
        )
    if not family.y_domain.contains(cm.y_star):
        raise InputError("custom maximizer returned y_star outside the index box")
    revalue = float(family.value(x, cm.y_star))
    if revalue != cm.value:
        raise InputError("custom maximizer value does not match re-evaluation")


def strongest_violator(results: dict[int, CertifiedMax]) -> tuple[int, CertifiedMax]:
    """Entry with the largest approximate lower-level value; ties go to the
    smallest family index so the choice is deterministic."""
    if not results:
        raise InputError("strongest_violator needs a nonempty result map")
    best_i = min(results)
    for i in sorted(results):
        if results[i].value > results[best_i].value:
            best_i = i
    return best_i, results[best_i]


def certified_feasibility_bound(constraints, x, delta: float) -> float:
    """Certified upper bound on max_i sup_y g_i(x, y): worst value + gap."""
    bound = -np.inf
    for fam in constraints:
        cm = certified_max(fam, x, delta)
        bound = max(bound, cm.value + cm.gap)
    return float(bound)
