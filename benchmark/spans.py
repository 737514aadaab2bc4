"""Span recorder for traced runs.

The program is not changed: the recorder wraps each public function of a
layer in every sipsolve module that binds its name (``from .x import f``
binds a second reference), records one span per call and keeps the spans in
memory until the run writes them out.  Calls into ``numpy.linalg.solve``
from the simplex are counted through a copy of the numpy namespace given to
that module alone.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sipsolve


def _note_lp(args, kwargs, res):
    A = kwargs["A"] if "A" in kwargs else args[1]
    return np.shape(A)[0], res.iterations


def _note_solve(args, kwargs, res):
    return res.status.value, res.evals


def _note_cm(args, kwargs, res):
    delta = kwargs["delta"] if "delta" in kwargs else args[2]
    return float(delta), res.evals


# "module.function" -> summary of a call kept with its span
TARGETS = {
    "simplex.solve_lp": _note_lp,
    "finite_solver.solve_discretized": _note_solve,
    "lower_level.certified_max": _note_cm,
    "core_loop.run_core": None,
    "core_loop.update_discretization": None,
    "drivers.run_sequential": None,
    "drivers.run_simultaneous": None,
    "drivers.run_feas_finite": None,
    "drivers.post_hoc_outcome": None,
    "drivers.budget_outcome": None,
    "drivers.compute_termination_index": None,
    "problem.derive_eps_star": None,
    "problem.feasibility_margin": None,
    "serialization.load_problem": None,
    "serialization.write_trace_csv": None,
    "serialization.write_outcome_json": None,
    "cli.main": None,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    solve: str
    note: tuple | None = None


class Recorder:
    """Records spans while ``enabled``; wrapped functions pass straight
    through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.linalg_solves = 0
        self.enabled = False
        self.solve = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            idx = len(rec.spans)
            span = Span(name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1, rec.solve)
            rec.spans.append(span)
            rec._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [sipsolve] + [
            importlib.import_module(f"sipsolve.{info.name}")
            for info in pkgutil.iter_modules(sipsolve.__path__)
        ]
        by_name = {m.__name__.split(".")[-1]: m for m in modules}
        for target, note in TARGETS.items():
            home, fname = target.split(".")
            original = getattr(by_name[home], fname)
            wrapped = self._wrap(target, original, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

        rec = self
        solve = np.linalg.solve

        def counting_solve(*args, **kwargs):
            if rec.enabled:
                rec.linalg_solves += 1
            return solve(*args, **kwargs)

        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(vars(np.linalg))
        linalg.solve = counting_solve
        numpy_view = types.ModuleType("numpy")
        numpy_view.__dict__.update(vars(np))
        numpy_view.linalg = linalg
        self._set(by_name["simplex"], "np", numpy_view)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.solve, s.note]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its child spans cover (calls
    are nested and sequential, so children never overlap)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], linalg_solves: int, passes: int,
                  tight_delta: float) -> dict[str, tuple[float, str]]:
    """Per-layer counts and seconds per pass, from the spans of ``passes``
    traced passes."""
    own = self_times(spans)
    count: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s, t in zip(spans, own):
        count[s.name] = count.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + t

    def notes(name):
        return [s.note for s in spans if s.name == name]

    lps = notes("simplex.solve_lp")
    solves = notes("finite_solver.solve_discretized")
    cms = [(s.note, s.end - s.start) for s in spans if s.name == "lower_level.certified_max"]
    tight = [(n, d) for n, d in cms if n[0] <= tight_delta]
    loose = [(n, d) for n, d in cms if n[0] > tight_delta]
    drivers = [k for k in self_s if k.startswith("drivers.")]

    def per_pass(v):
        return v / passes

    n_lp, n_solve = len(lps), len(solves)
    return {
        "simplex.calls": (per_pass(n_lp), "count"),
        "simplex.pivots": (per_pass(sum(n[1] for n in lps)), "count"),
        "simplex.linalg_solves": (per_pass(linalg_solves), "count"),
        "simplex.rows_mean": (sum(n[0] for n in lps) / max(n_lp, 1), "rows"),
        "simplex.self_s": (per_pass(self_s.get("simplex.solve_lp", 0.0)), "s"),
        "finite_solver.calls": (per_pass(n_solve), "count"),
        "finite_solver.masters_per_solve": (n_lp / max(n_solve, 1), "LP/solve"),
        "finite_solver.infeasible": (per_pass(sum(n[0] == "Infeasible" for n in solves)), "count"),
        "finite_solver.undecided": (per_pass(sum(n[0] == "Undecided" for n in solves)), "count"),
        "finite_solver.oracle_evals": (per_pass(sum(n[1] for n in solves)), "count"),
        "finite_solver.self_s": (per_pass(self_s.get("finite_solver.solve_discretized", 0.0)), "s"),
        "lower_level.tight_calls": (per_pass(len(tight)), "count"),
        "lower_level.tight_evals": (per_pass(sum(n[1] for n, _ in tight)), "count"),
        "lower_level.tight_s": (per_pass(sum(d for _, d in tight)), "s"),
        "lower_level.loose_calls": (per_pass(len(loose)), "count"),
        "lower_level.loose_evals": (per_pass(sum(n[1] for n, _ in loose)), "count"),
        "lower_level.loose_s": (per_pass(sum(d for _, d in loose)), "s"),
        "lower_level.self_s": (per_pass(self_s.get("lower_level.certified_max", 0.0)), "s"),
        "core_loop.update_s": (per_pass(busy.get("core_loop.update_discretization", 0.0)), "s"),
        "core_loop.self_s": (per_pass(self_s.get("core_loop.run_core", 0.0)), "s"),
        "drivers.stages": (per_pass(count.get("drivers.run_feas_finite", 0)), "count"),
        "drivers.post_hoc_s": (per_pass(busy.get("drivers.post_hoc_outcome", 0.0)), "s"),
        "drivers.self_s": (per_pass(sum(self_s[k] for k in drivers)), "s"),
        "problem.derive_eps_star_s": (per_pass(busy.get("problem.derive_eps_star", 0.0)), "s"),
        "problem.feasibility_margin_s": (per_pass(busy.get("problem.feasibility_margin", 0.0)), "s"),
        "serialization.load_s": (per_pass(busy.get("serialization.load_problem", 0.0)), "s"),
        "serialization.write_s": (per_pass(
            busy.get("serialization.write_trace_csv", 0.0)
            + busy.get("serialization.write_outcome_json", 0.0)), "s"),
        "cli.self_s": (per_pass(self_s.get("cli.main", 0.0)), "s"),
    }
