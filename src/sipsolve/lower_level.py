"""Certified global maximization of a constraint family over its index box.

The maximizer runs a round-synchronous branch and bound over a uniform cell
decomposition of the box, held as arrays of cell bounds and center values.
Each cell is scored by its center value plus the Lipschitz overestimate over
the cell.  A round drops every cell whose score is within the requested gap
of the best evaluated value, splits every other cell along its longest axis
and evaluates all the children in one ``eval_grid`` call (the family's
``batch_eval`` when it has one).  The returned value is always the scalar
oracle's own ``g(x, y_star)``: a batch value that beats the incumbent is
re-evaluated through ``value`` first.  The upper bound is the largest
score of a live or dropped cell, so the certificate rests on the Lipschitz
bound alone and the returned gap is sound whenever the declared
``lipschitz_in_y`` really is a max-metric Lipschitz constant.

Every family is certified by this one branch and bound; a family cannot
supply its own maximizer.  A family constant in y (Lipschitz constant 0)
needs no special case: its single cell scores exactly its center value,
so the first round returns that value with gap 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, InputError
from .problem import ConstraintFamily, as_point

# Cells a single certified_max call may split before it gives up.
NODE_BUDGET = 2_000_000


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


def certified_max(family: ConstraintFamily, x, delta: float) -> CertifiedMax:
    """Compute a certified delta-approximate solution of max_y g(x, y).

    Deterministic: identical inputs produce bit-identical outputs.  Raises
    CertificationError if more than NODE_BUDGET cells are split before
    the gap closes, which cannot happen when lipschitz_in_y is a true
    Lipschitz constant and delta is resolvable at float resolution.  Raises
    InputError when the oracle returns a non-finite value: the Lipschitz
    bound says nothing about a cell whose center has no value.
    """
    if delta <= 0:
        raise InputError("delta must be positive")
    box = family.y_domain
    p = as_point(x)
    lip = family.local_lipschitz_in_y(p)
    center = box.center()
    best_val = float(family.value(p, center))
    _require_finite(family, math.isfinite(best_val))
    best_y = center
    evals = 1
    # the live frontier: cell bounds (n, q) and center values (n,)
    lo, hi = box.lower[None, :], box.upper[None, :]
    val = np.array([best_val])
    dropped = -np.inf  # largest score of a cell dropped for good
    nodes = 0
    while True:
        width = hi - lo
        score = val + lip * (0.5 * width.max(axis=1))
        upper = max(float(score.max()), dropped)
        if upper - best_val <= delta:
            return CertifiedMax(
                y_star=best_y, value=best_val, gap=max(upper - best_val, 0.0), evals=evals
            )
        live = score - best_val > delta
        if not live.all():
            dropped = max(dropped, float(score[~live].max()))
            lo, hi, width = lo[live], hi[live], width[live]
        nodes += len(lo)
        if nodes > NODE_BUDGET:
            raise CertificationError(
                f"cell budget {NODE_BUDGET} exhausted at gap "
                f"{upper - best_val:.3e} (requested {delta:.3e})"
            )
        lo, hi, floor = _split(lo, hi, width.argmax(axis=1))
        centers = 0.5 * (lo + hi)
        if floor.any():
            # the children of a cell at float resolution are its exact
            # endpoints; the scalar oracle scores them, so once they update
            # the incumbent they can never outscore it
            exact = floor.repeat(2)
            val = np.empty(len(lo))
            for i in np.flatnonzero(exact):
                val[i] = v = float(family.value(p, centers[i]))
                if v > best_val:
                    best_val, best_y = v, centers[i]
            if not exact.all():
                val[~exact] = family.eval_grid(p, centers[~exact])
        else:
            val = family.eval_grid(p, centers)
        _require_finite(family, np.isfinite(val).all())
        evals += len(val)
        top = int(val.argmax())
        if val[top] > best_val:
            # a batch value: keep the scalar oracle's value, if it is larger
            v = float(family.value(p, centers[top]))
            _require_finite(family, math.isfinite(v))
            evals += 1
            if v > best_val:
                best_val, best_y = v, centers[top]


def _require_finite(family: ConstraintFamily, finite: bool) -> None:
    if not finite:
        raise InputError(
            f"constraint family {family.index} returned a non-finite value"
        )


def _split(lo: np.ndarray, hi: np.ndarray, axis: np.ndarray):
    """Halve cell i along ``axis[i]`` into the children at rows 2i and
    2i + 1.  A cell whose midpoint rounds onto an endpoint becomes its two
    endpoints instead; the third return value marks those cells."""
    rows = np.arange(len(lo))
    a, b = lo[rows, axis], hi[rows, axis]
    mid = 0.5 * (a + b)
    floor = (mid <= a) | (mid >= b)
    child_lo, child_hi = lo.repeat(2, axis=0), hi.repeat(2, axis=0)
    child_hi[2 * rows, axis] = np.where(floor, a, mid)
    child_lo[2 * rows + 1, axis] = np.where(floor, b, mid)
    return child_lo, child_hi, floor


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


def certified_feasibility_bound(constraints, x, delta: float) -> tuple[float, float]:
    """(worst, bound): worst = max_i g_i(x, y_i*) is attained on the index
    box, and bound = max_i (value_i + gap_i) >= max_i sup_y g_i(x, y), so
    worst <= bound <= worst + delta."""
    worst = bound = -np.inf
    for fam in constraints:
        cm = certified_max(fam, x, delta)
        worst = max(worst, cm.value)
        bound = max(bound, cm.value + cm.gap)
    return float(worst), float(bound)
