"""Certified solver for discretized restricted problems.

Given a finite index set Y* and a restriction eps, solves
    min f(x)  s.t.  g_i(x, y) <= -eps  for all y in Y*, i in I,  x in X
by a Kelley cutting-plane scheme: the master problem is a small dense LP
over the box X built from objective cuts (epigraph tangents) and constraint
cuts (tangents of the violated g's), solved by the in-repo simplex.
Certified lower bounds are reconstituted from the LP's row multipliers
through an exact Lagrangian closed form over the box, so LP inexactness can
only loosen a bound, never invalidate it.  Feasible upper bounds come from
master iterates that satisfy all constraints, or from a restoration line
search toward a strictly feasible anchor.  A positive certified bound on
the minimal violation certifies infeasibility of the discretized problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import simplex
from .errors import InputError
from .problem import FEASTOL, SipProblem, as_point

# Requested gap 0 is served at this relative floor; exact solves are not a
# floating-point notion.  The floor actually applied is reported per solve.
GAP_FLOOR_REL = 1e-12

# A master whose certified bound stops moving despite bundle compression has
# hit the LP's numerical resolution; such solves are accepted when their
# achieved gap is below this relative width, and the achieved width is
# reported as the effective floor.
STALL_ACCEPT_REL = 1e-8

DEFAULT_BUDGET = 400


class SolveStatus(Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    UNDECIDED = "Undecided"


@dataclass(frozen=True)
class DiscretizedProblem:
    """Restriction of a SipProblem to finitely many index points."""

    base: SipProblem
    eps: float
    points: np.ndarray  # (m, q), possibly empty

    def __post_init__(self):
        if self.eps < 0:
            raise InputError("restriction eps must be nonnegative")
        pts = np.asarray(self.points, dtype=float)
        q = self.base.y_domain.dim
        pts = pts.reshape(-1, q).copy() if pts.size else np.zeros((0, q))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


@dataclass
class DiscretizedSolveResult:
    status: SolveStatus
    x: np.ndarray | None
    upper: float
    lower: float
    gap_request: float
    gap_floor: float
    violation_bound: float | None = None  # certified min of max(g + eps), Infeasible only
    lp_iters: int = 0
    evals: int = 0


def _cut_fingerprint(a: np.ndarray) -> tuple:
    """Gradient rounded to 15 significant digits: cuts differing only in
    float noise collapse, genuinely different tangents stay distinct (the
    LP additionally collapses near-duplicate rows at solve time)."""
    return tuple(float(format(v, ".15g")) for v in a)


@dataclass
class CutPool:
    """Reusable affine cuts, deduplicated by gradient fingerprint.

    Objective cuts a.x + b <= f(x) stay valid for the lifetime of the
    problem.  Constraint cuts a.x + b <= g_i(x, y) are keyed by family,
    index point and gradient; they stay valid as long as y is in the active
    discretization (the restriction eps is applied at row-build time, so
    they survive eps changes).  Among cuts with the same gradient only the
    largest offset is kept: it dominates the others pointwise.  Eviction
    only loosens the model, never its soundness.
    """

    objective: dict[tuple, tuple[np.ndarray, float]] = field(default_factory=dict)
    constraint: dict[tuple, tuple[np.ndarray, float]] = field(default_factory=dict)
    max_objective: int = 48
    max_constraint: int = 160

    def add_objective(self, a: np.ndarray, b: float) -> None:
        key = _cut_fingerprint(a)
        held = self.objective.get(key)
        if held is None or b > held[1]:
            self.objective[key] = (a, b)

    def add_constraint(
        self, i: int, y: np.ndarray, x: np.ndarray, a: np.ndarray, b: float
    ) -> None:
        key = (i, y.tobytes(), _cut_fingerprint(a))
        held = self.constraint.get(key)
        if held is None or b > held[1]:
            self.constraint[key] = (a, b)

    def prune(self, x_ref: np.ndarray) -> None:
        """Shed cuts beyond the caps, dropping the slackest at the reference
        point first.  Keeps the pool focused where the iterates live; losing
        cuts only loosens the model, never its soundness."""
        if len(self.objective) > self.max_objective:
            vals = {k: a @ x_ref + b for k, (a, b) in self.objective.items()}
            order = sorted(self.objective, key=lambda k: -vals[k])
            self.objective = {k: self.objective[k] for k in order[: self.max_objective]}
        if len(self.constraint) > self.max_constraint:
            vals = {k: a @ x_ref + b for k, (a, b) in self.constraint.items()}
            order = sorted(self.constraint, key=lambda k: -vals[k])
            self.constraint = {
                k: self.constraint[k] for k in order[: self.max_constraint]
            }

    def restrict_to_points(self, points: np.ndarray) -> None:
        """Drop constraint cuts whose index point left the discretization."""
        keep = {p.tobytes() for p in points}
        stale = [k for k in self.constraint if k[1] not in keep]
        for k in stale:
            del self.constraint[k]

    def compress(self, x_ref: np.ndarray, eps: float) -> None:
        """Keep only the cuts near-active at the reference point.

        An accumulation of almost-redundant cuts can park the master LP on a
        slightly wrong face within its tolerances, stalling the certified
        bound; a compressed bundle resolves the face exactly and the loop
        rebuilds whatever it still needs.
        """
        if self.objective:
            vals = {k: a @ x_ref + b for k, (a, b) in self.objective.items()}
            top = max(vals.values())
            band = 1e-4 * (1.0 + abs(top))
            order = sorted(self.objective, key=lambda k: -vals[k])
            keep_n = max(8, sum(1 for k in order if vals[k] >= top - band))
            self.objective = {
                k: self.objective[k] for k in order[: min(keep_n, 16)]
            }
        if self.constraint:
            vals = {k: a @ x_ref + b for k, (a, b) in self.constraint.items()}
            band = 1e-4 * (1.0 + abs(eps))
            order = sorted(self.constraint, key=lambda k: -vals[k])
            keep_n = max(8, sum(1 for k in order if vals[k] >= -eps - band))
            self.constraint = {
                k: self.constraint[k] for k in order[: min(keep_n, 32)]
            }


def _batch_values(dp: DiscretizedProblem, x: np.ndarray) -> np.ndarray:
    """(|I|, m) matrix of g_i(x, y_j) over the discretization."""
    return np.stack([fam.eval_grid(x, dp.points) for fam in dp.base.constraints])


def _top_violations(values: np.ndarray, k: int = 3) -> list[tuple[int, int]]:
    """Positions of the k largest entries, ordered by value descending then
    (family, point) ascending for determinism."""
    ni, nj = values.shape
    flat = values.ravel()
    if flat.size > 4 * k:
        cand = np.argpartition(-flat, min(4 * k, flat.size - 1))[: 4 * k]
    else:
        cand = np.arange(flat.size)
    order = sorted(cand, key=lambda t: (-flat[t], t // nj, t % nj))
    return [(int(t // nj), int(t % nj)) for t in order[:k]]


def _box_linear_min(grad: np.ndarray, X) -> float:
    """Exact min of grad.x over the box."""
    return float(np.sum(np.where(grad >= 0, grad * X.lower, grad * X.upper)))


def _lagrangian_bound(
    epi_cuts: list[tuple[np.ndarray, float]],
    g_rows: list[tuple[np.ndarray, float]],
    X,
    duals: np.ndarray,
) -> float:
    """Certified lower bound on min t s.t. t >= a.x + b (epi_cuts),
    c.x <= d (g_rows), x in box, reconstituted from LP multipliers.

    Any convex combination alpha of the epigraph cuts and any beta >= 0 on
    the rows yields the valid bound
        sum alpha b - sum beta d + min over box of (combined gradient).x,
    evaluated here in exact closed form, so LP inexactness can only make
    the bound looser, never wrong.
    """
    n_epi = len(epi_cuts)
    alpha = np.maximum(duals[:n_epi], 0.0)
    beta = np.maximum(duals[n_epi:], 0.0)
    total = alpha.sum()
    if total <= 0:
        # no useful multipliers: fall back to the weakest single-cut bound
        alpha = np.zeros(n_epi)
        alpha[0] = 1.0
        beta = np.zeros(len(g_rows))
        total = 1.0
    alpha /= total
    beta /= total
    grad = np.zeros(X.dim)
    const = 0.0
    for w, (a, b) in zip(alpha, epi_cuts):
        if w:
            grad += w * a
            const += w * b
    for w, (c_row, d_row) in zip(beta, g_rows):
        if w:
            grad += w * c_row
            const -= w * d_row
    return const + _box_linear_min(grad, X)


class _Master:
    """Shared LP assembly for the feasibility and optimality phases.

    The simplex supplies candidate vertices; certified bounds come from the
    Lagrangian closed form, which stays valid regardless of LP tolerances.
    """

    def __init__(self, X, pool: CutPool):
        self.X = X
        self.pool = pool
        self.lp_iters = 0

    def _solve(self, epi_rows: list[tuple[np.ndarray, float]], g_rows):
        rows, rhs = [], []
        for (a, b) in epi_rows:
            rows.append(np.concatenate([a, [-1.0]]))
            rhs.append(-b)
        for (c_row, d_row) in g_rows:
            rows.append(np.concatenate([c_row, [0.0]]))
            rhs.append(d_row)
        res = simplex.solve_lp(
            c=np.concatenate([np.zeros(self.X.dim), [1.0]]),
            A=np.array(rows),
            b=np.array(rhs),
            lower=np.concatenate([self.X.lower, [-np.inf]]),
            upper=np.concatenate([self.X.upper, [np.inf]]),
        )
        self.lp_iters += res.iterations
        if res.status != simplex.OPTIMAL:
            raise InputError(f"master LP came back {res.status}")
        x_hat = self.X.clip(res.x[: self.X.dim])
        bound = _lagrangian_bound(epi_rows, g_rows, self.X, res.duals)
        return bound, x_hat

    def solve_min_violation(self):
        """Certified bound and candidate for min over the box of max g."""
        epi = [(a, b) for (a, b) in self.pool.constraint.values()]
        return self._solve(epi, [])

    def solve_min_objective(self, eps: float):
        """Certified bound and candidate for the restricted cut model."""
        epi = list(self.pool.objective.values())
        g_rows = [(a, -eps - b) for (a, b) in self.pool.constraint.values()]
        return self._solve(epi, g_rows)


def solve_discretized(
    dp: DiscretizedProblem,
    gap_tol: float,
    budget: int = DEFAULT_BUDGET,
    x_hint: np.ndarray | None = None,
    pool: CutPool | None = None,
) -> DiscretizedSolveResult:
    """Solve the discretized restricted problem to a certified gap.

    Returns FEASIBLE with a point satisfying every g_i(x, y_j) <= -eps +
    FEASTOL and upper - lower <= max(gap_tol, floor); INFEASIBLE with a
    certificate that min over X of max(g + eps) is positive; or UNDECIDED
    with the best bounds when the iteration budget runs out.  ``pool`` allows
    warm starts across calls; it is attempted, never relied upon.
    """
    if gap_tol < 0:
        raise InputError("gap_tol must be nonnegative")
    problem = dp.base
    X = problem.x_domain
    fams = problem.constraints
    m_pts = dp.points.shape[0]
    pool = pool if pool is not None else CutPool()
    master = _Master(X, pool)

    evals = 0

    def f_val(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return float(problem.objective.value(x))

    def add_f_cut(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        s = np.asarray(problem.objective.subgradient(x), dtype=float)
        v = f_val(x)
        pool.add_objective(s, v - float(np.dot(s, x)))
        return v

    def phi(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evals
        if m_pts == 0:
            return -np.inf, np.zeros((len(fams), 0))
        vals = _batch_values(dp, x)
        evals += vals.size
        return float(vals.max()), vals

    def add_g_cuts(x: np.ndarray, vals: np.ndarray) -> None:
        nonlocal evals
        for i, j in _top_violations(vals):
            evals += 1
            s = np.asarray(fams[i].subgradient_x(x, dp.points[j]), dtype=float)
            pool.add_constraint(
                i, dp.points[j], x, s, float(vals[i, j]) - float(np.dot(s, x))
            )

    x0 = X.clip(as_point(x_hint, dim=X.dim)) if x_hint is not None else X.center()

    # ----- phase 1: locate a feasible anchor or certify infeasibility ------
    anchor, anchor_phi = x0, -np.inf
    if m_pts:
        best_phi, best_x = np.inf, x0
        probe = x0
        v_best, stalled1 = -np.inf, 0
        while True:
            phic, vals = phi(probe)
            add_g_cuts(probe, vals)
            if phic < best_phi:
                best_phi, best_x = phic, probe
            if best_phi <= -dp.eps + FEASTOL:
                anchor, anchor_phi = best_x, best_phi
                break
            if budget <= 0:
                return DiscretizedSolveResult(
                    SolveStatus.UNDECIDED, None, np.inf, -np.inf, gap_tol, 0.0,
                    lp_iters=master.lp_iters, evals=evals,
                )
            budget -= 1
            v_lb, probe = master.solve_min_violation()
            pool.prune(probe)
            if not np.isfinite(v_best) or v_lb > v_best + 1e-15 * max(1.0, abs(v_best)):
                v_best, stalled1 = max(v_lb, v_best), 0
            else:
                stalled1 += 1
                if stalled1 >= 5:
                    pool.compress(probe, dp.eps)
                    stalled1 = 0
            if v_lb > -dp.eps:
                return DiscretizedSolveResult(
                    SolveStatus.INFEASIBLE, None, np.inf, np.inf, gap_tol, 0.0,
                    violation_bound=v_lb + dp.eps,
                    lp_iters=master.lp_iters, evals=evals,
                )

    # ----- phase 2: optimize over the cut model -----------------------------
    def restore(x: np.ndarray) -> np.ndarray | None:
        """Bisect from the strictly feasible anchor toward x."""
        if anchor_phi >= -dp.eps:
            return None
        lo_t, hi_t = 0.0, 1.0
        for _ in range(48):
            mid = 0.5 * (lo_t + hi_t)
            if phi(anchor + mid * (x - anchor))[0] <= -dp.eps + 0.5 * FEASTOL:
                lo_t = mid
            else:
                hi_t = mid
        return anchor + lo_t * (x - anchor)

    upper, x_best, lower = np.inf, None, -np.inf

    def offer(x: np.ndarray) -> None:
        nonlocal upper, x_best
        v = add_f_cut(x)
        if v < upper:
            upper, x_best = v, x

    offer(anchor)
    stalled = 0
    compressions = 0

    while True:
        floor = GAP_FLOOR_REL * max(1.0, abs(upper))
        tol_eff = max(gap_tol, floor)
        if upper - lower <= tol_eff:
            return DiscretizedSolveResult(
                SolveStatus.FEASIBLE, x_best, upper, lower, gap_tol, floor,
                lp_iters=master.lp_iters, evals=evals,
            )
        if compressions >= 2 and stalled >= 5:
            achieved = upper - lower
            if achieved <= max(gap_tol, STALL_ACCEPT_REL * max(1.0, abs(upper))):
                return DiscretizedSolveResult(
                    SolveStatus.FEASIBLE, x_best, upper, lower, gap_tol,
                    achieved, lp_iters=master.lp_iters, evals=evals,
                )
        if budget <= 0:
            return DiscretizedSolveResult(
                SolveStatus.UNDECIDED, x_best, upper, lower, gap_tol, 0.0,
                lp_iters=master.lp_iters, evals=evals,
            )
        budget -= 1
        t_lb, xc = master.solve_min_objective(dp.eps)
        pool.prune(xc)
        gap_now = upper - lower if np.isfinite(lower) else np.inf
        progress = max(1e-14 * max(1.0, abs(upper)), 0.02 * min(gap_now, 1.0))
        if not np.isfinite(lower) or t_lb > lower + progress:
            lower, stalled = max(t_lb, lower), 0
        else:
            lower = max(t_lb, lower)
            stalled += 1
            if stalled >= 5 and stalled % 5 == 0:
                pool.compress(xc, dp.eps)
                compressions += 1
        phic, vals = phi(xc)
        if phic <= -dp.eps + FEASTOL:
            offer(xc)
        else:
            add_g_cuts(xc, vals)
            add_f_cut(xc)  # epigraph cuts are valid anywhere
            xr = restore(xc)
            if xr is not None:
                offer(xr)
