"""Certified solver for discretized restricted problems.

Given a finite index set Y* and a restriction eps, solves
    min f(x)  s.t.  g_i(x, y) <= -eps  for all y in Y*, i in I,  x in X
over a master problem built from constraint cuts (tangents of the violated
g's) over the box X.  When the objective carries a quadratic form with a
positive-definite Q, the optimality master is that form under the cut rows,
one small QP solved by the dual active-set routine in ``qp``, and f enters
only through its value and gradient at the QP's point.  Otherwise it is a
Kelley cutting-plane LP that also models f by epigraph tangents, solved by
the in-repo simplex; the feasibility master is always that LP.

The masters only propose points and multipliers.  Certified lower bounds
are computed from them in exact closed form over the box: from the LP's
row multipliers through the cut Lagrangian, and from the QP's through the
objective's own oracles, f(x) + lam.(A x - r) + min over X of the
linearized Lagrangian.  Master inexactness can therefore only loosen a
bound, never invalidate it.  Feasible upper bounds come from master
iterates that satisfy all constraints, or from a restoration line search
toward a strictly feasible anchor.  A solve stops once upper - lower is
within the requested gap or within its master's resolution, one relative
floor per route chosen at the start of the solve; on the QP route it also
stops when a master returns its previous point without raising the bound
and the gap left is within the LP route's floor, which it then reports as
its floor.  A positive certified
bound on the minimal violation certifies infeasibility of the discretized
problem.  A master that breaks down numerically ends the solve as
UNDECIDED with the bounds reached so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import qp, simplex
from .errors import InputError, NumericalError
from .problem import FEASTOL, SipProblem, as_point

# Gaps below a relative floor are not asked of the masters: exact solves are
# not a floating-point notion.  A solve stops at max(gap_tol, floor) with
# floor = rel * max(1, |upper|), and reports the floor it applied.  The QP
# master resolves the optimality gap to GAP_FLOOR_REL, or to the gap at which
# it repeats itself when that is within LP_GAP_FLOOR_REL; the Kelley LP
# master's certified bound stops moving near LP_GAP_FLOOR_REL, its resolution.
GAP_FLOOR_REL = 1e-12
LP_GAP_FLOOR_REL = 1e-8

# Master solves one solve_discretized call may make; when they run out the
# solve ends UNDECIDED with the bounds reached so far.
MASTER_BUDGET = 400

# Constraint cuts added per iterate: those of its largest violations.
CUTS_PER_ITERATE = 3

# CutPool caps: cuts beyond these are shed by CutPool.prune.
MAX_OBJECTIVE_CUTS = 48
MAX_CONSTRAINT_CUTS = 160


class SolveStatus(Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    UNDECIDED = "Undecided"


@dataclass(frozen=True)
class DiscretizedProblem:
    """Restriction of a SipProblem to finitely many index points: an (m, q)
    array, or a flat array of m * q coordinates."""

    base: SipProblem
    eps: float
    points: np.ndarray  # (m, q), possibly empty

    def __post_init__(self):
        if not self.eps >= 0:  # also false for NaN
            raise InputError("restriction eps must be nonnegative")
        pts = np.asarray(self.points, dtype=float)
        q = self.base.y_domain.dim
        fits = pts.shape[1:] == (q,) if pts.ndim > 1 else pts.size % q == 0
        if pts.size and not fits:
            raise InputError(
                f"index points of shape {pts.shape} do not fit a {q}-dim index box"
            )
        pts = pts.reshape(-1, q).copy() if pts.size else np.zeros((0, q))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


@dataclass
class DiscretizedSolveResult:
    status: SolveStatus
    x: np.ndarray | None
    upper: float
    lower: float
    gap_floor: float
    violation_bound: float | None = None  # certified min of max(g + eps), Infeasible only
    lp_iters: int = 0  # simplex pivots, or QP active-set steps
    evals: int = 0


def _cut_fingerprint(a: np.ndarray) -> tuple:
    """Gradient rounded to 15 significant digits: cuts differing only in
    float noise collapse, genuinely different tangents stay distinct (the
    LP additionally collapses near-duplicate rows at solve time)."""
    return tuple(float(format(v, ".15g")) for v in a)


def _tightest(cuts: dict, x_ref: np.ndarray, cap: int) -> dict:
    """The cuts unchanged if there are at most cap of them, else the cap
    largest at x_ref, largest first (ties keep their insertion order)."""
    if len(cuts) <= cap:
        return cuts
    vals = {k: a @ x_ref + b for k, (a, b) in cuts.items()}
    return {k: cuts[k] for k in sorted(cuts, key=lambda k: -vals[k])[:cap]}


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

    def add_objective(self, a: np.ndarray, b: float) -> None:
        key = _cut_fingerprint(a)
        held = self.objective.get(key)
        if held is None or b > held[1]:
            self.objective[key] = (a, b)

    def add_constraint(self, i: int, y: np.ndarray, a: np.ndarray, b: float) -> None:
        key = (i, y.tobytes(), _cut_fingerprint(a))
        held = self.constraint.get(key)
        if held is None or b > held[1]:
            self.constraint[key] = (a, b)

    def prune(self, x_ref: np.ndarray) -> None:
        """Shed cuts beyond the caps, dropping the slackest at the reference
        point first.  Keeps the pool focused where the iterates live; losing
        cuts only loosens the model, never its soundness."""
        self.objective = _tightest(self.objective, x_ref, MAX_OBJECTIVE_CUTS)
        self.constraint = _tightest(self.constraint, x_ref, MAX_CONSTRAINT_CUTS)

    def restrict_to_points(self, points: np.ndarray) -> None:
        """Drop constraint cuts whose index point left the discretization."""
        keep = {p.tobytes() for p in points}
        stale = [k for k in self.constraint if k[1] not in keep]
        for k in stale:
            del self.constraint[k]


def _batch_values(dp: DiscretizedProblem, x: np.ndarray) -> np.ndarray:
    """(|I|, m) matrix of g_i(x, y_j) over the discretization."""
    return np.stack([fam.eval_grid(x, dp.points) for fam in dp.base.constraints])


def _top_violations(values: np.ndarray) -> list[tuple[int, int]]:
    """Positions of the CUTS_PER_ITERATE largest entries, ordered by value
    descending then (family, point) ascending for determinism."""
    k = CUTS_PER_ITERATE
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
    """Shared master assembly for the feasibility and optimality phases.

    The simplex or the QP supplies candidate points; certified bounds come
    from closed forms that stay valid regardless of solver tolerances.
    ``objective_oracle(x)`` returns (f(x), a subgradient at x); the QP
    route evaluates its bound through it.  The route follows from the form
    itself: ``quadratic`` is set only when the objective's form is positive
    definite.
    """

    def __init__(self, X, pool: CutPool, objective, objective_oracle):
        self.X = X
        self.pool = pool
        form = objective.quadratic
        self.quadratic = form if form is not None and form.positive_definite else None
        self.objective_oracle = objective_oracle
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
            raise NumericalError(f"master LP came back {res.status}")
        x_hat = self.X.clip(res.x[: self.X.dim])
        bound = _lagrangian_bound(epi_rows, g_rows, self.X, res.duals)
        return bound, x_hat

    def _solve_qp(self, g_rows):
        """min of the quadratic form under the cut rows, certified through
        the objective's oracles: for any lam >= 0 and x_hat in X, convexity
        gives f(x) >= f(x_hat) + lam.(A x_hat - r)
        + min over X of (grad f(x_hat) + A^T lam).(x - x_hat)
        for every x in X with A x <= r.  Also returns f(x_hat)."""
        X, form = self.X, self.quadratic
        A = np.array([c_row for c_row, _ in g_rows]).reshape(-1, X.dim)
        r = np.array([d_row for _, d_row in g_rows])
        res = qp.solve_box_qp(form.factor, A, r, X.lower, X.upper)
        self.lp_iters += res.iterations
        x_hat = X.clip(res.x)
        value, grad = self.objective_oracle(x_hat)
        grad = grad + A.T @ res.duals
        bound = (
            value
            + float(res.duals @ (A @ x_hat - r))
            + _box_linear_min(grad, X)
            - float(grad @ x_hat)
        )
        return bound, x_hat, value

    def solve_min_violation(self):
        """Certified bound and candidate for min over the box of max g."""
        epi = [(a, b) for (a, b) in self.pool.constraint.values()]
        return self._solve(epi, [])

    def solve_min_objective(self, eps: float):
        """Certified bound, candidate and f at the candidate (None on the
        Kelley route, which does not evaluate f) for the restricted cut
        model."""
        g_rows = [(a, -eps - b) for (a, b) in self.pool.constraint.values()]
        if self.quadratic is not None:
            return self._solve_qp(g_rows)
        bound, x_hat = self._solve(list(self.pool.objective.values()), g_rows)
        return bound, x_hat, None


def solve_discretized(
    dp: DiscretizedProblem,
    gap_tol: float,
    x_hint: np.ndarray | None = None,
    pool: CutPool | None = None,
) -> DiscretizedSolveResult:
    """Solve the discretized restricted problem to a certified gap.

    Returns FEASIBLE with a point satisfying every g_i(x, y_j) <= -eps +
    FEASTOL and 0 <= upper - lower <= max(gap_tol, floor), the floor at
    most LP_GAP_FLOOR_REL * max(1, |upper|); INFEASIBLE with a
    certificate that min over X of max(g + eps) is positive; or UNDECIDED
    with the best bounds when MASTER_BUDGET master solves run out or a
    master solve breaks down numerically.  ``pool`` allows warm starts across
    calls; it is attempted, never relied upon.
    """
    if not gap_tol >= 0:  # also false for NaN
        raise InputError("gap_tol must be nonnegative")
    problem = dp.base
    X = problem.x_domain
    fams = problem.constraints
    m_pts = dp.points.shape[0]
    pool = pool if pool is not None else CutPool()
    budget = MASTER_BUDGET
    evals = 0

    def f_oracle(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evals
        evals += 2
        s = np.asarray(problem.objective.subgradient(x), dtype=float)
        v = float(problem.objective.value(x))
        if not (math.isfinite(v) and np.isfinite(s).all()):
            raise InputError("the objective returned a non-finite value or subgradient")
        return v, s

    def add_f_cut(x: np.ndarray) -> float:
        v, s = f_oracle(x)
        pool.add_objective(s, v - float(np.dot(s, x)))
        return v

    master = _Master(X, pool, problem.objective, f_oracle)

    def undecided(x, upper: float, lower: float) -> DiscretizedSolveResult:
        return DiscretizedSolveResult(
            SolveStatus.UNDECIDED, x, upper, lower, 0.0,
            lp_iters=master.lp_iters, evals=evals,
        )

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
            rhs = float(vals[i, j]) - float(np.dot(s, x))
            # a non-finite entry of s leaves rhs non-finite (inf * 0 is NaN)
            fams[i].require_finite(math.isfinite(rhs), "x-subgradient")
            pool.add_constraint(i, dp.points[j], s, rhs)

    x0 = X.clip(as_point(x_hint, dim=X.dim)) if x_hint is not None else X.center()

    # ----- phase 1: locate a feasible anchor or certify infeasibility ------
    anchor, anchor_phi = x0, -np.inf
    if m_pts:
        best_phi, best_x = np.inf, x0
        probe = x0
        while True:
            phic, vals = phi(probe)
            add_g_cuts(probe, vals)
            if phic < best_phi:
                best_phi, best_x = phic, probe
            if best_phi <= -dp.eps + FEASTOL:
                anchor, anchor_phi = best_x, best_phi
                break
            if budget <= 0:
                return undecided(None, np.inf, -np.inf)
            budget -= 1
            try:
                v_lb, probe = master.solve_min_violation()
            except NumericalError:
                return undecided(None, np.inf, -np.inf)
            pool.prune(probe)
            if v_lb > -dp.eps:
                return DiscretizedSolveResult(
                    SolveStatus.INFEASIBLE, None, np.inf, np.inf, 0.0,
                    violation_bound=v_lb + dp.eps,
                    lp_iters=master.lp_iters, evals=evals,
                )

    # ----- phase 2: optimize over the cut model -----------------------------
    def restore(x: np.ndarray) -> np.ndarray | None:
        """Bisect from the strictly feasible anchor toward x.

        Kelley's master points lie outside a curved feasible set until the
        cuts close in on it, so on nonlinear constraints the incumbent, and
        with it the gap, comes from these restored points; without them such
        solves spend every master and end UNDECIDED."""
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

    def offer(x: np.ndarray, v: float | None = None) -> None:
        """Take the feasible x as incumbent if f(x) improves on it.  The
        Kelley route also stores the epigraph cut at x; the QP route needs
        only the value, and passes it when the master already has it."""
        nonlocal upper, x_best, evals
        if master.quadratic is None:
            v = add_f_cut(x)
        elif v is None:
            evals += 1
            v = float(problem.objective.value(x))
        if v < upper:
            upper, x_best = v, x

    offer(anchor)
    floor_rel = GAP_FLOOR_REL if master.quadratic is not None else LP_GAP_FLOOR_REL
    x_prev = None  # the previous master point

    while True:
        floor = floor_rel * max(1.0, abs(upper))
        if upper - lower <= max(gap_tol, floor):
            # upper is f at a point that may violate the rows by FEASTOL, so
            # it can fall below the lower bound of the exact rows; upper is
            # then a valid lower bound too
            return DiscretizedSolveResult(
                SolveStatus.FEASIBLE, x_best, upper, min(lower, upper), floor,
                lp_iters=master.lp_iters, evals=evals,
            )
        if budget <= 0:
            return undecided(x_best, upper, lower)
        budget -= 1
        try:
            t_lb, xc, fc = master.solve_min_objective(dp.eps)
        except NumericalError:
            return undecided(x_best, upper, lower)
        pool.prune(xc)
        if (
            master.quadratic is not None
            and t_lb <= lower
            and np.array_equal(xc, x_prev)
            and upper - lower <= LP_GAP_FLOOR_REL * max(1.0, abs(upper))
        ):
            # the QP master repeats its point and its bound: the gap it
            # reached is its resolution here, within the LP route's floor
            return DiscretizedSolveResult(
                SolveStatus.FEASIBLE, x_best, upper, lower, upper - lower,
                lp_iters=master.lp_iters, evals=evals,
            )
        lower, x_prev = max(t_lb, lower), xc
        phic, vals = phi(xc)
        if phic <= -dp.eps + FEASTOL:
            offer(xc, fc)
        else:
            add_g_cuts(xc, vals)
            if master.quadratic is None:
                add_f_cut(xc)  # epigraph cuts are valid anywhere
            xr = restore(xc)
            if xr is not None:
                offer(xr)
