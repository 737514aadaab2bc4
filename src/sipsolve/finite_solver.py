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

The masters only propose points and multipliers.  Every certified lower
bound comes from one closed form, ``_lagrangian_bound``: a convex
combination of epigraph cuts plus nonnegative multiples of the cut rows,
minimized exactly over the box.  The LP's row multipliers weight its own
cuts; the QP's weight the cut rows under the tangent of f at its point.
Master inexactness can therefore only loosen a bound, never invalidate it.
Cuts are valid only at the index points they came from, so a solve first
drops the pool's cuts of points outside its discretization.  Phase 1 finds
a feasible anchor: the hint if it meets the rows, else the problem's Slater
point if that does (it does whenever eps is below its margin), and only
then the LP master on the constraint cuts, whose bound also certifies
infeasibility.  Feasible upper bounds come from master iterates that
satisfy all constraints, or from a restoration line search toward the
anchor.  A solve stops once upper - lower is within the requested gap or
within one relative floor, the same on both routes.  A positive certified
bound on the minimal violation certifies infeasibility of the discretized
problem.  A master that breaks down numerically ends the solve as UNDECIDED
with the bounds reached so far.
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
# floor = GAP_FLOOR_REL * max(1, |upper|), and reports the floor it applied.
# It is the Kelley LP master's resolution, where its certified bound stops
# moving; the QP route needs no finer one.
GAP_FLOOR_REL = 1e-8

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
    # certified lower bound on min over X of max_j g(x, y_j), Infeasible only
    violation_bound: float | None = None
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
    discretization, and ``solve_discretized`` drops the others before it
    reads the pool (the restriction eps is applied at row-build time, so
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


def _batch_values(dp: DiscretizedProblem, x: np.ndarray) -> np.ndarray:
    """(|I|, m) matrix of g_i(x, y_j) over the discretization."""
    return np.stack([fam.eval_grid(x, dp.points) for fam in dp.base.constraints])


def _top_violations(values: np.ndarray) -> list[tuple[int, int]]:
    """Positions (family, point) of the CUTS_PER_ITERATE largest entries,
    ordered by value descending; one stable sort of the row-major entries
    leaves ties in (family, point) order."""
    order = np.argsort(-values.ravel(), kind="stable")[:CUTS_PER_ITERATE]
    return [divmod(int(t), values.shape[1]) for t in order]


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
    c.x <= d (g_rows), x in box, from a master's multipliers: the LP's, or
    the QP's with weight 1 on the tangent of f at its point.

    Any convex combination alpha of the epigraph cuts and any beta >= 0 on
    the rows yields the valid bound
        sum alpha b - sum beta d + min over box of (combined gradient).x,
    evaluated here in exact closed form, so master inexactness can only
    make the bound looser, never wrong.
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


def solve_discretized(
    dp: DiscretizedProblem,
    gap_tol: float,
    x_hint: np.ndarray | None = None,
    pool: CutPool | None = None,
) -> DiscretizedSolveResult:
    """Solve the discretized restricted problem to a certified gap.

    Returns FEASIBLE with a point satisfying every g_i(x, y_j) <= -eps +
    FEASTOL and 0 <= upper - lower <= max(gap_tol, floor), the floor
    GAP_FLOOR_REL * max(1, |upper|); INFEASIBLE with a certified
    lower bound ``violation_bound`` > -eps on min over X of max g; or UNDECIDED
    with the best bounds when MASTER_BUDGET master solves run out or a
    master solve breaks down numerically.  ``pool`` allows warm starts across
    calls; the solve first drops its cuts of index points outside
    ``dp.points``, so the cuts it keeps are valid here and the pool is
    attempted, never relied upon.

    Phase 1 evaluates the rows at the hint (the box center when None), then
    at ``problem.slater_point`` when the hint violates them, and solves LPs
    only when both do; every point it evaluates adds its cuts to the pool,
    and the first that meets the rows is the anchor.
    """
    if not gap_tol >= 0:  # also false for NaN
        raise InputError("gap_tol must be nonnegative")
    problem = dp.base
    X = problem.x_domain
    fams = problem.constraints
    m_pts = dp.points.shape[0]
    pool = pool if pool is not None else CutPool()
    keep = {y.tobytes() for y in dp.points}  # cuts of other points are not valid here
    pool.constraint = {k: cut for k, cut in pool.constraint.items() if k[1] in keep}
    budget = MASTER_BUDGET
    evals = 0

    def f_oracle(x: np.ndarray, grad: bool = True) -> tuple[float, np.ndarray]:
        """f(x) and, when ``grad``, a subgradient at x (else an empty
        array), checked finite; each counts one evaluation."""
        nonlocal evals
        evals += 1 + grad
        s = np.asarray(problem.objective.subgradient(x) if grad else [], dtype=float)
        v = float(problem.objective.value(x))
        if not (math.isfinite(v) and np.isfinite(s).all()):
            raise InputError("the objective returned a non-finite value or subgradient")
        return v, s

    def add_f_cut(x: np.ndarray) -> float:
        v, s = f_oracle(x)
        pool.add_objective(s, v - float(np.dot(s, x)))
        return v

    # the route: the QP master when the objective's form is positive
    # definite, the Kelley LP otherwise
    form = problem.objective.quadratic
    if form is not None and not form.positive_definite:
        form = None
    lp_iters = 0

    def lp_master(epi_rows: list, g_rows: list) -> tuple[float, np.ndarray]:
        """min t s.t. t >= a.x + b (epi_rows), c.x <= d (g_rows), x in X:
        the certified bound from the LP's multipliers, and its point."""
        nonlocal lp_iters
        rows = [np.concatenate([a, [-1.0]]) for a, _ in epi_rows]
        rows += [np.concatenate([c_row, [0.0]]) for c_row, _ in g_rows]
        res = simplex.solve_lp(
            c=np.concatenate([np.zeros(X.dim), [1.0]]),
            A=np.array(rows),
            b=np.array([-b for _, b in epi_rows] + [d_row for _, d_row in g_rows]),
            lower=np.concatenate([X.lower, [-np.inf]]),
            upper=np.concatenate([X.upper, [np.inf]]),
        )
        lp_iters += res.iterations
        if res.status != simplex.OPTIMAL:
            raise NumericalError(f"master LP came back {res.status}")
        return _lagrangian_bound(epi_rows, g_rows, X, res.duals), X.clip(res.x[: X.dim])

    def objective_master() -> tuple[float, np.ndarray, float | None]:
        """The certified bound, point and f at the point (None on the Kelley
        route, which does not evaluate f) for the restricted cut model.  The
        QP's multipliers certify through the tangent of f at its point, one
        epigraph cut of weight 1."""
        nonlocal lp_iters
        g_rows = [(a, -dp.eps - b) for a, b in pool.constraint.values()]
        if form is None:
            return (*lp_master(list(pool.objective.values()), g_rows), None)
        A = np.array([c_row for c_row, _ in g_rows]).reshape(-1, X.dim)
        r = np.array([d_row for _, d_row in g_rows])
        res = qp.solve_box_qp(form.factor, A, r, X.lower, X.upper)
        lp_iters += res.iterations
        x_hat = X.clip(res.x)
        v, s = f_oracle(x_hat)
        duals = np.concatenate([[1.0], res.duals])
        return _lagrangian_bound([(s, v - float(s @ x_hat))], g_rows, X, duals), x_hat, v

    def undecided(x, upper: float, lower: float) -> DiscretizedSolveResult:
        return DiscretizedSolveResult(
            SolveStatus.UNDECIDED, x, upper, lower, 0.0, lp_iters=lp_iters, evals=evals
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
        # the hint, then the Slater point, then the LP's points; the first
        # that meets the rows is the anchor
        probes = [x0] if problem.slater_point is None else [x0, problem.slater_point]
        while True:
            anchor = probes.pop(0)
            anchor_phi, vals = phi(anchor)
            add_g_cuts(anchor, vals)
            if anchor_phi <= -dp.eps + FEASTOL:
                break
            if probes:
                continue
            if budget <= 0:
                return undecided(None, np.inf, -np.inf)
            budget -= 1
            try:
                v_lb, probe = lp_master(list(pool.constraint.values()), [])
            except NumericalError:
                return undecided(None, np.inf, -np.inf)
            pool.prune(probe)
            if v_lb > -dp.eps:
                return DiscretizedSolveResult(
                    SolveStatus.INFEASIBLE, None, np.inf, np.inf, 0.0,
                    violation_bound=v_lb,
                    lp_iters=lp_iters, evals=evals,
                )
            probes.append(probe)

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
        nonlocal upper, x_best
        if form is None:
            v = add_f_cut(x)
        elif v is None:
            v = f_oracle(x, grad=False)[0]
        if v < upper:
            upper, x_best = v, x

    offer(anchor)

    while True:
        floor = GAP_FLOOR_REL * max(1.0, abs(upper))
        if upper - lower <= max(gap_tol, floor):
            # upper is f at a point that may violate the rows by FEASTOL, so
            # it can fall below the lower bound of the exact rows; upper is
            # then a valid lower bound too
            return DiscretizedSolveResult(
                SolveStatus.FEASIBLE, x_best, upper, min(lower, upper), floor,
                lp_iters=lp_iters, evals=evals,
            )
        if budget <= 0:
            return undecided(x_best, upper, lower)
        budget -= 1
        try:
            t_lb, xc, fc = objective_master()
        except NumericalError:
            return undecided(x_best, upper, lower)
        pool.prune(xc)
        lower = max(t_lb, lower)
        phic, vals = phi(xc)
        if phic <= -dp.eps + FEASTOL:
            offer(xc, fc)
        else:
            add_g_cuts(xc, vals)
            if form is None:
                add_f_cut(xc)  # epigraph cuts are valid anywhere
            xr = restore(xc)
            if xr is not None:
                offer(xr)
