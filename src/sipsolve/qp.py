"""Small dense active-set solvers for strictly convex quadratic programs.

    min  w.Q w + c.w (+ d)   s.t.  G w <= h   (and a box, for solve_box_qp)

Two independent routines that share no code:

- ``solve_qp``: primal active set with equality-constrained KKT subproblems,
  started from a feasible point.  It is the independent primal reference
  that the regression tests and the benchmark check results against.
- ``solve_box_qp``: the dual active-set method of Goldfarb and Idnani
  (1983).  It starts from the unconstrained minimizer, needs no feasible
  point, and returns the row multipliers.  The finite solver uses it as the
  master problem for objectives with a positive-definite quadratic form,
  passing the form's cached ``box_qp_factor`` so that no call refactors Q.

Q must be positive definite.  Problem sizes here are a handful of variables
against up to a few hundred rows, which dense factorizations handle easily.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

_TOL = 1e-10
# Active-set iterations of one solve_qp call before it gives up.
_MAX_ITERS = 500


@dataclass
class QpResult:
    x: np.ndarray
    objective: float
    active: tuple[int, ...]
    iterations: int


def solve_qp(Q, c, G, h, x0=None, d: float = 0.0) -> QpResult:
    """Solve min w.Q w + c.w + d s.t. G w <= h from a feasible start.

    ``x0`` defaults to the zero vector and must satisfy G x0 <= h.  The
    working set starts empty and only blocking rows join it, so rows that
    are tight at x0 and linearly dependent never enter it together.  Ties in
    the blocking-constraint and multiplier choices break toward the smallest
    row index, so the path is deterministic.  Raises NumericalError when
    ``_MAX_ITERS`` iterations do not suffice or a KKT system is singular.
    """
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    G = np.asarray(G, dtype=float).reshape(-1, n)
    h = np.asarray(h, dtype=float).ravel()
    if G.shape[0] != h.size:
        raise InputError("G/h row mismatch")
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).ravel().copy()
    if np.any(G @ x > h + 1e-8):
        raise InputError("starting point is infeasible")
    H = Q + Q.T  # gradient of w.Qw is (Q + Q.T) w

    active: list[int] = []

    def kkt_step(act: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Minimizer over the affine set {G_act w = h_act} and multipliers."""
        na = len(act)
        K = np.zeros((n + na, n + na))
        K[:n, :n] = H
        if na:
            Ga = G[act]
            K[:n, n:] = Ga.T
            K[n:, :n] = Ga
        rhs = np.concatenate([-c, h[act]]) if na else -c
        try:
            sol = np.linalg.solve(K, rhs) if na else np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            raise NumericalError("active-set QP met a singular KKT system") from None
        return sol[:n], sol[n:]

    for it in range(1, _MAX_ITERS + 1):
        w_eq, lam = kkt_step(active)
        step = w_eq - x
        if np.max(np.abs(step)) <= _TOL * (1.0 + np.max(np.abs(x))):
            # stationary on the active set: check multiplier signs
            if len(active) == 0 or np.all(lam >= -_TOL):
                obj = float(x @ Q @ x + c @ x + d)
                return QpResult(x, obj, tuple(sorted(active)), it)
            drop_pos = int(np.argmin(lam))
            active.pop(drop_pos)
            continue
        # longest feasible step toward the equality minimizer
        alpha, blocker = 1.0, -1
        Gx = G @ x
        Gs = G @ step
        for i in range(G.shape[0]):
            if i in active or Gs[i] <= _TOL:
                continue
            a_i = max((h[i] - Gx[i]) / Gs[i], 0.0)  # a row tight at x blocks at 0
            if a_i < alpha - _TOL or (a_i < alpha + _TOL and (blocker < 0 or i < blocker)):
                alpha, blocker = min(a_i, 1.0), i
        x = x + alpha * step
        if blocker >= 0 and alpha < 1.0 - _TOL:
            active.append(blocker)
            active.sort()
    raise NumericalError(f"active-set QP did not converge within {_MAX_ITERS} iterations")


# A row counts as satisfied while its violation stays below this multiple of
# the roundoff scale of evaluating it (1 + |h_i| + |G_i|.|w|).
_FEAS_REL = 1e-12
# A row whose component outside the span of the active rows (in the metric
# of Q) is below this fraction of its norm counts as linearly dependent.
_DEP_REL = 1e-10
# Active-set steps (rows added or dropped) before the solve gives up.
_MAX_STEPS = 1000


@dataclass
class BoxQpResult:
    x: np.ndarray
    duals: np.ndarray  # >= 0 multiplier per row of G
    iterations: int


@dataclass(frozen=True)
class BoxQpFactor:
    """What solve_box_qp derives from Q and c alone, held read-only: the
    Cholesky factor L of Q + Q^T, ct = L^-1 c and the unconstrained
    minimizer w0 = -L^-T ct."""

    L: np.ndarray
    ct: np.ndarray
    w0: np.ndarray


def box_qp_factor(Q, c) -> BoxQpFactor:
    """The factor of min w.Q w + c.w that solve_box_qp starts from; one
    factor serves every solve with this objective.  Raises NumericalError
    when Q is not positive definite."""
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float).ravel()
    try:
        L = np.linalg.cholesky(Q + Q.T)  # Hessian of w.Qw
    except np.linalg.LinAlgError:
        raise NumericalError("QP matrix is not positive definite") from None
    ct = np.linalg.solve(L, c)
    w0 = np.linalg.solve(L.T, -ct)
    for a in (L, ct, w0):
        a.setflags(write=False)
    return BoxQpFactor(L, ct, w0)


def solve_box_qp(factor: BoxQpFactor, G, h, lower, upper) -> BoxQpResult:
    """Solve min w.Q w + c.w s.t. G w <= h, lower <= w <= upper, given
    ``factor = box_qp_factor(Q, c)``.

    Dual active set (Goldfarb and Idnani 1983) on the rows of G and the box
    faces, each row scaled to unit max-norm.  It starts at the unconstrained
    minimizer and adds the most violated row, ties going to the smallest
    index (G's rows first, then the lower and the upper faces), until no row
    is violated.  Adding a row moves the primal point and the multipliers so
    that the active rows stay tight and the multipliers stay nonnegative; a
    multiplier that would turn negative drops its row first.  A row that is
    linearly dependent on the active set moves the multipliers only.  All
    solves go through the Cholesky factor of 2Q and a QR factorization of
    the active rows; each added row's point and multipliers are solved
    afresh from the active set, so roundoff does not accumulate.

    Returns the point, one multiplier per row of G (the box multipliers are
    not returned) and the number of active-set steps.  Raises
    NumericalError when the rows admit no point (a violated row that no
    multiplier change can fix) or when ``_MAX_STEPS`` steps do not suffice.
    """
    L, ct = factor.L, factor.ct
    n = ct.size
    G = np.asarray(G, dtype=float).reshape(-1, n)
    h = np.asarray(h, dtype=float).ravel()
    lower = np.asarray(lower, dtype=float).ravel()
    upper = np.asarray(upper, dtype=float).ravel()
    if G.shape[0] != h.size:
        raise InputError("G/h row mismatch")
    if lower.size != n or upper.size != n:
        raise InputError("bounds length mismatch")

    m = G.shape[0]
    scale = np.max(np.abs(G), axis=1) if m else np.zeros(0)
    scale[scale == 0.0] = 1.0
    eye = np.eye(n)
    rows = np.vstack([G / scale[:, None], -eye, eye])
    rhs = np.concatenate([h / scale, -lower, upper])
    abs_rows = np.abs(rows)
    # in the coordinates v = L^T w the objective is |v|^2 / 2 + ct.v and
    # row i reads nt[:, i].v <= rhs[i]
    nt = np.linalg.solve(L, rows.T)

    active: list[int] = []
    lam = np.zeros(0)
    v = -ct
    w = factor.w0.copy()
    Qa = Ra = None
    iterations = 0
    while True:
        slack = rows @ w - rhs
        slack[active] = 0.0
        tol = _FEAS_REL * (1.0 + np.abs(rhs) + abs_rows @ np.abs(w))
        if not np.any(slack > tol):
            break
        p = int(np.argmax(np.where(slack > tol, slack, 0.0)))
        while True:
            iterations += 1
            if iterations > _MAX_STEPS:
                raise NumericalError(
                    f"dual active-set QP did not converge within {_MAX_STEPS} steps"
                )
            col = nt[:, p]
            if active:
                proj = Qa.T @ col
                dual_step = np.linalg.solve(Ra, proj)
                resid = col - Qa @ proj
            else:
                dual_step = np.zeros(0)
                resid = col
            resid_sq = float(resid @ resid)
            dependent = resid_sq <= _DEP_REL**2 * float(col @ col)
            # partial step: the first active multiplier to reach zero
            t_drop, drop = np.inf, -1
            for k in np.flatnonzero(dual_step > 0.0):
                ratio = lam[k] / dual_step[k]
                if ratio < t_drop:
                    t_drop, drop = ratio, int(k)
            # full step: row p becomes tight
            t_add = np.inf
            if not dependent:
                t_add = max(float(rows[p] @ w - rhs[p]), 0.0) / resid_sq
            if drop < 0 and dependent:
                raise NumericalError("QP constraints admit no point")
            if t_add <= t_drop:
                active.append(p)
                Qa, Ra = np.linalg.qr(nt[:, active])
                # the point and multipliers the step reaches, computed from
                # the active set: v + ct + N lam = 0 and N^T v = rhs_active
                rhs_a = rhs[active] + nt[:, active].T @ ct
                lam = -np.linalg.solve(Ra, np.linalg.solve(Ra.T, rhs_a))
                v = -ct - Qa @ (Ra @ lam)
                w = np.linalg.solve(L.T, v)
                lam = np.maximum(lam, 0.0)
                break
            lam = np.delete(lam - t_drop * dual_step, drop)
            del active[drop]
            if not dependent:
                v = v - t_drop * resid
                w = np.linalg.solve(L.T, v)
            Qa, Ra = np.linalg.qr(nt[:, active]) if active else (None, None)

    duals = np.zeros(m)
    for k, i in enumerate(active):
        if i < m:
            duals[i] = lam[k] / scale[i]
    return BoxQpResult(w, duals, iterations)
