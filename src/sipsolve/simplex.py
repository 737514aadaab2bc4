"""Dense revised simplex with Bland's rule.

Solves   min c.x   s.t.  A x <= b,  lower <= x <= upper
with per-variable bounds that may be infinite.  Sizes here are tiny (a few
dozen cutting planes over a handful of variables), so every iteration
re-solves the basis system directly from the original data: nothing is
accumulated, which keeps the method stable on the nearly-duplicate cut
bundles Kelley produces.  Bland's entering/leaving rule keeps it
anti-cycling and fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

PIVOT_TOL = 1e-9  # reduced-cost threshold
RATIO_TOL = 1e-9  # minimum direction component in the ratio test
FEAS_TOL = 1e-9
# Pivots over both phases of one solve_lp call before it gives up.
MAX_PIVOTS = 20_000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int
    duals: np.ndarray | None = None  # >= 0 multiplier per A-row (OPTIMAL only)


def _bland(
    M: np.ndarray,
    cost: np.ndarray,
    basis: np.ndarray,
    rhs: np.ndarray,
    priceable: int,
    pivots_used: int,
) -> tuple[str, np.ndarray, int]:
    """Revised simplex loop on min cost.s s.t. M s = rhs, s >= 0.

    ``basis`` is modified in place.  Returns (status, y, pivots) where y are
    the simplex multipliers of the final basis.
    """
    m = M.shape[0]
    pivots = pivots_used
    while True:
        B = M[:, basis]
        try:
            y = np.linalg.solve(B.T, cost[basis])
        except np.linalg.LinAlgError:
            raise NumericalError("singular simplex basis") from None
        reduced = cost[:priceable] - y @ M[:, :priceable]
        candidates = np.flatnonzero(reduced < -PIVOT_TOL)
        if candidates.size == 0:
            return OPTIMAL, y, pivots
        entering = int(candidates[0])  # Bland: smallest index
        d = np.linalg.solve(B, M[:, entering])
        xb = np.linalg.solve(B, rhs)
        eligible = np.flatnonzero(d > RATIO_TOL)
        if eligible.size == 0:
            return UNBOUNDED, y, pivots
        # Harris-style two-pass ratio test: allow FEAS_TOL of slack on the
        # blocking bound, then take the numerically largest pivot among the
        # admissible rows (ties broken by smallest basis variable); tiny
        # forced pivots on nearly-dependent cut bundles would otherwise
        # destroy the basis
        xb_pos = np.maximum(xb[eligible], 0.0)
        theta = float(np.min((xb_pos + FEAS_TOL) / d[eligible]))
        ratios = xb_pos / d[eligible]
        cand = eligible[ratios <= theta]
        dmax = float(d[cand].max())
        stable = cand[d[cand] >= 0.5 * dmax]
        leaving = int(stable[np.argmin(basis[stable])])
        basis[leaving] = entering
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise NumericalError("simplex pivot budget exhausted")


def solve_lp(c, A, b, lower, upper) -> LpResult:
    """Solve min c.x s.t. A x <= b, lower <= x <= upper.

    ``lower``/``upper`` entries may be -inf/+inf.  Returns OPTIMAL with a
    primal point and row multipliers, INFEASIBLE, or UNBOUNDED.
    """
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    A = np.asarray(A, dtype=float).reshape(-1, n) if np.size(A) else np.zeros((0, n))
    b = np.asarray(b, dtype=float).ravel()
    if A.shape[0] != b.size:
        raise InputError("row count mismatch between A and b")
    lower = np.asarray(lower, dtype=float).ravel()
    upper = np.asarray(upper, dtype=float).ravel()
    if lower.size != n or upper.size != n:
        raise InputError("bounds length mismatch")
    if np.any(lower > upper):
        return LpResult(INFEASIBLE, None, None, 0)

    # Substitute variables so every structural column is nonnegative:
    #   finite lower:  x = l + s          (extra row s <= u - l if u finite)
    #   lower = -inf, finite upper: x = u - s
    #   free:          x = s_plus - s_minus
    cols: list[np.ndarray] = []
    costs: list[float] = []
    recover: list[tuple] = []
    rhs0 = b.copy()
    extra_rows: list[tuple[int, float]] = []
    for j in range(n):
        lj, uj = lower[j], upper[j]
        col = A[:, j] if A.shape[0] else np.zeros(0)
        if np.isfinite(lj):
            cols.append(col.copy())
            costs.append(c[j])
            recover.append(("shift", j, lj))
            rhs0 = rhs0 - col * lj
            if np.isfinite(uj):
                extra_rows.append((len(cols) - 1, uj - lj))
        elif np.isfinite(uj):
            cols.append(-col)
            costs.append(-c[j])
            recover.append(("mirror", j, uj))
            rhs0 = rhs0 - col * uj
        else:
            cols.append(col.copy())
            costs.append(c[j])
            recover.append(("free_pos", j, 0.0))
            cols.append(-col)
            costs.append(-c[j])
            recover.append(("free_neg", j, 0.0))

    m0 = A.shape[0]
    m = m0 + len(extra_rows)
    ns = len(cols)
    body = np.zeros((m, ns))
    if m0:
        body[:m0, :] = np.column_stack(cols) if ns else np.zeros((m0, 0))
    full_rhs = np.concatenate([rhs0, np.zeros(len(extra_rows))])
    for r, (col_idx, bound) in enumerate(extra_rows):
        body[m0 + r, col_idx] = 1.0
        full_rhs[m0 + r] = bound

    # equilibrate rows and drop (up to roundoff) duplicates, keeping the
    # tighter right-hand side; the representative follows the surviving rhs
    # so dual attribution stays right
    keep_map = list(range(m))
    row_scale = np.ones(m)
    if m:
        scale = np.maximum(np.max(np.abs(body), axis=1), 1e-300)
        body /= scale[:, None]
        full_rhs /= scale
        row_scale = scale
        seen: dict[tuple, int] = {}
        slot_rows: list[int] = []
        slot_rhs: list[float] = []
        for r in range(m):
            key = tuple(np.round(body[r], 9))
            if key in seen:
                slot = seen[key]
                if full_rhs[r] < slot_rhs[slot]:
                    slot_rhs[slot] = full_rhs[r]
                    slot_rows[slot] = r
            else:
                seen[key] = len(slot_rows)
                slot_rows.append(r)
                slot_rhs.append(full_rhs[r])
        if len(slot_rows) < m:
            body = body[slot_rows]
            full_rhs = np.array(slot_rhs)
            row_scale = row_scale[slot_rows]
            keep_map = list(slot_rows)
            m = len(slot_rows)

    # slack per row; rows with negative rhs are negated and get an artificial
    slack = np.eye(m)
    neg = full_rhs < 0
    body[neg] *= -1.0
    slack[neg] *= -1.0
    full_rhs[neg] *= -1.0
    art_rows = np.flatnonzero(neg)
    n_art = art_rows.size
    art = np.zeros((m, n_art))
    for k, r in enumerate(art_rows):
        art[r, k] = 1.0

    M = np.hstack([body, slack, art])
    basis = np.empty(m, dtype=int)
    basis[:] = ns + np.arange(m)
    for k, r in enumerate(art_rows):
        basis[r] = ns + m + k

    pivots = 0
    cost2 = np.concatenate([costs, np.zeros(m + n_art)])

    if n_art:
        cost1 = np.zeros(ns + m + n_art)
        cost1[ns + m :] = 1.0
        status, _, pivots = _bland(
            M, cost1, basis, full_rhs, ns + m + n_art, pivots
        )
        if status == UNBOUNDED:
            raise NumericalError("phase-1 simplex reported unbounded")
        xb = np.linalg.solve(M[:, basis], full_rhs)
        infeas = float(np.sum(np.maximum(xb[basis >= ns + m], 0.0)))
        if infeas > FEAS_TOL:
            return LpResult(INFEASIBLE, None, None, pivots)
        # swap lingering zero-level artificials out of the basis, choosing the
        # replacement column with the largest pivot for conditioning
        for r in range(m):
            if basis[r] < ns + m:
                continue
            B = M[:, basis]
            nonbasic = [j for j in range(ns + m) if j not in basis]
            if not nonbasic:
                continue
            D = np.linalg.solve(B, M[:, nonbasic])
            k = int(np.argmax(np.abs(D[r])))
            if abs(D[r, k]) > 1e-7:
                basis[r] = nonbasic[k]

    status, y, pivots = _bland(M, cost2, basis, full_rhs, ns + m, pivots)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None, pivots)

    xb = np.linalg.solve(M[:, basis], full_rhs)
    s = np.zeros(ns)
    for r in range(m):
        if basis[r] < ns:
            s[basis[r]] = max(float(xb[r]), 0.0)
    x = np.zeros(n)
    for col_idx, (kind, j, ref) in enumerate(recover):
        if kind == "shift":
            x[j] += ref + s[col_idx]
        elif kind == "mirror":
            x[j] += ref - s[col_idx]
        elif kind == "free_pos":
            x[j] += s[col_idx]
        else:
            x[j] -= s[col_idx]
    # certificates downstream lean on this point, so verify it for real
    if A.shape[0]:
        worst = float(np.max(A @ x - b))
        if worst > 1e-7 * (1.0 + float(np.max(np.abs(b)))):
            raise NumericalError(
                f"simplex produced a point violating a row by {worst:.3e}"
            )
    # multipliers of the original A-rows from the basis multipliers; rows
    # dropped as duplicates inherit multiplier zero
    duals = np.zeros(m0)
    for r in range(m):
        orig = keep_map[r]
        if orig >= m0:
            continue
        mu = -y[r] if not neg[r] else y[r]
        duals[orig] = max(mu, 0.0) / row_scale[r]
    return LpResult(OPTIMAL, x, float(np.dot(c, x)), pivots, duals=duals)
