import numpy as np
import pytest
from scipy.optimize import linprog

from sipsolve import simplex
from sipsolve.errors import InputError, NumericalError

STATUS_MAP = {0: simplex.OPTIMAL, 2: simplex.INFEASIBLE, 3: simplex.UNBOUNDED}


def reference(c, A, b, lo, hi):
    bounds = [
        (l if np.isfinite(l) else None, u if np.isfinite(u) else None)
        for l, u in zip(lo, hi)
    ]
    m = np.size(b)
    return linprog(
        c, A_ub=A if m else None, b_ub=b if m else None, bounds=bounds,
        method="highs",
    )


def test_simple_bounded():
    res = simplex.solve_lp([1.0, 2.0], [[1.0, 1.0]], [1.0], [0.0, 0.0], [5.0, 5.0])
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(0.0)


def test_infeasible():
    res = simplex.solve_lp([1.0], [[1.0], [-1.0]], [-2.0, 1.0], [-5.0], [5.0])
    assert res.status == simplex.INFEASIBLE


def test_unbounded():
    res = simplex.solve_lp([-1.0], np.zeros((0, 1)), [], [0.0], [np.inf])
    assert res.status == simplex.UNBOUNDED


def test_free_variable():
    # min t s.t. t >= 2: handled through the free split
    res = simplex.solve_lp([1.0], [[-1.0]], [-2.0], [-np.inf], [np.inf])
    assert res.objective == pytest.approx(2.0)
    assert res.duals[0] == pytest.approx(1.0)


def test_against_scipy_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 10))
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        lo = np.where(rng.random(n) < 0.75, rng.uniform(-3, 0, n), -np.inf)
        hi = np.where(rng.random(n) < 0.75, rng.uniform(0, 3, n), np.inf)
        hi = np.maximum(hi, lo)
        mine = simplex.solve_lp(c, A, b, lo, hi)
        ref = reference(c, A, b, lo, hi)
        assert mine.status == STATUS_MAP.get(ref.status, "?")
        if mine.status == simplex.OPTIMAL:
            assert mine.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            assert np.max(A @ mine.x - b) <= 1e-7 if m else True


def test_duals_give_valid_tight_bounds():
    # weak-duality reconstitution: for any nonnegative multipliers lam,
    # -lam.b + min over the box of (c + A'lam).x lower-bounds the optimum;
    # the returned duals should make it tight
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 1.0
        lo = rng.uniform(-3, -1, n)
        hi = rng.uniform(1, 3, n)
        mine = simplex.solve_lp(c, A, b, lo, hi)
        if mine.status != simplex.OPTIMAL:
            continue
        lam = mine.duals
        assert np.all(lam >= 0)
        g = c + A.T @ lam
        bound = -lam @ b + np.sum(np.where(g >= 0, g * lo, g * hi))
        assert bound <= mine.objective + 1e-9
        assert mine.objective - bound <= 1e-7


def test_degenerate_tangent_bundle():
    # near-duplicate tangent cuts of x^2 around the optimum used to wreck
    # tableau conditioning; the solve must stay correct
    pts = np.concatenate(
        [np.linspace(-2, 2, 15), np.linspace(-1e-5, 1e-5, 10), [3e-5, 3e-5 + 1e-12]]
    )
    rows = [[2 * p, -1.0] for p in pts]
    rhs = [p * p for p in pts]
    rows.append([1.0, 0.0])
    rhs.append(1e-6)
    res = simplex.solve_lp(
        [0.0, 1.0], rows, rhs, [-2.0, -np.inf], [2.0, np.inf]
    )
    assert res.status == simplex.OPTIMAL
    assert np.max(np.array(rows) @ res.x - np.array(rhs)) <= 1e-9
    # model min of the tangent envelope is slightly below zero, never above
    assert -1e-8 <= res.objective <= 1e-12


def test_input_validation():
    with pytest.raises(InputError):
        simplex.solve_lp([1.0], [[1.0, 2.0]], [0.0], [0.0], [1.0])
    res = simplex.solve_lp([1.0], np.zeros((0, 1)), [], [2.0], [1.0])
    assert res.status == simplex.INFEASIBLE


def test_pivot_budget_is_numerical_error(monkeypatch):
    # a numerical breakdown, not bad input: the finite solver turns it into
    # an undecided solve
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 0)
    with pytest.raises(NumericalError):
        simplex.solve_lp([-1.0, -1.0], [[1.0, 2.0], [2.0, 1.0]], [4.0, 4.0],
                         [0.0, 0.0], [10.0, 10.0])
