import numpy as np
import pytest

from sipsolve import qp
from sipsolve.errors import InputError, NumericalError
from sipsolve.problem import BoxDomain, QuadraticForm
from sipsolve.qp import box_qp_factor, solve_box_qp, solve_qp
from sipsolve.regression import (
    RegressionSpec,
    assemble_loss,
    constraint_coefficient_polys,
    monotone_increasing,
)


def test_instance_r_oracle(spec_r):
    loss = assemble_loss(spec_r)
    res = solve_qp(loss.Q, loss.c, [[0.0, -1.0]], [0.0], d=loss.d)
    ridge = spec_r.ridge
    w0 = 1.0 / (2.0 + ridge)
    assert res.x == pytest.approx([w0, 0.0], abs=1e-10)
    assert res.objective == pytest.approx((w0 - 1) ** 2 + w0**2 + ridge * w0**2)
    assert res.active == (0,)


def test_unconstrained_interior():
    Q = np.array([[1.0, 0.0], [0.0, 2.0]])
    c = np.array([-2.0, -4.0])
    res = solve_qp(Q, c, [[1.0, 0.0], [0.0, 1.0]], [5.0, 5.0])
    assert res.x == pytest.approx([1.0, 1.0])
    assert res.active == ()


def test_kkt_conditions_on_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        M = rng.normal(size=(n, n))
        Q = M.T @ M + 0.5 * np.eye(n)
        c = rng.normal(size=n)
        m = int(rng.integers(1, 6))
        G = rng.normal(size=(m, n))
        h = rng.uniform(0.1, 2.0, m)  # keeps w = 0 feasible
        res = solve_qp(Q, c, G, h)
        assert np.all(G @ res.x <= h + 1e-7)
        grad = (Q + Q.T) @ res.x + c
        if res.active:
            Ga = G[list(res.active)]
            lam, *_ = np.linalg.lstsq(Ga.T, -grad, rcond=None)
            assert np.all(lam >= -1e-6)
            assert np.max(np.abs(Ga.T @ lam + grad)) <= 1e-6
        else:
            assert np.max(np.abs(grad)) <= 1e-7


def test_matches_fine_grid():
    Q = np.array([[1.0, 0.2], [0.2, 1.5]])
    c = np.array([0.5, -1.0])
    G = np.array([[1.0, 1.0], [-1.0, 0.5]])
    h = np.array([0.5, 0.8])
    res = solve_qp(Q, c, G, h)
    xs = np.linspace(-2, 2, 301)
    best = np.inf
    for a in xs:
        for b in xs:
            w = np.array([a, b])
            if np.all(G @ w <= h):
                best = min(best, float(w @ Q @ w + c @ w))
    assert res.objective <= best + 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("degree", [3, 5])
def test_dependent_tight_rows_at_the_start(seed, degree):
    # monotone rows of a fit on a 41-point grid: at w = 0 every row is tight
    # and they are linearly dependent, which once made the first KKT system
    # singular; the result matches solve_box_qp on the same rows and box
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, 40)
    t = u**2 + 0.05 * rng.normal(size=40)
    n = degree + 1
    box = BoxDomain([-10.0] * n, [10.0] * n)
    spec = RegressionSpec(
        data=np.column_stack([u, t]), degree=degree, coeff_box=box,
        u_domain=BoxDomain([0.0], [1.0]), ridge=1e-6,
        shape_constraints=(monotone_increasing(dim=1),),
    )
    loss = assemble_loss(spec)
    polys, offset = constraint_coefficient_polys(spec, spec.shape_constraints[0])
    G = np.array([[p(np.array([v])) for p in polys] for v in np.linspace(0.0, 1.0, 41)])
    h = np.full(len(G), -offset)
    # solve_box_qp includes the box, solve_qp only the rows it is given
    G_box = np.vstack([G, -np.eye(n), np.eye(n)])
    h_box = np.concatenate([h, -box.lower, box.upper])
    res = solve_qp(loss.Q, loss.c, G_box, h_box, d=loss.d)
    ref = solve_box_qp(box_qp_factor(loss.Q, loss.c), G, h, box.lower, box.upper)
    assert res.x == pytest.approx(ref.x, abs=1e-8)
    assert res.objective == pytest.approx(
        float(ref.x @ loss.Q @ ref.x + loss.c @ ref.x + loss.d), abs=1e-12
    )


def test_iteration_budget_is_numerical_error(monkeypatch):
    monkeypatch.setattr(qp, "_MAX_ITERS", 1)
    with pytest.raises(NumericalError, match="did not converge"):
        solve_qp(np.eye(2), [-4.0, -4.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])


def test_rejects_infeasible_start():
    with pytest.raises(InputError):
        solve_qp([[1.0]], [0.0], [[1.0]], [-1.0])


# --------------------------------------------------------------------------
# solve_box_qp, the dual active-set master, checked against KKT and SLSQP
# --------------------------------------------------------------------------


def random_box_qp(rng, n, m, degenerate):
    """A PD QP whose rows hold at a random box point; ``degenerate`` adds a
    duplicated row, a nearly parallel row and a positively scaled copy."""
    M = rng.normal(size=(n, n))
    Q = M.T @ M / n + 0.05 * np.eye(n)
    c = 3.0 * rng.normal(size=n)
    lo = -rng.uniform(0.5, 3.0, n)
    hi = rng.uniform(0.5, 3.0, n)
    x0 = lo + rng.random(n) * (hi - lo)
    G = rng.normal(size=(m, n))
    h = G @ x0 + rng.uniform(0.0, 1.0, m)
    if degenerate and m:
        G = np.vstack([G, G[0], G[0] * (1.0 + 1e-13), 2.5 * G[0]])
        h = np.concatenate([h, [h[0], h[0] + 1e-3, 2.5 * h[0]]])
    return Q, c, G, h, lo, hi, x0


def kkt_residuals(Q, c, G, h, lo, hi, res):
    """Relative primal infeasibility, dual sign, complementarity and
    stationarity (with the box faces' multipliers implied by the sign of
    the Lagrangian gradient at each face)."""
    x, lam = res.x, res.duals
    row_scale = 1.0 + np.abs(h) + np.abs(G) @ np.abs(x)
    slack = G @ x - h
    primal = max(
        float(np.max(slack / row_scale, initial=0.0)),
        float(np.max(lo - x)),
        float(np.max(x - hi)),
    )
    comp = float(np.max(lam * np.abs(slack) / row_scale, initial=0.0))
    grad = (Q + Q.T) @ x + c + G.T @ lam
    grad_scale = 1.0 + np.max(np.abs((Q + Q.T) @ x)) + np.max(np.abs(c)) + np.max(
        np.abs(G.T @ lam), initial=0.0
    )
    at_lo = x <= lo + 1e-12 * (1.0 + np.abs(lo))
    at_hi = x >= hi - 1e-12 * (1.0 + np.abs(hi))
    stat = np.where(at_lo, np.maximum(-grad, 0.0), 0.0)
    stat += np.where(at_hi, np.maximum(grad, 0.0), 0.0)
    stat += np.where(~at_lo & ~at_hi, np.abs(grad), 0.0)
    return primal, float(np.min(lam, initial=0.0)), comp, float(np.max(stat)) / grad_scale


@pytest.mark.parametrize("degenerate", [False, True])
def test_box_qp_kkt_and_slsqp(degenerate):
    from scipy.optimize import minimize

    rng = np.random.default_rng(11 if degenerate else 12)
    for trial in range(150):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 30))
        Q, c, G, h, lo, hi, x0 = random_box_qp(rng, n, m, degenerate)
        res = solve_box_qp(box_qp_factor(Q, c), G, h, lo, hi)
        assert res.duals.shape == (len(h),)
        primal, lam_min, comp, stat = kkt_residuals(Q, c, G, h, lo, hi, res)
        assert primal <= 1e-9, trial
        assert lam_min >= 0.0, trial
        assert comp <= 1e-9, trial
        assert stat <= 1e-9, trial
        cons = (
            [{"type": "ineq", "fun": lambda w: h - G @ w, "jac": lambda w: -G}]
            if len(h) else []
        )
        ref = minimize(
            lambda w: w @ Q @ w + c @ w, x0, jac=lambda w: (Q + Q.T) @ w + c,
            bounds=list(zip(lo, hi)), constraints=cons, method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        mine = float(res.x @ Q @ res.x + c @ res.x)
        # SLSQP is a primal method: it may stop a little above the optimum,
        # never meaningfully below a feasible KKT point
        assert mine <= ref.fun + 1e-7 * (1.0 + abs(ref.fun)), trial
        assert ref.fun >= mine - 1e-9 * (1.0 + abs(mine)), trial


def test_box_qp_deterministic():
    rng = np.random.default_rng(5)
    Q, c, G, h, lo, hi, _ = random_box_qp(rng, 4, 25, True)
    a = solve_box_qp(box_qp_factor(Q, c), G, h, lo, hi)
    b = solve_box_qp(box_qp_factor(Q, c), G, h, lo, hi)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.duals.tobytes() == b.duals.tobytes()
    assert a.iterations == b.iterations


def test_box_qp_unconstrained_and_box_only():
    Q = np.array([[1.0, 0.0], [0.0, 2.0]])
    c = np.array([-2.0, -4.0])
    res = solve_box_qp(box_qp_factor(Q, c), np.zeros((0, 2)), [], [-5.0, -5.0], [5.0, 5.0])
    assert res.x == pytest.approx([1.0, 1.0])
    assert res.iterations == 0
    res = solve_box_qp(box_qp_factor(Q, c), np.zeros((0, 2)), [], [-5.0, -5.0], [0.5, 5.0])
    assert res.x == pytest.approx([0.5, 1.0])


@pytest.mark.parametrize(
    "G, h",
    [
        ([[1.0], [-1.0]], [-1.0, -1.0]),  # x <= -1 and x >= 1
        ([[1.0]], [-3.0]),  # x <= -3 outside the box [-2, 2]
        ([[0.0]], [-1.0]),  # a zero row that cannot hold
    ],
)
def test_box_qp_empty_feasible_set_raises(G, h):
    with pytest.raises(NumericalError):
        solve_box_qp(box_qp_factor([[1.0]], [0.0]), G, h, [-2.0], [2.0])


def test_box_qp_rejects_indefinite_matrix():
    with pytest.raises(NumericalError):
        box_qp_factor([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])


def test_box_qp_step_budget_raises(monkeypatch):
    rng = np.random.default_rng(5)
    Q, c, G, h, lo, hi, _ = random_box_qp(rng, 4, 25, True)
    factor = box_qp_factor(Q, c)
    steps = solve_box_qp(factor, G, h, lo, hi).iterations
    assert steps >= 2
    monkeypatch.setattr(qp, "_MAX_STEPS", steps - 1)
    with pytest.raises(NumericalError, match="did not converge"):
        solve_box_qp(factor, G, h, lo, hi)
    monkeypatch.setattr(qp, "_MAX_STEPS", steps)
    assert solve_box_qp(factor, G, h, lo, hi).iterations == steps


# --------------------------------------------------------------------------
# the factor a QuadraticForm caches for solve_box_qp
# --------------------------------------------------------------------------


def assert_same_bits(a, b):
    assert a.x.tobytes() == b.x.tobytes()
    assert a.duals.tobytes() == b.duals.tobytes()
    assert a.iterations == b.iterations


@pytest.mark.parametrize("degenerate", [False, True])
def test_box_qp_cached_factor_keeps_the_bits(degenerate):
    # the random instances of test_box_qp_kkt_and_slsqp, each solved through
    # its form's cached factor after the form served another instance
    rng = np.random.default_rng(11 if degenerate else 12)
    previous = None
    for trial in range(150):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 30))
        Q, c, G, h, lo, hi, _ = random_box_qp(rng, n, m, degenerate)
        form = QuadraticForm(Q=Q, c=c, d=0.0)
        fresh = solve_box_qp(box_qp_factor(Q, c), G, h, lo, hi)
        assert_same_bits(solve_box_qp(form.factor, G, h, lo, hi), fresh)
        if previous is not None:
            p_form, p_args, p_fresh = previous
            assert_same_bits(solve_box_qp(p_form.factor, *p_args), p_fresh)
            assert_same_bits(solve_box_qp(form.factor, G, h, lo, hi), fresh)
        previous = form, (G, h, lo, hi), fresh


def test_box_qp_cached_factor_is_read_only():
    form = QuadraticForm(Q=np.array([[1.0, 0.2], [0.2, 2.0]]), c=np.array([-2.0, 1.0]), d=0.0)
    factor = form.factor
    assert form.factor is factor and form.positive_definite
    for a in (factor.L, factor.ct, factor.w0):
        with pytest.raises(ValueError):
            a[0] = 1.0
    # a solve that takes no step returns its own copy of the minimizer
    res = solve_box_qp(factor, np.zeros((0, 2)), [], [-5.0, -5.0], [5.0, 5.0])
    assert res.iterations == 0
    res.x[0] = 7.0
    assert factor.w0[0] != 7.0
