from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import grid_min_1d
from sipsolve import finite_solver
from sipsolve.errors import InputError, NumericalError
from sipsolve.finite_solver import (
    CutPool,
    DiscretizedProblem,
    SolveStatus,
    solve_discretized,
)
from sipsolve.instances import default_y0, random_affine_instance
from sipsolve.problem import (
    BoxDomain,
    ConstraintFamily,
    ConvexObjective,
    QuadraticForm,
    SipProblem,
)


def dp_of(problem, eps, points):
    return DiscretizedProblem(problem, eps, np.asarray(points, dtype=float))


class TestSolveDiscretized:
    def test_instance_a_active_constraint(self, prob_a):
        res = solve_discretized(dp_of(prob_a, 0.1, [[1.0]]), 1e-8)
        assert res.status is SolveStatus.FEASIBLE
        assert res.x[0] == pytest.approx(-0.1, abs=1e-7)
        assert res.upper == pytest.approx(0.01, abs=1e-7)
        assert res.upper - res.lower <= 1e-8 + 1e-12

    def test_instance_a_inactive_constraint(self, prob_a):
        res = solve_discretized(dp_of(prob_a, 0.1, [[0.0]]), 1e-8)
        assert res.status is SolveStatus.FEASIBLE
        assert res.upper == pytest.approx(0.0, abs=1e-9)

    def test_instance_a_infeasible(self, prob_a):
        # x <= -4 is impossible on [-2, 2]
        res = solve_discretized(dp_of(prob_a, 4.0, [[1.0]]), 1e-8)
        assert res.status is SolveStatus.INFEASIBLE
        # a certified lower bound on min_x x = -2, above -eps
        assert -4.0 < res.violation_bound <= -2.0

    def test_empty_points_unconstrained(self, prob_a):
        res = solve_discretized(dp_of(prob_a, 0.5, np.zeros((0, 1))), 1e-10)
        assert res.status is SolveStatus.FEASIBLE
        assert res.upper == pytest.approx(0.0, abs=1e-10)

    def test_floor_applies_for_zero_request(self, prob_a):
        res = solve_discretized(dp_of(prob_a, 0.1, [[1.0]]), 0.0)
        assert res.status is SolveStatus.FEASIBLE
        assert res.gap_floor > 0.0
        assert res.upper - res.lower <= res.gap_floor + 1e-15

    def test_kelley_floor_is_the_lp_resolution(self):
        # a gap-0 request on the LP master stops at GAP_FLOOR_REL
        prob = random_affine_instance(1)
        prob = replace(prob, objective=without_form(prob.objective))
        pts = prob.y_domain.grid(prob.y_domain.diameter() / 2 + 1e-9)[:3]
        res = solve_discretized(dp_of(prob, 0.2, pts), 0.0)
        assert res.status is SolveStatus.FEASIBLE
        assert res.lp_iters > 0
        assert res.gap_floor == finite_solver.GAP_FLOOR_REL * max(1.0, abs(res.upper))
        assert res.upper - res.lower <= res.gap_floor

    @pytest.mark.parametrize("seed", range(6))
    def test_qp_floor_is_the_kelley_floor(self, seed):
        # a gap-0 request on the QP master stops at the same relative floor
        prob = random_affine_instance(seed)
        res = solve_discretized(dp_of(prob, 0.0, default_y0(prob).points), 0.0)
        assert res.status is SolveStatus.FEASIBLE
        assert res.gap_floor == finite_solver.GAP_FLOOR_REL * max(1.0, abs(res.upper))
        assert res.upper - res.lower <= res.gap_floor

    @pytest.mark.parametrize(
        "shift, status", [(1e-10, SolveStatus.FEASIBLE), (1e-6, SolveStatus.UNDECIDED)]
    )
    def test_qp_master_repeat(self, prob_a, monkeypatch, shift, status):
        # a QP master that returns its first point and bound on every call:
        # a gap within the floor ends the solve there, a wider one spends
        # every master
        inner_qp, inner_bound = finite_solver.qp.solve_box_qp, finite_solver._lagrangian_bound
        first = []

        def repeating(*args):
            if not first:
                first.append(inner_qp(*args))
            return first[0]

        monkeypatch.setattr(finite_solver.qp, "solve_box_qp", repeating)
        monkeypatch.setattr(
            finite_solver, "_lagrangian_bound", lambda *args: inner_bound(*args) - shift
        )
        res = solve_discretized(dp_of(prob_a, 0.1, [[1.0]]), 0.0)
        assert res.status is status
        if status is SolveStatus.FEASIBLE:
            assert res.x[0] == pytest.approx(-0.1, abs=1e-9)
            assert res.gap_floor == finite_solver.GAP_FLOOR_REL * max(1.0, abs(res.upper))
            assert 0.0 < res.upper - res.lower <= res.gap_floor

    def test_budget_exhaustion_is_undecided(self, prob_b, monkeypatch):
        monkeypatch.setattr(finite_solver, "MASTER_BUDGET", 1)
        res = solve_discretized(dp_of(prob_b, 0.5, [[0.0], [1.0]]), 0.0)
        assert res.status in (SolveStatus.UNDECIDED, SolveStatus.FEASIBLE)
        if res.status is SolveStatus.UNDECIDED:
            assert res.lower <= res.upper

    def test_rejects_nan_gap_request(self, prob_a):
        # a NaN request used to spend every master and end UNDECIDED
        with pytest.raises(InputError, match="gap_tol"):
            solve_discretized(dp_of(prob_a, 0.1, [[1.0]]), np.nan)

    def test_nan_objective_on_qp_route_is_input_error(self, prob_b):
        # the positive-definite form is kept, so the QP route reads f at the
        # anchor; a NaN there once ended FEASIBLE with no point
        form = prob_b.objective.quadratic

        def value(x):
            return np.nan if np.array_equal(x, [-3.0, -3.0]) else form.value(x)

        prob = replace(prob_b, objective=replace(prob_b.objective, value=value))
        with pytest.raises(InputError, match="objective returned a non-finite"):
            solve_discretized(
                dp_of(prob, 0.5, [[0.0], [1.0]]), 1e-10, x_hint=np.array([-3.0, -3.0])
            )

    def test_rejects_nan_restriction(self, prob_a):
        # a NaN restriction used to end UNDECIDED with no point
        with pytest.raises(InputError, match="eps"):
            dp_of(prob_a, np.nan, [[1.0]])

    def test_points_must_fit_the_index_box(self, prob_a):
        # one point with two coordinates on instance_A's one-dimensional box
        # used to be solved as two points; three columns on a q = 2 box
        # used to reach reshape's bare ValueError, or be regrouped
        q2 = random_affine_instance(1)
        assert prob_a.y_domain.dim == 1 and q2.y_domain.dim == 2
        for prob, points in [
            (prob_a, [[0.2, 0.9]]),
            (q2, np.zeros((1, 3))),
            (q2, np.zeros((2, 3))),
            (q2, np.zeros((1, 2, 2))),
            (q2, [0.1, 0.2, 0.3]),
        ]:
            with pytest.raises(InputError, match="index box"):
                dp_of(prob, 0.1, points)

    def test_flat_points_fill_rows_of_q(self, prob_a):
        q2 = random_affine_instance(1)
        assert dp_of(prob_a, 0.1, [0.2, 0.9]).points.shape == (2, 1)
        assert dp_of(prob_a, 0.1, 0.5).points.shape == (1, 1)
        assert dp_of(q2, 0.1, [0.1, 0.2, 0.3, 0.4]).points.shape == (2, 2)
        assert dp_of(q2, 0.1, np.zeros((0, 1))).points.shape == (0, 2)

    def test_feasible_point_satisfies_discretization(self, prob_b):
        res = solve_discretized(dp_of(prob_b, 1.0, [[0.0], [1.0]]), 1e-8)
        assert res.status is SolveStatus.FEASIBLE
        for y in ([0.0], [1.0]):
            assert prob_b.constraints[0].value(res.x, y) <= -1.0 + 1e-9
        assert res.upper == pytest.approx(8.0, abs=1e-6)


class TestSandwich:
    def test_instance_a_against_brute_force(self, prob_a):
        for eps in (0.5, 0.1):
            res = solve_discretized(dp_of(prob_a, eps, [[1.0], [0.5]]), 1e-9)
            brute, _ = grid_min_1d(
                lambda x: x * x if x <= -eps + 1e-12 else np.inf, -2.0, 2.0
            )
            assert res.lower <= brute + 1e-9
            assert brute <= res.upper + 4.0 * 4.0 / 20000 + 1e-9

    def test_relaxation_monotonic_in_points(self, prob_a):
        small = solve_discretized(dp_of(prob_a, 0.2, [[0.5]]), 1e-10)
        large = solve_discretized(dp_of(prob_a, 0.2, [[0.5], [1.0]]), 1e-10)
        assert large.upper >= small.upper - 1e-9

    def test_relaxation_monotonic_in_eps(self, prob_a):
        tight = solve_discretized(dp_of(prob_a, 0.5, [[1.0]]), 1e-10)
        loose = solve_discretized(dp_of(prob_a, 0.1, [[1.0]]), 1e-10)
        assert loose.upper <= tight.upper + 1e-9

    @pytest.mark.parametrize("route", ["qp", "kelley"])
    def test_random_instances_sandwich(self, route):
        count = 0
        for seed in range(40):
            prob = random_affine_instance(seed)
            if prob.x_domain.dim > 2:
                continue
            if route == "kelley":
                prob = replace(prob, objective=without_form(prob.objective))
            count += 1
            pts = prob.y_domain.grid(prob.y_domain.diameter() / 2 + 1e-9)[:3]
            res = solve_discretized(dp_of(prob, 0.2, pts), 1e-6)
            if res.status is not SolveStatus.FEASIBLE:
                continue
            assert res.upper - res.lower <= max(1e-6, res.gap_floor)
            assert_brute_force_sandwich(prob, 0.2, pts, res)
        assert count >= 10


def assert_brute_force_sandwich(prob, eps, pts, res):
    """[lower, upper] brackets the minimum over a grid of the box, using the
    affine-in-x structure of random_affine_instance; no-op if no grid point
    is feasible."""
    n = 2001 if prob.x_domain.dim == 1 else 201
    axes = [
        np.linspace(prob.x_domain.lower[j], prob.x_domain.upper[j], n)
        for j in range(prob.x_domain.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=-1)
    feas = np.ones(len(X), dtype=bool)
    origin = np.zeros(prob.x_domain.dim)
    for fam in prob.constraints:
        for y in pts:
            a = fam.subgradient_x(origin, y)
            b = fam.value(origin, y)
            feas &= X @ a + b <= -eps + 1e-9
    if not feas.any():
        return
    vals = np.array([prob.objective.value(x) for x in X[feas]])
    brute = float(vals.min())
    h = max(float(a[1] - a[0]) for a in axes)
    lip = prob.objective.lipschitz_constant
    assert res.lower <= brute + 1e-8
    assert brute <= res.upper + lip * h + 1e-8


def without_form(objective):
    """The same objective as bare oracles, which the Kelley route solves."""
    return replace(objective, quadratic=None)


class TestMasterRoutes:
    def test_quadratic_route_makes_no_lp(self, prob_b, monkeypatch):
        calls = []
        inner = finite_solver.simplex.solve_lp
        monkeypatch.setattr(
            finite_solver.simplex, "solve_lp",
            lambda *a, **k: calls.append(1) or inner(*a, **k),
        )
        pool = CutPool()
        # the hint is feasible, so phase 1 makes no LP either
        res = solve_discretized(dp_of(prob_b, 0.5, [[0.0], [1.0]]), 1e-10,
                                x_hint=[-3.0, -3.0], pool=pool)
        assert res.status is SolveStatus.FEASIBLE
        assert calls == []
        # the QP reads no epigraph cuts, so none are built
        assert pool.objective == {}
        assert res.x == pytest.approx([-1.5, -1.5], abs=1e-9)
        assert res.upper - res.lower <= 1e-10

    def test_semidefinite_form_stays_on_kelley(self, prob_b, monkeypatch):
        form = QuadraticForm(Q=np.diag([1.0, 0.0]), c=np.array([0.0, 1.0]), d=0.0)
        objective = ConvexObjective.from_quadratic(form, prob_b.x_domain)
        assert objective.quadratic is form and form.factor is None
        assert not form.positive_definite
        monkeypatch.setattr(finite_solver.qp, "solve_box_qp", TestNumericalFailure.broken)
        prob = replace(prob_b, objective=objective)
        res = solve_discretized(dp_of(prob, 0.5, [[0.0], [1.0]]), 1e-8,
                                x_hint=[-3.0, -3.0])
        assert res.status is SolveStatus.FEASIBLE
        # min x_1^2 + x_2 with x <= -1.5 componentwise on [-3, 3]^2
        assert res.upper == pytest.approx(2.25 - 3.0, abs=1e-7)

    def test_oracle_only_objective_sandwich(self, prob_b):
        # f(x) = sum exp(x_j) + exp(-sum x_j), unconstrained minimum at 0,
        # so the cuts x_j <= -1 - eps are active at the optimum
        def value(x):
            return float(np.sum(np.exp(x)) + np.exp(-np.sum(x)))

        def subgradient(x):
            return np.exp(x) - np.exp(-np.sum(x))

        lip = 2.0 * np.exp(3.0) + 2.0 * np.exp(6.0)
        prob = replace(
            prob_b, objective=ConvexObjective(value, subgradient, lip)
        )
        eps = 0.1
        pts = [[0.0], [0.5], [1.0]]
        res = solve_discretized(dp_of(prob, eps, pts), 1e-8)
        assert res.status is SolveStatus.FEASIBLE
        assert res.lp_iters > 0
        axis = np.linspace(-3.0, 3.0, 601)
        X = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], -1)
        feas = np.ones(len(X), dtype=bool)
        for y in pts:
            feas &= y[0] * X[:, 0] + (1.0 - y[0]) * X[:, 1] + 1.0 <= -eps + 1e-12
        vals = np.exp(X[feas]).sum(axis=1) + np.exp(-X[feas].sum(axis=1))
        brute = float(vals.min())
        assert res.lower <= brute + 1e-9
        # the true minimum is within lip * h of the grid minimum
        assert brute <= res.upper + lip * float(axis[1] - axis[0]) + 1e-9
        assert res.upper - res.lower <= 1e-8

    def test_kelley_and_qp_intervals_overlap(self):
        count = 0
        for seed in range(40):
            prob = random_affine_instance(seed)
            if prob.x_domain.dim > 2:
                continue
            count += 1
            oracle_only = replace(prob, objective=without_form(prob.objective))
            pts = prob.y_domain.grid(prob.y_domain.diameter() / 2 + 1e-9)[:3]
            pool = CutPool()
            qp_res = solve_discretized(dp_of(prob, 0.2, pts), 1e-6, pool=pool)
            lp_res = solve_discretized(dp_of(oracle_only, 0.2, pts), 1e-6)
            assert qp_res.status is lp_res.status, seed
            assert pool.objective == {}, seed
            if qp_res.status is not SolveStatus.FEASIBLE:
                continue
            # an upper bound is f at a point that may violate the rows by
            # FEASTOL, so it can sit a multiplier times FEASTOL below the
            # certified lower bound of the exact problem
            slack = 1e-8 * (1.0 + abs(qp_res.upper))
            assert max(qp_res.lower, lp_res.lower) <= min(qp_res.upper, lp_res.upper) + slack, seed
            assert qp_res.upper - qp_res.lower <= 1e-6
        assert count >= 10

    @pytest.mark.parametrize("route", ["qp", "kelley"])
    def test_feasible_lower_never_above_upper(self, route):
        # on this instance the certified lower bound of the exact rows lies
        # above f at the returned point, which may violate them by FEASTOL
        prob = random_affine_instance(11)
        if route == "kelley":
            prob = replace(prob, objective=without_form(prob.objective))
        pts = prob.y_domain.grid(prob.y_domain.diameter() / 2 + 1e-9)[:3]
        res = solve_discretized(dp_of(prob, 0.2, pts), 1e-6)
        assert res.status is SolveStatus.FEASIBLE
        assert res.lower <= res.upper
        assert res.upper - res.lower <= 1e-6

    def test_kelley_incumbent_on_a_curved_constraint(self):
        # g(x, y) = exp(a(y).x) + |x|^2 / 4 - 1.4 with a(y) = W y + 0.3: the
        # masters' points violate g until the cuts are tight, so the Kelley
        # route gets its incumbents from the restoration line search.
        # Without it this solve spends all its masters and ends UNDECIDED.
        w = np.array([-0.157, -0.124, -0.732])

        def g(x, y):
            return float(np.exp((w * y[0] + 0.3) @ x) + x @ x / 4 - 1.4)

        def grad(x, y):
            a = w * y[0] + 0.3
            return np.exp(a @ x) * a + x / 2

        y_box = BoxDomain(np.zeros(1), np.ones(1))
        form = QuadraticForm(
            np.array([[0.795, -0.142, 0.469], [-0.142, 0.474, -0.178],
                      [0.469, -0.178, 1.027]]),
            np.array([-0.463, 0.799, 2.805]), 0.0,
        )
        x_box = BoxDomain(-np.ones(3), np.ones(3))
        prob = SipProblem(
            x_box, y_box, without_form(ConvexObjective.from_quadratic(form, x_box)),
            (ConstraintFamily(0, g, grad, 10.0, y_box),),
        )
        res = solve_discretized(dp_of(prob, 0.05, np.linspace(0, 1, 11)), 0.1)
        assert res.status is SolveStatus.FEASIBLE
        assert res.lp_iters <= 100


class TestCutPool:
    def test_caps_hold_on_a_kelley_solve(self, monkeypatch):
        monkeypatch.setattr(finite_solver, "MAX_OBJECTIVE_CUTS", 4)
        monkeypatch.setattr(finite_solver, "MAX_CONSTRAINT_CUTS", 6)
        sizes = []
        inner = CutPool.prune

        def prune(pool, x_ref):
            before = (len(pool.objective), len(pool.constraint))
            inner(pool, x_ref)
            sizes.append((before, (len(pool.objective), len(pool.constraint))))

        monkeypatch.setattr(CutPool, "prune", prune)
        prob = random_affine_instance(1)
        prob = replace(prob, objective=without_form(prob.objective))
        pts = prob.y_domain.grid(prob.y_domain.diameter() / 4 + 1e-9)
        pool = CutPool()
        res = solve_discretized(dp_of(prob, 0.2, pts), 1e-6, pool=pool)
        assert any(b[0] > 4 or b[1] > 6 for b, _ in sizes)  # prune shed cuts
        assert all(a[0] <= 4 and a[1] <= 6 for _, a in sizes)
        # the last iterate's cuts arrive after the last prune: one objective
        # cut per offered point (the iterate or its restoration), and
        # CUTS_PER_ITERATE constraint cuts
        assert len(pool.objective) <= 4 + 2
        assert len(pool.constraint) <= 6 + finite_solver.CUTS_PER_ITERATE
        assert res.status is SolveStatus.FEASIBLE
        assert res.upper - res.lower <= 1e-6
        assert_brute_force_sandwich(prob, 0.2, pts, res)

    def test_cuts_of_dropped_points_go(self, prob_a):
        # a pool left by a solve on y = 1 (x <= -eps) reused on y = 0, where
        # the constraint is inactive: its stale cuts once kept the solve at
        # the hint, FEASIBLE at x = 0.4 with lower 0.16 above the optimum 0
        pool = CutPool()
        solve_discretized(dp_of(prob_a, 0.5, [[1.0]]), 1e-10, pool=pool)
        res = solve_discretized(
            dp_of(prob_a, 0.5, [[0.0]]), 1e-10, x_hint=np.array([0.4]), pool=pool
        )
        assert res.status is SolveStatus.FEASIBLE
        assert res.lower <= 0.0 + 1e-12
        assert res.x[0] == pytest.approx(0.0, abs=1e-6)
        assert all(key[1] == np.zeros(1).tobytes() for key in pool.constraint)

    def test_prune_keeps_the_tightest_cuts_in_order(self, monkeypatch):
        monkeypatch.setattr(finite_solver, "MAX_OBJECTIVE_CUTS", 2)
        pool = CutPool()
        for a, b in [(1.0, 0.0), (2.0, 1.0), (-1.0, 3.0), (3.0, 1.0), (0.5, 2.0)]:
            pool.add_objective(np.array([a]), b)
        # values at x = 1: 1, 3, 2, 4, 2.5
        pool.prune(np.array([1.0]))
        assert [float(a[0]) for a, _ in pool.objective.values()] == [3.0, 2.0]


class TestTopViolations:
    """The cuts of an iterate come from its CUTS_PER_ITERATE largest
    violations, by value descending and then (family, point)."""

    @pytest.mark.parametrize(
        "values",
        [
            [[0.5, -1.0, 2.0, 0.1]],
            [[1.0, 0.0], [1.0, 3.0], [0.0, 1.0]],
            # more than 12 entries, all tied: the first three in row order
            np.zeros((3, 6)),
            # more than 12 entries, ties among the largest across families
            [[0.0, 2.0, 1.0, 2.0, 0.0, 0.0, 2.0], [2.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0]],
        ],
    )
    def test_largest_first_ties_in_family_point_order(self, values):
        values = np.asarray(values, dtype=float)
        ni, nj = values.shape
        expected = sorted(
            ((i, j) for i in range(ni) for j in range(nj)),
            key=lambda ij: (-values[ij], ij),
        )[: finite_solver.CUTS_PER_ITERATE]
        assert finite_solver._top_violations(values) == expected


class TestSlaterAnchor:
    """Phase 1 tries the hint, then the problem's Slater point, and only
    then solves LPs."""

    @staticmethod
    def lp_calls(monkeypatch):
        calls = []
        inner = finite_solver.simplex.solve_lp

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(finite_solver.simplex, "solve_lp", counted)
        return calls

    def test_slater_point_that_meets_the_rows_needs_no_lp(self, prob_a, monkeypatch):
        # the box center x = 0 violates x <= -0.1; x_s = -2 meets it
        monkeypatch.setattr(finite_solver.simplex, "solve_lp", TestNumericalFailure.broken)
        res = solve_discretized(dp_of(prob_a, 0.1, [[1.0]]), 1e-8)
        assert res.status is SolveStatus.FEASIBLE
        assert res.x[0] == pytest.approx(-0.1, abs=1e-7)

    def test_hint_that_meets_the_rows_is_tried_alone(self, prob_a, monkeypatch):
        seen = []
        inner = finite_solver._batch_values

        def recorded(dp, x):
            seen.append(float(x[0]))
            return inner(dp, x)

        monkeypatch.setattr(finite_solver, "_batch_values", recorded)
        solve_discretized(dp_of(prob_a, 0.1, [[1.0]]), 1e-8, x_hint=[-0.5])
        assert seen[0] == -0.5 and -2.0 not in seen

    def test_slater_point_above_its_margin_goes_on_to_the_lp(self, prob_a, monkeypatch):
        # x_s = -1 has margin 1 on y = 1; at eps 1.5 neither it nor the
        # center meets x <= -1.5, so phase 1 solves an LP
        calls = self.lp_calls(monkeypatch)
        prob = replace(prob_a, slater_point=np.array([-1.0]))
        res = solve_discretized(dp_of(prob, 1.5, [[1.0]]), 1e-8)
        assert calls
        assert res.status is SolveStatus.FEASIBLE
        assert res.x[0] == pytest.approx(-1.5, abs=1e-7)

    def test_infeasible_rows_are_still_certified(self, prob_a, monkeypatch):
        # at eps 2.5 no x in [-2, 2] meets x <= -2.5: x_s = -2 fails, and
        # the LP certifies the rows infeasible
        calls = self.lp_calls(monkeypatch)
        res = solve_discretized(dp_of(prob_a, 2.5, [[1.0]]), 1e-8)
        assert calls
        assert res.status is SolveStatus.INFEASIBLE
        assert res.violation_bound > -2.5


class TestNumericalFailure:
    @staticmethod
    def broken(*args, **kwargs):
        raise NumericalError("broken master")

    def test_phase_2_failure_is_undecided(self, prob_b, monkeypatch):
        monkeypatch.setattr(finite_solver.qp, "solve_box_qp", self.broken)
        res = solve_discretized(dp_of(prob_b, 0.5, [[0.0], [1.0]]), 1e-8,
                                x_hint=[-3.0, -3.0])
        assert res.status is SolveStatus.UNDECIDED
        # the anchor was offered before the master failed
        assert res.x == pytest.approx([-3.0, -3.0])
        assert res.upper == pytest.approx(18.0)
        assert res.lower == -np.inf

    def test_phase_1_failure_is_undecided(self, prob_a, monkeypatch):
        monkeypatch.setattr(finite_solver.simplex, "solve_lp", self.broken)
        # the box center x = 0 violates x <= -0.1, and without the Slater
        # point x = -2 phase 1 needs an LP
        bare = replace(prob_a, slater_point=None)
        res = solve_discretized(dp_of(bare, 0.1, [[1.0]]), 1e-8)
        assert res.status is SolveStatus.UNDECIDED
        assert res.x is None
        assert (res.lower, res.upper) == (-np.inf, np.inf)

    def test_kelley_failure_is_undecided(self, prob_a, monkeypatch):
        monkeypatch.setattr(finite_solver.simplex, "solve_lp", self.broken)
        prob = replace(prob_a, objective=without_form(prob_a.objective))
        res = solve_discretized(dp_of(prob, 0.1, [[1.0]]), 1e-8, x_hint=[-1.0])
        assert res.status is SolveStatus.UNDECIDED
        assert res.x == pytest.approx([-1.0])


class TestGridBracket:
    """A finite solve against the minimum over the feasible points of an x
    grid.  Every feasible grid point is feasible for the discretized
    problem, so both bounds compare with the grid minimum directly: no
    Lipschitz slack enters, only float roundoff."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 39).filter(lambda s: random_affine_instance(s).x_domain.dim <= 2),
        st.integers(1, 4),
        st.integers(0, 2**16),
        st.sampled_from([0.0, 0.1]),
    )
    def test_bounds_bracket_the_grid_minimum(self, seed, n_points, points_seed, eps):
        prob = random_affine_instance(seed)
        X, Y = prob.x_domain, prob.y_domain
        pts = Y.lower + np.random.default_rng(points_seed).random((n_points, Y.dim)) * Y.widths
        gap_tol = 1e-6
        res = solve_discretized(dp_of(prob, eps, pts), gap_tol)
        assume(res.status is not SolveStatus.UNDECIDED)

        n = 2001 if X.dim == 1 else 201
        axes = [np.linspace(X.lower[j], X.upper[j], n) for j in range(X.dim)]
        grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        feas = np.ones(len(grid), dtype=bool)
        origin = np.zeros(X.dim)
        for fam in prob.constraints:  # g is affine in x
            for y in pts:
                a, b = fam.subgradient_x(origin, y), fam.value(origin, y)
                feas &= grid @ a + b <= -eps
        if res.status is SolveStatus.INFEASIBLE:
            assert not feas.any()
            return
        assert res.status is SolveStatus.FEASIBLE
        if not feas.any():
            return
        form = prob.objective.quadratic
        g = grid[feas]
        grid_min = float(np.min(np.einsum("ij,jk,ik->i", g, form.Q, g) + g @ form.c + form.d))
        roundoff = 1e-9 * (1.0 + abs(grid_min))
        assert res.lower <= grid_min + roundoff
        assert res.upper <= grid_min + max(gap_tol, res.gap_floor) + roundoff
