import numpy as np
import pytest

from conftest import grid_min_1d
from sipsolve.finite_solver import (
    DiscretizedProblem,
    SolveStatus,
    solve_discretized,
)
from sipsolve.instances import random_affine_instance


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
        assert res.violation_bound is not None and res.violation_bound > 0

    def test_empty_points_unconstrained(self, prob_a):
        res = solve_discretized(dp_of(prob_a, 0.5, np.zeros((0, 1))), 1e-10)
        assert res.status is SolveStatus.FEASIBLE
        assert res.upper == pytest.approx(0.0, abs=1e-10)

    def test_floor_applies_for_zero_request(self, prob_a):
        res = solve_discretized(dp_of(prob_a, 0.1, [[1.0]]), 0.0)
        assert res.status is SolveStatus.FEASIBLE
        assert res.gap_floor > 0.0
        assert res.upper - res.lower <= res.gap_floor + 1e-15

    def test_budget_exhaustion_is_undecided(self, prob_b):
        res = solve_discretized(dp_of(prob_b, 0.5, [[0.0], [1.0]]), 0.0, budget=1)
        assert res.status in (SolveStatus.UNDECIDED, SolveStatus.FEASIBLE)
        if res.status is SolveStatus.UNDECIDED:
            assert res.lower <= res.upper

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

    def test_random_instances_sandwich(self):
        count = 0
        for seed in range(40):
            prob = random_affine_instance(seed)
            if prob.x_domain.dim > 2:
                continue
            count += 1
            pts = prob.y_domain.grid(prob.y_domain.diameter() / 2 + 1e-9)[:3]
            res = solve_discretized(dp_of(prob, 0.2, pts), 1e-6)
            if res.status is not SolveStatus.FEASIBLE:
                continue
            # brute force over the box using the affine-in-x structure
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
                    feas &= X @ a + b <= -0.2 + 1e-9
            if not feas.any():
                continue
            vals = np.array([prob.objective.value(x) for x in X[feas]])
            brute = float(vals.min())
            h = max(float(a[1] - a[0]) for a in axes)
            lip = prob.objective.lipschitz_constant
            assert res.lower <= brute + 1e-8
            assert brute <= res.upper + lip * h + 1e-8
        assert count >= 10
