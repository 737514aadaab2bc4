from dataclasses import replace

import numpy as np
import pytest

from sipsolve.drivers import compute_termination_index
from sipsolve.errors import InputError
from sipsolve.instances import instance_a, instance_b, quasiconvex_gap
from sipsolve.problem import (
    SLATER_DELTA,
    BoxDomain,
    ConvexObjective,
    QuadraticForm,
    derive_eps_star,
    feasibility_margin,
    validate_problem,
)


class TestConvexObjective:
    def test_no_declared_convexity_flag(self):
        # the finite solver's route follows the quadratic form itself
        with pytest.raises(TypeError):
            ConvexObjective(
                lambda x: 0.0, lambda x: np.zeros(1), 1.0, strictly_convex=True
            )
        form = QuadraticForm(Q=np.eye(1), c=np.zeros(1), d=0.0)
        objective = ConvexObjective.from_quadratic(form, BoxDomain([-2.0], [2.0]))
        assert objective.quadratic is form and form.positive_definite

    def test_quadratic_derives_its_lipschitz_constant(self):
        # the constants the builtins once declared by hand, bit for bit
        assert instance_a().objective.lipschitz_constant == 4.0
        assert instance_b().objective.lipschitz_constant == 12.0
        assert quasiconvex_gap().objective.lipschitz_constant == 8.0

    @pytest.mark.parametrize("lip", [0.0, -1.0, np.nan, np.inf])
    def test_lipschitz_constant_positive_and_finite(self, lip):
        with pytest.raises(InputError, match="Lipschitz"):
            ConvexObjective(lambda x: 0.0, lambda x: np.zeros(1), lip)


@pytest.mark.parametrize(
    "eps_star, lip",
    [(np.nan, 4.0), (np.inf, 4.0), (0.0, 4.0), (2.0, np.nan), (2.0, np.inf), (2.0, 0.0)],
)
def test_regularity_bundle_positive_and_finite(eps_star, lip):
    # the two checks of the former regularity bundle, now where the stage
    # count m* reads eps* and the objective's Lipschitz constant
    with pytest.raises(InputError):
        compute_termination_index(0.1, eps_star, lip, 4.0, 1.0, 2.0, lambda k: 0.0)


class TestBoxDomain:
    def test_dimensions_and_diameter(self):
        box = BoxDomain(lower=[-2.0, 0.0], upper=[2.0, 1.0])
        assert box.dim == 2
        assert box.diameter() == 4.0
        assert box.contains([0.0, 0.5])
        assert not box.contains([3.0, 0.5])

    def test_rejects_crossed_bounds(self):
        with pytest.raises(InputError):
            BoxDomain(lower=[1.0], upper=[0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            BoxDomain(lower=[-np.inf], upper=[0.0])

    def test_grid_includes_corners(self):
        box = BoxDomain(lower=[0.0], upper=[1.0])
        g = box.grid(0.25)
        assert g[0, 0] == 0.0 and g[-1, 0] == 1.0
        assert np.max(np.diff(g[:, 0])) <= 0.25 + 1e-15


class TestFeasibilityMargin:
    def test_instance_a_at_zero(self, prob_a):
        # sup_y g(0, y) = 0 attained at y = 1; grid hits the endpoint
        m = feasibility_margin(prob_a, [0.0], 1e-3)
        assert -1e-3 * 1.0 <= m <= 0.0

    def test_instance_a_negative_point(self, prob_a):
        m = feasibility_margin(prob_a, [-0.1], 1e-3)
        assert abs(m - (-0.1)) <= 1e-3

    def test_instance_b_boundary_point(self, prob_b):
        # brute force: g((-1,-1), y) = -y - (1-y) + 1 = 0 for every y
        m = feasibility_margin(prob_b, [-1.0, -1.0], 1e-3)
        assert abs(m) <= 1e-9

    def test_dimension_mismatch(self, prob_a):
        with pytest.raises(InputError):
            feasibility_margin(prob_a, [0.0, 0.0], 1e-3)

    def test_refinement_stays_within_band(self, prob_a):
        # finer grids can only move the estimate within the Lipschitz band
        coarse = feasibility_margin(prob_a, [0.3], 1e-2)
        fine = feasibility_margin(prob_a, [0.3], 1e-4)
        lip = prob_a.constraints[0].lipschitz_in_y
        assert fine >= coarse - 1e-12
        assert fine - coarse <= lip * 1e-2 + 1e-12


class TestDeriveEpsStar:
    def test_instance_a(self, prob_a):
        # sup_y g(-2, y) = -2 by endpoint evaluation
        assert abs(derive_eps_star(prob_a) - 2.0) <= 1e-5

    def test_instance_b(self, prob_b):
        # max(x1+1, x2+1) at (-3,-3) is -2
        assert abs(derive_eps_star(prob_b) - 2.0) <= 1e-5

    def test_missing_slater_point(self, prob_a):
        from sipsolve.problem import SipProblem

        bare = SipProblem(
            x_domain=prob_a.x_domain,
            y_domain=prob_a.y_domain,
            objective=prob_a.objective,
            constraints=prob_a.constraints,
            slater_point=None,
        )
        with pytest.raises(InputError):
            derive_eps_star(bare)

    def test_margin_consistent_with_eps_star(self, prob_a):
        eps_star = derive_eps_star(prob_a)
        m = feasibility_margin(prob_a, prob_a.slater_point, 1e-4)
        assert m <= -eps_star + 1e-9


class TestRegularity:
    """problem.eps_star is derive_eps_star's certificate, made once per
    problem object."""

    @staticmethod
    def count_certificates(monkeypatch):
        from sipsolve import lower_level

        deltas = []
        inner = lower_level.certified_max

        def counting(families, x, delta):
            deltas.append(delta)
            return inner(families, x, delta)

        monkeypatch.setattr(lower_level, "certified_max", counting)
        return deltas

    def test_second_read_is_cached(self, monkeypatch):
        # a problem of its own: the session fixtures may carry a certificate
        prob = instance_a()
        deltas = self.count_certificates(monkeypatch)
        first = prob.eps_star
        assert deltas == [SLATER_DELTA]
        assert prob.eps_star is first
        assert deltas == [SLATER_DELTA]
        assert first == derive_eps_star(prob)

    def test_replace_certifies_afresh(self, monkeypatch):
        prob = instance_a()
        assert prob.eps_star == 2.0 - SLATER_DELTA
        deltas = self.count_certificates(monkeypatch)
        moved = replace(prob, slater_point=np.array([-1.5]))
        # sup_y g(-1.5, y) = -1.5
        assert moved.eps_star == 1.5 - SLATER_DELTA
        assert deltas == [SLATER_DELTA]

    def test_failure_is_not_cached(self, monkeypatch):
        prob = replace(instance_a(), slater_point=np.array([0.0]))  # sup_y g = 0
        deltas = self.count_certificates(monkeypatch)
        for _ in range(2):
            with pytest.raises(InputError, match="slater point"):
                prob.eps_star
        assert deltas == [SLATER_DELTA] * 2


class TestOracleValidation:
    @pytest.mark.parametrize("build", [instance_a])
    def test_clean_instances_pass(self, build):
        report = validate_problem(build())
        assert report.ok, report.failures

    def test_detects_per_point_lipschitz_below_the_truth(self):
        # instance B's value moves by |x0 - x1| over y in [0, 1]; a per-x
        # constant of a quarter of that passes a check against the uniform
        # constant 6, but certified_max uses the per-x one
        prob = instance_b()
        fam = replace(
            prob.constraints[0], lipschitz_in_y_at=lambda x: 0.25 * abs(float(x[0] - x[1]))
        )
        assert validate_problem(prob).ok
        report = validate_problem(replace(prob, constraints=(fam,)))
        assert not report.ok
        assert any("Lipschitz" in failure for failure in report.failures)

    def test_builtins_and_random_instances_pass(self):
        from sipsolve.instances import BUILTIN_BUILDERS, builtin, random_affine_instance

        for name in sorted(set(BUILTIN_BUILDERS) - {"quasiconvex_gap"}):
            assert validate_problem(builtin(name)).ok, name
        for seed in range(40):
            report = validate_problem(random_affine_instance(seed))
            assert report.ok, (seed, report.failures)
            assert report.second_order_violation <= 1e-12

    def test_detects_a_second_order_bound_below_the_truth(self):
        # the random families are degree 2 in y, so their M is exact and
        # half of it falls short of some sampled Taylor remainder
        from conftest import halved_second_order

        from sipsolve.instances import random_affine_instance

        prob = random_affine_instance(0)
        fam = halved_second_order(prob.constraints[1])
        report = validate_problem(replace(prob, constraints=(prob.constraints[0], fam)))
        assert not report.ok
        assert report.failures == [
            f"second-order bound violated by {report.second_order_violation:.3e}"
        ]

    def test_nan_second_order_bound_fails(self):
        # max(0.0, nan) once kept 0.0: a NaN M passed with violation 0
        from sipsolve.instances import random_affine_instance

        def nan_m(fam):
            model = fam.second_order_in_y_at

            def mutated(x):
                grad, M = model(x)
                return grad, np.full_like(M, np.nan)

            return replace(fam, second_order_in_y_at=mutated)

        prob = random_affine_instance(4)
        report = validate_problem(
            replace(prob, constraints=tuple(nan_m(f) for f in prob.constraints))
        )
        assert not report.ok
        assert report.failures[0] == (
            f"constraint family {prob.constraints[0].index} returned a second-order "
            "bound M that is not finite and nonnegative"
        )
        assert len(report.failures) == len(prob.constraints)

    def test_nan_values_fail(self):
        prob = instance_a()
        fam = replace(prob.constraints[0], value=lambda x, y: np.nan)
        report = validate_problem(replace(prob, constraints=(fam,)))
        assert not report.ok
        assert np.isnan(report.convexity_violation)
        assert report.failures[0] == "convexity violated by nan"

    @pytest.mark.parametrize("lip", [np.nan, -1.0])
    def test_bad_per_x_lipschitz_constant_fails(self, lip):
        # the constant certified_max would use: reported once, not raised
        prob = instance_b()
        fam = replace(prob.constraints[0], lipschitz_in_y_at=lambda x: lip)
        report = validate_problem(replace(prob, constraints=(fam,)))
        assert not report.ok
        assert report.failures == [
            f"constraint family {fam.index} returned a per-x Lipschitz "
            f"constant {lip!r}; it must be nonnegative"
        ]

    def test_regression_instance_passes(self, spec_r):
        from sipsolve.regression import build_problem

        report = validate_problem(build_problem(spec_r))
        assert report.ok, report.failures

    def test_detects_broken_subgradient(self, prob_a):
        from sipsolve.problem import ConstraintFamily, SipProblem

        bad_family = ConstraintFamily(
            index=0,
            value=lambda x, y: float(x[0] + y[0] - 1.0),
            subgradient_x=lambda x, y: np.array([-5.0]),  # wrong slope
            lipschitz_in_y=1.0,
            y_domain=prob_a.y_domain,
        )
        bad = SipProblem(
            x_domain=prob_a.x_domain,
            y_domain=prob_a.y_domain,
            objective=prob_a.objective,
            constraints=(bad_family,),
        )
        report = validate_problem(bad)
        assert not report.ok

    def test_quasiconvex_fixture_fails_convexity(self, prob_gap):
        # the counterexample constraint is only quasi-convex by design
        report = validate_problem(prob_gap)
        assert not report.ok
