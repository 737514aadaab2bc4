import json
from dataclasses import replace

import numpy as np
import pytest

from sipsolve.errors import InputError
from sipsolve.problem import BoxDomain
from sipsolve.regression import (
    RegressionSpec,
    ShapeConstraint,
    assemble_loss,
    build_problem,
    convex_1d,
    eval_polynomial_derivative,
    monotone_increasing,
    synthesize_slater_point,
)


class TestBuildProblem:
    def test_instance_r_assembly(self, spec_r):
        prob = build_problem(spec_r)
        # f(w) = (w0 - 1)^2 + (w0 + w1)^2 + ridge |w|^2
        for w in ([0.0, 0.0], [1.0, -1.0], [0.5, 0.25]):
            w = np.array(w)
            expected = (w[0] - 1) ** 2 + (w[0] + w[1]) ** 2 + 1e-6 * w @ w
            assert prob.objective.value(w) == pytest.approx(expected)
        # g(w, u) = -w1, constant in u
        g = prob.constraints[0]
        assert g.value(np.array([3.0, -2.0]), np.array([0.3])) == pytest.approx(2.0)
        assert g.lipschitz_in_y == 0.0

    def test_degree2_convexity_constraint(self):
        spec = RegressionSpec(
            data=np.array([[0.0, 0.0], [0.5, 0.3], [1.0, 1.0]]),
            degree=2,
            coeff_box=BoxDomain([-5.0] * 3, [5.0] * 3),
            u_domain=BoxDomain([0.0], [1.0]),
            shape_constraints=(convex_1d(),),
            slater_point=np.array([0.0, 0.0, 1.0]),
        )
        prob = build_problem(spec)
        # -v''(u) = -2 w2, constant in u
        g = prob.constraints[0]
        assert g.value(np.array([0.0, 0.0, 3.0]), np.array([0.7])) == pytest.approx(-6.0)
        assert g.lipschitz_in_y == 0.0

    def test_degree3_monotonicity_lipschitz(self):
        spec = RegressionSpec(
            data=np.array([[0.0, 0.0], [1.0, 1.0]]),
            degree=3,
            coeff_box=BoxDomain([-10.0] * 4, [10.0] * 4),
            u_domain=BoxDomain([0.0], [1.0]),
            shape_constraints=(monotone_increasing(dim=1),),
            slater_point=np.array([0.0, 1.0, 0.0, 0.0]),
        )
        prob = build_problem(spec)
        g = prob.constraints[0]
        # g(w, u) = -(w1 + 2 w2 u + 3 w3 u^2), genuinely u-dependent
        w = np.array([0.0, 1.0, 2.0, 3.0])
        assert g.value(w, np.array([0.5])) == pytest.approx(-(1 + 2 + 2.25))
        # coefficient-wise bound: 2 |w2|max + 6 |w3|max on U = [0, 1]
        assert g.lipschitz_in_y == pytest.approx(2 * 10 + 6 * 10)

    def test_requires_constraint(self, spec_r):
        with pytest.raises(InputError):
            build_problem(
                RegressionSpec(
                    data=spec_r.data,
                    degree=1,
                    coeff_box=spec_r.coeff_box,
                    u_domain=spec_r.u_domain,
                )
            )

    def test_rejects_overdeep_derivative(self):
        with pytest.raises(InputError):
            RegressionSpec(
                data=np.array([[0.0, 0.0]]),
                degree=1,
                coeff_box=BoxDomain([-1.0, -1.0], [1.0, 1.0]),
                u_domain=BoxDomain([0.0], [1.0]),
                shape_constraints=(convex_1d(),),  # order 2 > degree 1
            )

    def test_rejects_empty_data(self):
        with pytest.raises(InputError):
            RegressionSpec(
                data=np.zeros((0, 2)),
                degree=1,
                coeff_box=BoxDomain([-1.0, -1.0], [1.0, 1.0]),
                u_domain=BoxDomain([0.0], [1.0]),
            )

    def test_gradient_matches_finite_differences(self, spec_r):
        prob = build_problem(spec_r)
        rng = np.random.default_rng(2)
        for _ in range(30):
            w = rng.uniform(-2, 2, 2)
            g = prob.objective.subgradient(w)
            h = 1e-6
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (prob.objective.value(w + e) - prob.objective.value(w - e)) / (
                    2 * h
                )
                assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestSlaterSynthesis:
    def test_zero_candidate_fails_monotone(self, spec_r, tmp_path, monkeypatch):
        # README's regression example without its slater_point: w = 0 gives
        # g = 0, not strictly negative, so a vertex must be found; its one
        # certificate is made during synthesis and kept by the problem
        from sipsolve import lower_level
        from sipsolve.problem import SLATER_DELTA
        from sipsolve.serialization import load_problem

        calls = []
        inner = lower_level.certified_max

        def counting(families, x, delta):
            calls.append((np.array(x, dtype=float), delta))
            return inner(families, x, delta)

        monkeypatch.setattr(lower_level, "certified_max", counting)
        path = tmp_path / "monotone.json"
        path.write_text(json.dumps({
            "type": "regression",
            "data": spec_r.data.tolist(),
            "degree": 1,
            "u_box": {"lower": [0.0], "upper": [1.0]},
            "coeff_box": {"lower": [-10.0, -10.0], "upper": [10.0, 10.0]},
            "ridge": 1e-6,
            "constraints": [{"weights": [[[1], -1.0]], "offset": 0.0}],
        }))
        prob = load_problem(path)
        w = prob.slater_point
        assert w is not None and w.any()
        assert np.allclose([x for x, _ in calls], [[0, 0], [-9.9, -9.9], [-9.9, 9.9]])
        assert all(delta == SLATER_DELTA for _, delta in calls)
        assert sum(np.array_equal(x, w) for x, _ in calls) == 1
        assert "eps_star" in vars(prob)
        assert prob.eps_star == w[1] - SLATER_DELTA  # g(w, u) = -w1

    def test_synthesis_finds_inward_vertex(self, spec_r):
        spec = RegressionSpec(
            data=spec_r.data,
            degree=1,
            coeff_box=spec_r.coeff_box,
            u_domain=spec_r.u_domain,
            shape_constraints=spec_r.shape_constraints,
            slater_point=None,
        )
        prob = build_problem(spec)
        assert prob.slater_point is not None
        g = prob.constraints[0]
        assert g.value(prob.slater_point, np.array([0.5])) < 0

    def test_synthesized_point_passes_the_regularity_certificate(self, spec_r):
        # synthesis accepts a candidate by its eps_star, so the problem
        # returned carries that certificate and never makes another
        prob = build_problem(replace(spec_r, slater_point=None))
        assert vars(prob)["eps_star"] > 0

    def test_no_candidate_returns_none(self):
        # constraint 1 <= 0 can never be strictly satisfied
        spec = RegressionSpec(
            data=np.array([[0.5, 0.0]]),
            degree=1,
            coeff_box=BoxDomain([-1.0, -1.0], [1.0, 1.0]),
            u_domain=BoxDomain([0.0], [1.0]),
            shape_constraints=(
                ShapeConstraint(weights={(1,): 0.0}, offset=1.0),
            ),
        )
        prob = build_problem(spec)
        assert prob.slater_point is None
        assert synthesize_slater_point(spec, prob) is prob


class TestEvalPolynomialDerivative:
    def test_linear(self):
        assert eval_polynomial_derivative([1.0, 2.0], (1,), [0.3]) == pytest.approx(2.0)

    def test_second_derivative_of_square(self):
        # v(u) = u^2 in the degree-2 basis
        assert eval_polynomial_derivative([0.0, 0.0, 1.0], (2,), [0.9]) == pytest.approx(2.0)

    def test_mixed_partial(self):
        # v(u1, u2) = u1 u2: basis (2, 1) -> [1, u2, u1, u2^2, u1 u2, u1^2]
        w = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        assert eval_polynomial_derivative(w, (1, 1), [0.2, 0.7]) == pytest.approx(1.0)

    def test_out_of_range(self):
        with pytest.raises(InputError):
            eval_polynomial_derivative([1.0, 2.0], (2,), [0.3])

    def test_against_finite_differences(self):
        rng = np.random.default_rng(7)
        from sipsolve.polynomials import PolynomialBasis

        for _ in range(100):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(1, 4))
            basis = PolynomialBasis(d, n)
            w = rng.uniform(-2, 2, basis.size)
            u = rng.uniform(0.2, 0.8, d)
            order = int(rng.integers(1, n + 1))
            axis = int(rng.integers(0, d))
            alpha = tuple(order if j == axis else 0 for j in range(d))
            h = 1e-4
            if order == 1:
                e = np.zeros(d)
                e[axis] = h
                fd = (basis.eval(w, u + e) - basis.eval(w, u - e)) / (2 * h)
            elif order == 2:
                e = np.zeros(d)
                e[axis] = h
                fd = (
                    basis.eval(w, u + e) - 2 * basis.eval(w, u) + basis.eval(w, u - e)
                ) / h**2
            else:
                e = np.zeros(d)
                e[axis] = h
                fd = (
                    basis.eval(w, u + 2 * e)
                    - 2 * basis.eval(w, u + e)
                    + 2 * basis.eval(w, u - e)
                    - basis.eval(w, u - 2 * e)
                ) / (2 * h**3)
            exact = eval_polynomial_derivative(w, alpha, u)
            assert exact == pytest.approx(fd, rel=1e-4, abs=1e-3)


def test_loss_quadratic_form(spec_r):
    loss = assemble_loss(spec_r)
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = rng.uniform(-3, 3, 2)
        direct = sum(
            (np.dot(w, [1.0, u]) - t) ** 2 for u, t in spec_r.data
        ) + spec_r.ridge * w @ w
        assert loss.value(w) == pytest.approx(direct)
