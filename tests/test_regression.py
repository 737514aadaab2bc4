import itertools
import json
from dataclasses import replace
from math import comb

import numpy as np
import pytest

from sipsolve.drivers import synthesize_slater_point
from sipsolve.errors import InputError
from sipsolve.problem import BoxDomain
from sipsolve.regression import (
    RegressionSpec,
    ShapeConstraint,
    assemble_loss,
    build_problem,
    constraint_coefficient_polys,
    convex_1d,
    monotone_increasing,
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
        # g = 0, not strictly negative, so the core loop must find a point;
        # its one certificate at SLATER_DELTA is made during synthesis and
        # kept by the problem
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
        assert w is not None and w[1] > 0
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], w) and calls[0][1] == SLATER_DELTA
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
        assert synthesize_slater_point(prob) is prob


def _spec(d, n, shape_constraints=()):
    """A degree-n model in d inputs on [0, 1]^d, one data point at 0."""
    size = comb(n + d, d)
    return RegressionSpec(
        data=np.zeros((1, d + 1)),
        degree=n,
        coeff_box=BoxDomain([-1.0] * size, [1.0] * size),
        u_domain=BoxDomain([0.0] * d, [1.0] * d),
        shape_constraints=shape_constraints,
    )


def _constraint_value(spec, sc, w, u):
    """sum_beta a_beta(u) w_beta + offset from the coefficient polynomials."""
    polys, offset = constraint_coefficient_polys(spec, sc)
    return sum(p(u) * wb for p, wb in zip(polys, w)) + offset


def _model(spec, w, u):
    return float(np.prod(np.asarray(u) ** spec.exponents, axis=1) @ w)


def _finite_difference(f, alpha, u, h):
    """d^alpha f(u) by the product of central differences of order alpha_j
    along each axis j."""
    total = 0.0
    for steps in itertools.product(*(range(a + 1) for a in alpha)):
        weight = np.prod([(-1) ** i * comb(a, i) for a, i in zip(alpha, steps)])
        shift = np.array([(a / 2 - i) * h for a, i in zip(alpha, steps)])
        total += weight * f(u + shift)
    return total / h ** sum(alpha)


class TestConstraintCoefficientPolys:
    def test_linear(self):
        sc = ShapeConstraint(weights={(1,): 1.0})
        assert _constraint_value(_spec(1, 1), sc, [1.0, 2.0], [0.3]) == 2.0

    def test_second_derivative_of_square(self):
        # v(u) = u^2 in the degree-2 model
        sc = ShapeConstraint(weights={(2,): 1.0})
        assert _constraint_value(_spec(1, 2), sc, [0.0, 0.0, 1.0], [0.9]) == 2.0

    def test_mixed_partial(self):
        # v(u1, u2) = u1 u2
        spec = _spec(2, 2)
        w = [float(tuple(b) == (1, 1)) for b in spec.exponents.tolist()]
        sc = ShapeConstraint(weights={(1, 1): 1.0})
        assert _constraint_value(spec, sc, w, [0.2, 0.7]) == 1.0

    def test_terms_in_order(self):
        # a zero constant term, then one term per dominated alpha in sorted
        # order: the family's exponent and coefficient arrays follow this
        sc = ShapeConstraint(weights={(2,): -1.0, (1,): -3.0}, offset=0.5)
        polys, offset = constraint_coefficient_polys(_spec(1, 2), sc)
        assert offset == 0.5
        assert [p.exponents.tolist() for p in polys] == [[[0]], [[0], [0]], [[0], [1], [0]]]
        assert [p.coeffs.tolist() for p in polys] == [[0.0], [0.0, -3.0], [0.0, -6.0, -2.0]]

    def test_against_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(1, 4))
            alphas = set()
            while len(alphas) < int(rng.integers(1, 3)):
                alpha = tuple(int(a) for a in rng.integers(0, n + 1, d))
                if 0 < sum(alpha) <= n:
                    alphas.add(alpha)
            weights = {alpha: float(rng.uniform(-2, 2)) for alpha in alphas}
            if trial % 3 == 0:
                weights[min(alphas)] = 0.0
            sc = ShapeConstraint(weights=weights, offset=float(rng.uniform(-1, 1)))
            spec = _spec(d, n, (sc,))
            w = rng.uniform(-2, 2, len(spec.exponents))
            u = rng.uniform(0.2, 0.8, d)
            expected = sc.offset + sum(
                weight * _finite_difference(lambda v: _model(spec, w, v), alpha, u, 1e-2)
                for alpha, weight in weights.items()
            )
            got = _constraint_value(spec, sc, w, u)
            assert got == pytest.approx(expected, rel=1e-4, abs=1e-3)

    @pytest.mark.parametrize("d, alpha", [(1, (2,)), (2, (1, 1)), (2, (0, 2))])
    def test_undominated_alpha_gives_zero_polynomials(self, d, alpha):
        # no monomial of a degree-1 model survives a second derivative
        spec = _spec(d, 1)
        polys, _ = constraint_coefficient_polys(spec, ShapeConstraint(weights={alpha: 1.0}))
        assert len(polys) == len(spec.exponents)
        for p in polys:
            assert p.exponents.tolist() == [[0] * d] and p.coeffs.tolist() == [0.0]

    def test_multi_index_of_another_dimension(self):
        with pytest.raises(InputError, match="dimension"):
            constraint_coefficient_polys(_spec(2, 2), ShapeConstraint(weights={(1,): 1.0}))


class TestSpecValidation:
    """RegressionSpec and ShapeConstraint reject bad numbers themselves,
    naming the field."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ridge", np.nan), ("ridge", np.inf), ("ridge", 0.0), ("ridge", -1.0),
            ("data", np.array([[0.0, np.nan]])), ("data", np.array([[np.inf, 1.0]])),
            ("degree", 1.5), ("degree", -1), ("degree", "1"),
        ],
    )
    def test_spec_field(self, spec_r, field, value):
        with pytest.raises(InputError, match=field):
            replace(spec_r, **{field: value})

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"weights": {(1,): np.nan}}, "weight"),
            ({"weights": {(1,): -np.inf}}, "weight"),
            ({"weights": {(1,): -1.0}, "offset": np.nan}, "offset"),
            ({"weights": {(1,): -1.0}, "offset": np.inf}, "offset"),
        ],
    )
    def test_shape_constraint_field(self, kwargs, field):
        with pytest.raises(InputError, match=field):
            ShapeConstraint(**kwargs)

    def test_numpy_integer_degree(self, spec_r):
        spec = replace(spec_r, degree=np.int64(1))
        assert spec.exponents.tolist() == [[0], [1]]
        assert assemble_loss(spec).Q.tolist() == assemble_loss(spec_r).Q.tolist()


def test_loss_quadratic_form(spec_r):
    loss = assemble_loss(spec_r)
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = rng.uniform(-3, 3, 2)
        direct = sum(
            (np.dot(w, [1.0, u]) - t) ** 2 for u, t in spec_r.data
        ) + spec_r.ridge * w @ w
        assert loss.value(w) == pytest.approx(direct)


def test_loss_matches_row_by_row_features():
    # the feature matrix is one array expression; built one data row at a
    # time with the same arithmetic, the form must have the same bits
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        spec = replace(
            _spec(d, int(rng.integers(0, 4))),
            data=rng.uniform(-2, 2, (int(rng.integers(1, 20)), d + 1)),
        )
        E = spec.exponents
        feats = np.stack([np.prod(u[None, :] ** E, axis=1) for u in spec.inputs])
        loss = assemble_loss(spec)
        assert loss.Q.tobytes() == (feats.T @ feats + spec.ridge * np.eye(len(E))).tobytes()
        assert loss.c.tobytes() == (-2.0 * feats.T @ spec.targets).tobytes()


def _two_input_fit():
    """A degree-4 model (15 coefficients) monotone in both inputs, fitted to
    60 noisy samples of u0^2 + u0 u1 + 0.5 u1, with no Slater point."""
    rng = np.random.default_rng(0)
    u = rng.uniform(0.0, 1.0, (60, 2))
    t = u[:, 0] ** 2 + u[:, 0] * u[:, 1] + 0.5 * u[:, 1] + 0.05 * rng.normal(size=60)
    return RegressionSpec(
        data=np.column_stack([u, t]),
        degree=4,
        coeff_box=BoxDomain([-10.0] * 15, [10.0] * 15),
        u_domain=BoxDomain([0.0, 0.0], [1.0, 1.0]),
        ridge=1e-6,
        shape_constraints=(monotone_increasing(2, 0), monotone_increasing(2, 1)),
    )


def _grid_qp_bound(spec, per_axis=41):
    """The loss minimized under the shape constraints on a per_axis^2 grid
    of the input box and the coefficient box: a relaxation of the fit, so
    a lower bound on its optimum, solved by the dual active-set QP."""
    from sipsolve.qp import box_qp_factor, solve_box_qp

    loss = assemble_loss(spec)
    axis = np.linspace(0.0, 1.0, per_axis)
    U = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=-1)
    G, h = [], []
    for sc in spec.shape_constraints:
        polys, offset = constraint_coefficient_polys(spec, sc)
        G.append(np.stack(
            [np.prod(U[:, None, :] ** p.exponents, axis=2) @ p.coeffs for p in polys],
            axis=1,
        ))
        h.append(np.full(len(U), -offset))
    box = spec.coeff_box
    res = solve_box_qp(
        box_qp_factor(loss.Q, loss.c), np.vstack(G), np.concatenate(h), box.lower, box.upper
    )
    return loss.value(res.x)


class TestTwoInputFit:
    """Fifteen coefficients and two inputs: the Slater point comes from the
    Slater search, and every QP solve ends at the package's one gap floor
    instead of spending its budget."""

    @pytest.mark.parametrize("algorithm", ["sequential", "simultaneous"])
    def test_delta_approximate(self, algorithm):
        from sipsolve.core_loop import eventually_zero_schedule
        from sipsolve.drivers import (
            OutcomeStatus,
            SequentialConfig,
            SimultaneousConfig,
            run_sequential,
            run_simultaneous,
        )
        from sipsolve.instances import default_y0

        spec = _two_input_fit()
        prob = build_problem(spec)
        assert prob.slater_point is not None and prob.eps_star > 0
        delta, y0 = 1e-2, default_y0(prob)
        shared = dict(delta=delta, r=2.0, schedule=eventually_zero_schedule(0), rho=0.0)
        if algorithm == "sequential":
            out = run_sequential(prob, SequentialConfig(eps00=1.0, y0=y0, **shared))
        else:
            out = run_simultaneous(
                prob, SimultaneousConfig(eps0=1.0, y0_check=y0, y0_hat=y0, **shared)
            )
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert out.certified_bound <= 0.0
        bound = _grid_qp_bound(spec)
        assert bound - 1e-9 <= out.f_value <= bound + delta
