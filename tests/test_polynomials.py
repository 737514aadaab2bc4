import numpy as np
import pytest

from sipsolve.polynomials import (
    Polynomial,
    affine_polynomial_family,
    multi_indices,
)
from sipsolve.instances import random_affine_instance
from sipsolve.problem import BoxDomain
from sipsolve.regression import (
    RegressionSpec,
    build_problem,
    convex_1d,
)
from sipsolve.serialization import load_problem


def test_multi_index_counts():
    assert len(multi_indices(1, 3)) == 4
    assert len(multi_indices(2, 2)) == 6
    # graded order: constant first, then degree blocks
    idx = multi_indices(2, 2)
    assert idx[0] == (0, 0)
    assert sum(idx[-1]) == 2


def test_polynomial_call():
    # p(y) = 1 + 2 y0 + 3 y0 y1
    p = Polynomial(np.array([[0, 0], [1, 0], [1, 1]]), np.array([1.0, 2.0, 3.0]))
    assert p([2.0, 1.0]) == pytest.approx(1 + 4 + 6)
    assert p([0.0, 5.0]) == pytest.approx(1.0)


def test_lipschitz_bound_dominates_samples():
    rng = np.random.default_rng(6)
    box = BoxDomain([0.0], [1.0])
    x_box = BoxDomain([-2.0, -2.0], [2.0, 2.0])
    idx = multi_indices(1, 2)
    a = [Polynomial(np.array(idx), rng.uniform(-1, 1, len(idx))) for _ in range(2)]
    b = Polynomial(np.array(idx), rng.uniform(-1, 1, len(idx)))
    lip = affine_polynomial_family(0, a, b, x_box, box).lipschitz_in_y
    for _ in range(200):
        x = rng.uniform(-2, 2, 2)
        y1, y2 = rng.uniform(0, 1, (2, 1))
        g1 = sum(ap(y1) * x[j] for j, ap in enumerate(a)) + b(y1)
        g2 = sum(ap(y2) * x[j] for j, ap in enumerate(a)) + b(y2)
        assert abs(g1 - g2) <= lip * abs(y1[0] - y2[0]) + 1e-12


def test_pointwise_lipschitz_sees_cancelation():
    # g(x, y) = y x0 + (1 - y) x1 + 1 is constant in y on the diagonal
    y_box = BoxDomain([0.0], [1.0])
    a = [
        Polynomial(np.array([[1]]), np.array([1.0])),
        Polynomial(np.array([[0], [1]]), np.array([1.0, -1.0])),
    ]
    x_box = BoxDomain([-3.0, -3.0], [3.0, 3.0])
    fam = affine_polynomial_family(0, a, Polynomial.constant(1, 1.0), x_box, y_box)
    at_diag = fam.lipschitz_in_y_at(np.array([-1.0, -1.0]))
    assert at_diag == pytest.approx(0.0, abs=1e-15)
    off_diag = fam.lipschitz_in_y_at(np.array([2.0, -1.0]))
    assert off_diag == pytest.approx(3.0)


def _lipschitz_term_by_term(a_polys, b_poly, x, y_box):
    """The per-x bound computed one monomial at a time: for each y-axis j,
    collect the signed coefficients of d g(x, .) / d y_j by exponent, then
    add |coefficient| times the monomial's bound over the box."""
    m = np.maximum(np.abs(y_box.lower), np.abs(y_box.upper))
    total = 0.0
    for j in range(y_box.dim):
        coeff_of = {}
        for scale, poly in [(1.0, b_poly), *zip(x, a_polys)]:
            for e, c in zip(poly.exponents, poly.coeffs):
                if e[j] == 0:
                    continue
                d = tuple(int(v) - (i == j) for i, v in enumerate(e))
                coeff_of[d] = coeff_of.get(d, 0.0) + scale * c * e[j]
        for d, c in coeff_of.items():
            total += abs(c) * float(np.prod(m ** np.array(d)))
    return total


@pytest.mark.parametrize("q", [1, 2, 3])
def test_lipschitz_table_matches_term_by_term(q):
    rng = np.random.default_rng(20 + q)
    y_box = BoxDomain(-rng.uniform(0.0, 1.0, q), rng.uniform(0.5, 2.0, q))
    x_box = BoxDomain([-2.0] * 3, [2.0] * 3)
    for trial in range(20):
        def poly():
            # repeated exponent rows, so merging matters
            rows = rng.integers(0, 4, size=(int(rng.integers(1, 8)), q))
            return Polynomial(rows, rng.uniform(-1.0, 1.0, len(rows)))

        a = [poly(), Polynomial.zero(q), poly()]
        b = poly()
        if trial % 4 == 0:
            a[2] = a[0].scaled(-1.0)  # cancels where x0 == x2
        fam = affine_polynomial_family(0, a, b, x_box, y_box)
        for x in rng.uniform(-2.0, 2.0, (10, 3)):
            if trial % 4 == 0:
                x[2] = x[0]
            expected = _lipschitz_term_by_term(a, b, x, y_box)
            got = fam.lipschitz_in_y_at(x)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _builder_problems():
    """One problem from each caller of affine_polynomial_family."""
    quadratic = load_problem(
        {
            "x_box": {"lower": [-2.0, -1.0], "upper": [2.0, 3.0]},
            "y_box": {"lower": [0.0, -1.0], "upper": [1.0, 1.0]},
            "objective": {"Q": [[1.0, 0.0], [0.0, 2.0]], "c": [0.5, -1.0]},
            "constraints": [
                {
                    "a": [[[[1, 0], 1.0], [[0, 2], -0.5]], [[[0, 0], 0.0]]],
                    "b": [[[0, 0], -4.0], [[1, 1], 2.0]],
                },
                {"a": [[[[0, 1], 3.0]], [[[2, 0], 1.0]]], "b": [[[0, 0], -9.0]]},
            ],
        }
    )
    rng = np.random.default_rng(3)
    u = rng.uniform(-1.0, 1.0, 12)
    regression = build_problem(
        RegressionSpec(
            data=np.column_stack([u, u**2]),
            degree=3,
            coeff_box=BoxDomain([-5.0] * 4, [5.0] * 4),
            u_domain=BoxDomain([-1.0], [1.0]),
            shape_constraints=(convex_1d(),),
            slater_point=np.zeros(4),
        )
    )
    problems = [
        pytest.param(quadratic, id="quadratic"),
        pytest.param(regression, id="regression"),
    ]
    problems += [pytest.param(random_affine_instance(s), id=f"random{s}") for s in range(6)]
    return problems


@pytest.mark.parametrize("prob", _builder_problems())
def test_affine_polynomial_family_oracles(prob):
    rng = np.random.default_rng(11)
    X, Y = prob.x_domain, prob.y_domain
    for fam in prob.constraints:
        xs = X.lower + rng.random((20, X.dim)) * X.widths
        ys = Y.lower + rng.random((40, Y.dim)) * Y.widths
        lip = fam.lipschitz_in_y
        for x in xs:
            # a point gives the same bits alone, in a batch of one and in a batch
            direct = np.array([fam.value(x, y) for y in ys])
            ones = np.array([fam.batch_eval(x, y[None])[0] for y in ys])
            np.testing.assert_array_equal(fam.batch_eval(x, ys), direct)
            np.testing.assert_array_equal(ones, direct)
            # g is affine in x: the subgradient is the exact slope
            x2 = X.lower + rng.random(X.dim) * X.widths
            for y in ys[:5]:
                s = fam.subgradient_x(x, y)
                assert fam.value(x2, y) - fam.value(x, y) == pytest.approx(
                    float(np.dot(s, x2 - x)), rel=1e-12, abs=1e-12
                )
            lip_x = fam.lipschitz_in_y_at(x)
            assert lip_x <= lip * (1 + 1e-12) + 1e-12
            for ya, yb in zip(ys[::2], ys[1::2]):
                slope = abs(fam.value(x, ya) - fam.value(x, yb)) / np.max(np.abs(ya - yb))
                assert slope <= lip_x * (1 + 1e-12) + 1e-12


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_weight_memo_matches_a_fresh_family(seed):
    # the family keeps C @ (1, x) for the last ndarray x; every call must
    # give the bits of a family that has seen no other x
    prob = random_affine_instance(seed)
    X, Y = prob.x_domain, prob.y_domain
    rng = np.random.default_rng(3)
    ys = Y.lower + rng.random((25, Y.dim)) * Y.widths
    x1, x2 = (X.lower + rng.random(X.dim) * X.widths for _ in range(2))

    def fresh(i, x):
        fam = random_affine_instance(seed).constraints[i]
        return fam.batch_eval(x, ys), fam.value(x, ys[0]), fam.subgradient_x(x, ys[0])

    def same(fam, i, x):
        for got, want in zip((fam.batch_eval(x, ys), fam.value(x, ys[0]),
                              fam.subgradient_x(x, ys[0])), fresh(i, x)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    for i, fam in enumerate(prob.constraints):
        for x in (x1, x2, x1, list(x2), x1):
            same(fam, i, x)
        # a writable x changed in place between calls
        x = x1.copy()
        same(fam, i, x)
        x[:] = x2
        same(fam, i, x)
        # an integer x whose bytes are those of a float x
        xi = np.arange(1, X.dim + 1)
        same(fam, i, xi.view(float))
        same(fam, i, xi)


@pytest.mark.parametrize("prob", _builder_problems())
def test_second_order_model(prob):
    # every family here is of degree <= 2 in y, so central differences of
    # g and of its gradient are exact up to rounding, and M, which bounds
    # the constant |Hessian| term by term, equals it
    rng = np.random.default_rng(5)
    X, Y = prob.x_domain, prob.y_domain
    h = 1e-3
    steps = h * np.eye(Y.dim)
    for fam in prob.constraints:
        for x in X.lower + rng.random((5, X.dim)) * X.widths:
            grad, M = fam.second_order_in_y_at(x)
            assert M.shape == (Y.dim, Y.dim) and (M >= 0).all()
            ys = Y.lower + rng.random((6, Y.dim)) * Y.widths
            g = grad(ys)
            assert g.shape == (len(ys), Y.dim)
            for y, gy in zip(ys, g):
                fd = [(fam.value(x, y + e) - fam.value(x, y - e)) / (2 * h) for e in steps]
                np.testing.assert_allclose(gy, fd, rtol=1e-7, atol=1e-8)
                hess = np.stack(
                    [(grad(y + e)[0] - grad(y - e)[0]) / (2 * h) for e in steps]
                )
                np.testing.assert_allclose(M, np.abs(hess), rtol=1e-7, atol=1e-8)
