"""Built-in problem instances and the randomized instance generator.

The two canonical analytic instances:

  instance_A: X = [-2, 2], Y = [0, 1], f(x) = x^2,
              g(x, y) = x + y - 1.  Feasible set is x <= 0, optimum 0 at 0;
              the eps-restricted optimal value is eps^2.

  instance_B: X = [-3, 3]^2, Y = [0, 1], f(x) = |x|^2,
              g(x, y) = y x_1 + (1 - y) x_2 + 1.  Feasible set is
              max(x_1, x_2) <= -1, optimum 2 at (-1, -1); the restricted
              optimal value is 2 (1 + eps)^2.

quasiconvex_gap is the counterexample instance whose constraint is only
quasi-convex: its strict-feasibility set is much smaller than its feasible
set, so restricted optimal values stay bounded away from the optimum.  Its
convex sibling replaces the clamped constraint by the plain parabola and is
a regular test instance with optimum 1 at x = 1.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core_loop import Discretization
from .errors import InputError
from .lower_level import certified_max
from .polynomials import Polynomial, affine_polynomial_family
from .problem import (
    BoxDomain,
    ConstraintFamily,
    ConvexObjective,
    QuadraticForm,
    SipProblem,
)
from .regression import RegressionSpec, monotone_increasing


def instance_a() -> SipProblem:
    x_box = BoxDomain(lower=[-2.0], upper=[2.0])
    y_box = BoxDomain(lower=[0.0], upper=[1.0])
    objective = ConvexObjective.from_quadratic(
        QuadraticForm(Q=np.eye(1), c=np.zeros(1), d=0.0), x_box
    )
    # hand-written on purpose, without second_order_in_y_at: the lower level
    # certifies it by Lipschitz cells, whose centers never reach the maximizer
    # y* = 1, so the rho = inf discretization keeps growing, as acceptance
    # test c07 and `sipsolve bench` show.  The same program built by
    # affine_polynomial_family (README's quad.json) finds y* = 1 at a model
    # vertex and stays at 2 points.
    family = ConstraintFamily(
        index=0,
        value=lambda x, y: float(x[0] + y[0] - 1.0),
        subgradient_x=lambda x, y: np.array([1.0]),
        lipschitz_in_y=1.0,
        y_domain=y_box,
        batch_eval=lambda x, ys: x[0] + ys[:, 0] - 1.0,
    )
    return SipProblem(
        x_domain=x_box,
        y_domain=y_box,
        objective=objective,
        constraints=(family,),
        slater_point=np.array([-2.0]),
    )


def instance_b() -> SipProblem:
    x_box = BoxDomain(lower=[-3.0, -3.0], upper=[3.0, 3.0])
    y_box = BoxDomain(lower=[0.0], upper=[1.0])
    objective = ConvexObjective.from_quadratic(
        QuadraticForm(Q=np.eye(2), c=np.zeros(2), d=0.0), x_box
    )
    # hand-written like instance_a's family, without second_order_in_y_at,
    # so the lower level certifies it by Lipschitz cells alone
    family = ConstraintFamily(
        index=0,
        # written as (x_2 + 1) + y (x_1 - x_2), so that on the diagonal the
        # value is exactly constant in y, as lipschitz_in_y_at declares
        value=lambda x, y: float((x[1] + 1.0) + y[0] * (x[0] - x[1])),
        subgradient_x=lambda x, y: np.array([y[0], 1.0 - y[0]]),
        lipschitz_in_y=6.0,
        y_domain=y_box,
        batch_eval=lambda x, ys: (x[1] + 1.0) + ys[:, 0] * (x[0] - x[1]),
        lipschitz_in_y_at=lambda x: abs(float(x[0] - x[1])),
    )
    return SipProblem(
        x_domain=x_box,
        y_domain=y_box,
        objective=objective,
        constraints=(family,),
        slater_point=np.array([-3.0, -3.0]),
    )


def _gap_objective(x_box: BoxDomain) -> ConvexObjective:
    # (x - 2)^2: minimum at x = 2, outside [-1, 1]; min over [-1, 1] is
    # 1 = the gap c
    return ConvexObjective.from_quadratic(
        QuadraticForm(Q=np.eye(1), c=np.array([-4.0]), d=4.0), x_box
    )


def quasiconvex_gap() -> SipProblem:
    """Quasi-convex constraint counterexample; not oracle-validated since its
    constraint is deliberately non-convex."""
    x_box = BoxDomain(lower=[-2.0], upper=[2.0])
    y_box = BoxDomain(lower=[0.0], upper=[1.0])

    def g0(x, y):
        v = x[0]
        return float(v * v - 1.0) if -1.0 <= v <= 1.0 else 0.0

    family = ConstraintFamily(
        index=0,
        value=g0,
        subgradient_x=lambda x, y: np.array(
            [2.0 * x[0] if -1.0 <= x[0] <= 1.0 else 0.0]
        ),
        lipschitz_in_y=0.0,
        y_domain=y_box,
        batch_eval=lambda x, ys: np.full(len(ys), g0(x, ys[0])),
    )
    return SipProblem(
        x_domain=x_box,
        y_domain=y_box,
        objective=_gap_objective(x_box),
        constraints=(family,),
        slater_point=np.array([0.0]),
    )


def convex_gap_sibling() -> SipProblem:
    """Convex variant of the gap fixture: g(x, y) = x^2 - 1, optimum 1 at 1."""
    x_box = BoxDomain(lower=[-2.0], upper=[2.0])
    y_box = BoxDomain(lower=[0.0], upper=[1.0])
    family = ConstraintFamily(
        index=0,
        value=lambda x, y: float(x[0] ** 2 - 1.0),
        subgradient_x=lambda x, y: np.array([2.0 * x[0]]),
        lipschitz_in_y=0.0,
        y_domain=y_box,
        batch_eval=lambda x, ys: np.full(len(ys), float(x[0] ** 2 - 1.0)),
    )
    return SipProblem(
        x_domain=x_box,
        y_domain=y_box,
        objective=_gap_objective(x_box),
        constraints=(family,),
        slater_point=np.array([0.0]),
    )


def regression_r_spec() -> RegressionSpec:
    """Two-point degree-1 monotone regression; the active-set oracle solves
    it to w = (1/(2 + ridge), 0)."""
    return RegressionSpec(
        data=np.array([[0.0, 1.0], [1.0, 0.0]]),
        degree=1,
        coeff_box=BoxDomain(lower=[-10.0, -10.0], upper=[10.0, 10.0]),
        u_domain=BoxDomain(lower=[0.0], upper=[1.0]),
        ridge=1e-6,
        shape_constraints=(monotone_increasing(dim=1),),
        slater_point=np.array([0.0, 1.0]),
    )


def regression_r() -> SipProblem:
    from .regression import build_problem

    return build_problem(regression_r_spec())


def default_y0(problem: SipProblem) -> Discretization:
    return Discretization(problem.y_domain.center().reshape(1, -1))


BUILTIN_BUILDERS = {
    "instance_A": instance_a,
    "instance_B": instance_b,
    "quasiconvex_gap": quasiconvex_gap,
    "convex_gap_sibling": convex_gap_sibling,
    "regression_R": regression_r,
}


def builtin(name: str) -> SipProblem:
    try:
        return BUILTIN_BUILDERS[name]()
    except KeyError:
        raise InputError(
            f"unknown builtin instance {name!r}; available: "
            + ", ".join(sorted(BUILTIN_BUILDERS))
        ) from None


# --------------------------------------------------------------------------
# randomized affine-in-x instances with polynomial index dependence
# --------------------------------------------------------------------------


def _random_poly(rng: np.random.Generator, q: int, degree: int) -> Polynomial:
    from .polynomials import multi_indices

    idx = multi_indices(q, degree)
    coeffs = rng.uniform(-1.0, 1.0, size=len(idx))
    return Polynomial(np.array(idx, dtype=int), coeffs)


def random_affine_instance(seed: int) -> SipProblem:
    """Random strictly feasible instance with g_i(x, y) = a_i(y).x + b_i(y),
    polynomial in y, convex quadratic objective, and analytically derived
    Lipschitz data.  Deterministic in the seed."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 4))
    q = int(rng.integers(1, 3))
    n_fams = int(rng.integers(1, 4))
    half = rng.uniform(1.0, 3.0, size=p)
    x_box = BoxDomain(lower=-half, upper=half)
    y_box = BoxDomain(lower=np.zeros(q), upper=rng.uniform(0.5, 1.5, size=q))

    M = rng.normal(size=(p, p))
    Q = M.T @ M / p + 0.3 * np.eye(p)
    c = rng.uniform(-1.0, 1.0, size=p)
    form = QuadraticForm(Q=Q, c=c, d=0.0)
    objective = ConvexObjective.from_quadratic(form, x_box)

    slater = x_box.center()
    families = []
    for i in range(n_fams):
        a_polys = [_random_poly(rng, q, 2) for _ in range(p)]
        b_poly = _random_poly(rng, q, 2)

        # the probe is certified by its Lipschitz bounds alone, so that the
        # shift, and with it the instance of a seed, does not depend on the
        # second-order search
        probe = replace(
            affine_polynomial_family(i, a_polys, b_poly, x_box, y_box),
            second_order_in_y_at=None,
        )
        # shift the constant term so the box center is strictly feasible
        shift = -certified_max([probe], slater, 1e-2).bound - 1.0
        families.append(
            affine_polynomial_family(
                i, a_polys, b_poly.plus_constant(shift), x_box, y_box
            )
        )

    return SipProblem(
        x_domain=x_box,
        y_domain=y_box,
        objective=objective,
        constraints=tuple(families),
        slater_point=slater,
    )
