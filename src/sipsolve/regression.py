"""Shape-constrained polynomial regression assembled as a semi-infinite
program.

The model is a polynomial v_w(u) = sum_beta w_beta u^beta of bounded degree,
its coefficients ordered by polynomials.multi_indices and confined to a box;
the loss is the ridge-regularized sum of squared residuals (an exact convex
quadratic in the coefficients); each shape constraint is an affine
combination of model derivatives required nonpositive on the whole input
box, which makes it affine in the coefficients with polynomial dependence on
the input.  Every derivative comes from the one rule
d^alpha u^beta = beta!/(beta - alpha)! u^(beta - alpha), zero where beta
does not dominate alpha.  Each constraint becomes a family through
polynomials.affine_polynomial_family, with the offset as a constant b(u):
the model-derivative polynomials become the family's exponent and
coefficient arrays, whose term-wise bounds give its Lipschitz data, so the
certified lower-level machinery applies as-is.  A spec without a Slater
point gets one from ``drivers.synthesize_slater_point``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import perm, prod

import numpy as np

from .drivers import synthesize_slater_point
from .errors import InputError
from .polynomials import Polynomial, affine_polynomial_family, multi_indices
from .problem import (
    BoxDomain,
    ConvexObjective,
    QuadraticForm,
    SipProblem,
)

@dataclass(frozen=True)
class ShapeConstraint:
    """sum_alpha weight[alpha] * d^alpha v(u) + offset <= 0 on all of U."""

    weights: dict[tuple[int, ...], float]
    offset: float = 0.0

    def __post_init__(self):
        if not self.weights:
            raise InputError("shape constraint needs at least one derivative weight")
        cleaned = {}
        for alpha, w in self.weights.items():
            a = tuple(int(v) for v in alpha)
            if any(v < 0 for v in a):
                raise InputError("derivative multi-indices must be nonnegative")
            cleaned[a] = float(w)
            if not np.isfinite(cleaned[a]):
                raise InputError(f"shape constraint weight of {a} must be finite")
        object.__setattr__(self, "weights", cleaned)
        if not np.isfinite(self.offset):
            raise InputError(f"shape constraint offset must be finite, got {self.offset}")

    @property
    def order(self) -> int:
        return max(sum(a) for a in self.weights)


def monotone_increasing(dim: int = 1, axis: int = 0) -> ShapeConstraint:
    """-dv/du_axis <= 0, i.e. the model increases along an axis."""
    alpha = tuple(1 if j == axis else 0 for j in range(dim))
    return ShapeConstraint(weights={alpha: -1.0})


def convex_1d() -> ShapeConstraint:
    """-v'' <= 0 for univariate models."""
    return ShapeConstraint(weights={(2,): -1.0})


@dataclass(frozen=True)
class RegressionSpec:
    data: np.ndarray  # (N, d + 1): input columns then target
    degree: int
    coeff_box: BoxDomain
    u_domain: BoxDomain
    ridge: float = 1e-6
    shape_constraints: tuple[ShapeConstraint, ...] = ()
    slater_point: np.ndarray | None = None

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise InputError("data must be a nonempty (N, d+1) array")
        if arr.shape[1] != self.u_domain.dim + 1:
            raise InputError(
                f"data rows must hold {self.u_domain.dim} inputs plus a target"
            )
        if not np.isfinite(arr).all():
            raise InputError("data must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        if not isinstance(self.degree, (int, np.integer)) or self.degree < 0:
            raise InputError(f"degree must be an integer >= 0, got {self.degree!r}")
        if not 0 < self.ridge < np.inf:
            raise InputError(
                "ridge must be positive and finite (it certifies strict convexity)"
            )
        object.__setattr__(
            self, "shape_constraints", tuple(self.shape_constraints)
        )
        size = len(self.exponents)
        if self.coeff_box.dim != size:
            raise InputError(
                f"coeff_box must have dimension {size} for degree "
                f"{self.degree} in {self.u_domain.dim} input variables"
            )
        for sc in self.shape_constraints:
            if any(len(a) != self.u_domain.dim for a in sc.weights):
                raise InputError("shape constraint multi-index dimension mismatch")
            if sc.order > self.degree:
                raise InputError(
                    f"derivative order {sc.order} exceeds model degree {self.degree}"
                )

    @cached_property
    def exponents(self) -> np.ndarray:
        """(T, d) exponents beta of the model's monomials u^beta, one row per
        coefficient w_beta, in multi_indices order."""
        e = np.array(multi_indices(self.u_domain.dim, self.degree), dtype=int)
        e.setflags(write=False)
        return e

    @property
    def inputs(self) -> np.ndarray:
        return self.data[:, :-1]

    @property
    def targets(self) -> np.ndarray:
        return self.data[:, -1]


def assemble_loss(spec: RegressionSpec) -> QuadraticForm:
    """Exact quadratic form of the ridge-regularized squared loss."""
    E = spec.exponents
    feats = np.prod(spec.inputs[:, None, :] ** E[None], axis=2)
    Q = feats.T @ feats + spec.ridge * np.eye(len(E))
    c = -2.0 * feats.T @ spec.targets
    d = float(spec.targets @ spec.targets)
    return QuadraticForm(Q=Q, c=c, d=d)


def constraint_coefficient_polys(
    spec: RegressionSpec, sc: ShapeConstraint
) -> tuple[list[Polynomial], float]:
    """Polynomials a_beta(u) with g(w, u) = sum_beta a_beta(u) w_beta + offset.

    a_beta = sum_alpha weight[alpha] * d^alpha u^beta: a zero constant term,
    then, for each alpha in sorted order that beta dominates, the monomial
    u^(beta - alpha) with coefficient beta!/(beta - alpha)! * weight."""
    if any(len(a) != spec.u_domain.dim for a in sc.weights):
        raise InputError("shape constraint multi-index dimension mismatch")
    alphas = sorted(sc.weights.items())
    coeffs = []
    for beta in spec.exponents.tolist():
        rows, terms = [[0] * len(beta)], [0.0]
        for alpha, weight in alphas:
            fac = prod(map(perm, beta, alpha), start=1.0)  # 0 unless beta >= alpha
            if fac:
                rows.append([b - a for b, a in zip(beta, alpha)])
                terms.append(fac * weight)
        coeffs.append(Polynomial(np.array(rows), np.array(terms)))
    return coeffs, sc.offset


def build_problem(spec: RegressionSpec) -> SipProblem:
    """Assemble the regression instance as a SipProblem: decisions are the
    model coefficients, the index set is the input box."""
    if not spec.shape_constraints:
        raise InputError("regression instance needs at least one shape constraint")
    loss = assemble_loss(spec)
    objective = ConvexObjective.from_quadratic(loss, spec.coeff_box)
    families = []
    for idx, sc in enumerate(spec.shape_constraints):
        coeff_polys, offset = constraint_coefficient_polys(spec, sc)
        offset_poly = Polynomial.constant(spec.u_domain.dim, offset)
        families.append(
            affine_polynomial_family(
                idx, coeff_polys, offset_poly, spec.coeff_box, spec.u_domain
            )
        )
    problem = SipProblem(
        x_domain=spec.coeff_box,
        y_domain=spec.u_domain,
        objective=objective,
        constraints=tuple(families),
        slater_point=spec.slater_point,
    )
    if spec.slater_point is None:
        return synthesize_slater_point(problem)
    return problem
