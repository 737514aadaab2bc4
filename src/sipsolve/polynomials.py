"""Dense multivariate polynomials in the monomial basis, and the constraint
families built from them.

Every constraint family of the form g(x, y) = a(y).x + b(y) with polynomial
a and b is built here by affine_polynomial_family, together with its
term-wise Lipschitz bounds in y: the JSON quadratic schema, the regression
front-end (model-derivative constraints) and the randomized instance
generator all call it.  Degrees stay in the single digits here, so no
orthogonal-basis conditioning is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .errors import InputError
from .problem import BoxDomain, ConstraintFamily


def multi_indices(dim: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples alpha in N_0^dim with |alpha| <= max_degree,
    in graded lexicographic order.  This ordering fixes how coefficient
    vectors are indexed everywhere in the package."""
    if dim < 1 or max_degree < 0:
        raise InputError("need dim >= 1 and max_degree >= 0")
    out: list[tuple[int, ...]] = []
    for total in range(max_degree + 1):
        level: list[tuple[int, ...]] = []

        def rec(prefix: tuple[int, ...], remaining: int, slots: int):
            if slots == 1:
                level.append(prefix + (remaining,))
                return
            for k in range(remaining, -1, -1):
                rec(prefix + (k,), remaining - k, slots - 1)

        rec((), total, dim)
        out.extend(sorted(level, reverse=True))
    return out


def num_coefficients(dim: int, max_degree: int) -> int:
    return comb(max_degree + dim, dim)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial sum_t coeffs[t] * prod_j y_j ** exponents[t, j]."""

    exponents: np.ndarray  # (terms, dim) nonnegative ints
    coeffs: np.ndarray  # (terms,)

    def __post_init__(self):
        e = np.atleast_2d(np.asarray(self.exponents, dtype=int)).copy()
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float)).copy()
        if e.shape[0] != c.size:
            raise InputError("exponent/coefficient length mismatch")
        if np.any(e < 0):
            raise InputError("exponents must be nonnegative")
        e.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "exponents", e)
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.exponents.shape[1]

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(np.zeros((1, dim), dtype=int), np.zeros(1))

    @classmethod
    def constant(cls, dim: int, c: float) -> "Polynomial":
        return cls(np.zeros((1, dim), dtype=int), np.array([float(c)]))

    def __call__(self, y) -> float:
        y = np.asarray(y, dtype=float).reshape(self.dim)
        return float(np.dot(self.coeffs, np.prod(y**self.exponents, axis=1)))

    def eval_many(self, ys: np.ndarray) -> np.ndarray:
        """Evaluate at every row of an (N, dim) array."""
        ys = np.asarray(ys, dtype=float).reshape(-1, self.dim)
        # (N, terms) monomial matrix; term count is tiny at desk scale
        mono = np.prod(ys[:, None, :] ** self.exponents[None, :, :], axis=2)
        return mono @ self.coeffs

    def partial(self, axis: int) -> "Polynomial":
        if not 0 <= axis < self.dim:
            raise InputError("axis out of range")
        e = self.exponents.copy()
        c = self.coeffs * e[:, axis]
        e[:, axis] = np.maximum(e[:, axis] - 1, 0)
        keep = c != 0
        if not keep.any():
            return Polynomial.zero(self.dim)
        return Polynomial(e[keep], c[keep])

    def max_abs_bound(self, box: BoxDomain) -> float:
        """Upper bound on max |p(y)| over the box via term-wise bounds."""
        if box.dim != self.dim:
            raise InputError("box dimension mismatch")
        m = np.maximum(np.abs(box.lower), np.abs(box.upper))
        term_bounds = np.prod(m[None, :] ** self.exponents, axis=1)
        return float(np.dot(np.abs(self.coeffs), term_bounds))

    def lipschitz_bound(self, box: BoxDomain) -> float:
        """Max-norm Lipschitz bound over the box: sum_j max |d p / d y_j|."""
        return sum(self.partial(j).max_abs_bound(box) for j in range(self.dim))

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial(self.exponents, self.coeffs * factor)

    def plus_constant(self, c: float) -> "Polynomial":
        e = np.vstack([self.exponents, np.zeros((1, self.dim), dtype=int)])
        return Polynomial(e, np.concatenate([self.coeffs, [float(c)]]))


@dataclass(frozen=True)
class PolynomialBasis:
    """Monomial basis of all multi-indices of degree <= degree in dim vars."""

    dim: int
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "_indices", tuple(multi_indices(self.dim, self.degree)))

    @property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return self._indices  # type: ignore[attr-defined]

    @property
    def size(self) -> int:
        return len(self.indices)

    def features(self, u) -> np.ndarray:
        """Monomial feature vector (u^alpha for every basis index)."""
        u = np.asarray(u, dtype=float).reshape(self.dim)
        e = np.asarray(self.indices, dtype=int)
        return np.prod(u[None, :] ** e, axis=1)

    def eval(self, w, u) -> float:
        w = np.asarray(w, dtype=float).reshape(self.size)
        return float(np.dot(w, self.features(u)))

    def derivative_weights(self, alpha: tuple[int, ...]) -> tuple[np.ndarray, list[Polynomial]]:
        """Decompose d^alpha of a basis polynomial: returns, for each basis
        coefficient w_beta, the polynomial in u multiplying it inside
        d^alpha v_w(u).  The factor is beta!/(beta-alpha)! on the shifted
        monomial, zero where beta does not dominate alpha."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim or any(a < 0 for a in alpha):
            raise InputError("alpha must be a nonnegative multi-index of basis dim")
        if sum(alpha) > self.degree:
            raise InputError(
                f"derivative order {sum(alpha)} exceeds basis degree {self.degree}"
            )
        polys: list[Polynomial] = []
        factors = np.zeros(self.size)
        for t, beta in enumerate(self.indices):
            if all(b >= a for b, a in zip(beta, alpha)):
                fac = 1.0
                for b, a in zip(beta, alpha):
                    fac *= factorial(b) / factorial(b - a)
                shifted = tuple(b - a for b, a in zip(beta, alpha))
                factors[t] = fac
                polys.append(Polynomial(np.array([shifted]), np.array([fac])))
            else:
                polys.append(Polynomial.zero(self.dim))
        return factors, polys


def infer_basis(num_coeffs: int, dim: int, max_degree: int = 32) -> PolynomialBasis:
    """Recover the basis degree from a coefficient vector length."""
    for n in range(max_degree + 1):
        if num_coefficients(dim, n) == num_coeffs:
            return PolynomialBasis(dim, n)
    raise InputError(
        f"{num_coeffs} coefficients do not match any degree <= {max_degree} "
        f"basis in {dim} variables"
    )


def affine_in_x_lipschitz(
    a_polys: list[Polynomial],
    b_poly: Polynomial | None,
    x_box: BoxDomain,
    y_box: BoxDomain,
) -> float:
    """Max-metric Lipschitz bound in y of g(x, y) = sum_j a_j(y) x_j + b(y),
    uniform over the x box, from term-wise polynomial bounds."""
    xmax = np.maximum(np.abs(x_box.lower), np.abs(x_box.upper))
    return affine_in_x_lipschitz_at(a_polys, b_poly, xmax, y_box, signed=False)


def affine_in_x_lipschitz_at(
    a_polys: list[Polynomial],
    b_poly: Polynomial | None,
    x,
    y_box: BoxDomain,
    signed: bool = True,
) -> float:
    """Same bound with a concrete x plugged in: the y-partials combine with
    signed coefficients, so cancelation (e.g. a constant-in-y slice) shows
    up as a zero constant."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for j in range(y_box.dim):
        parts: list[Polynomial] = []
        if b_poly is not None:
            parts.append(b_poly.partial(j))
        for k, ap in enumerate(a_polys):
            pj = ap.partial(j)
            if pj.coeffs.any():
                parts.append(pj.scaled(float(x[k]) if signed else abs(float(x[k]))))
        if not parts:
            continue
        if signed:
            combined = Polynomial(
                np.vstack([p.exponents for p in parts]),
                np.concatenate([p.coeffs for p in parts]),
            )
            total += _collapsed_abs_bound(combined, y_box)
        else:
            total += sum(p.max_abs_bound(y_box) for p in parts)
    return total


def affine_polynomial_family(
    index: int,
    a_polys,
    b_poly: Polynomial,
    x_box: BoxDomain,
    y_box: BoxDomain,
) -> ConstraintFamily:
    """Constraint family g(x, y) = sum_j a_j(y) x_j + b(y) over the index box,
    with the uniform and the per-x Lipschitz bounds in y from term-wise
    polynomial bounds.  Polynomials without a nonzero coefficient are left
    out of value and batch evaluation."""
    a_polys = list(a_polys)
    active = [(j, ap) for j, ap in enumerate(a_polys) if ap.coeffs.any()]

    def value(x, y):
        return float(sum(ap(y) * x[j] for j, ap in active) + b_poly(y))

    def subgradient_x(x, y):
        return np.array([ap(y) for ap in a_polys])

    def batch_eval(x, ys):
        ys = np.asarray(ys, dtype=float).reshape(-1, y_box.dim)
        out = b_poly.eval_many(ys)
        for j, ap in active:
            out = out + x[j] * ap.eval_many(ys)
        return out

    return ConstraintFamily(
        index=index,
        value=value,
        subgradient_x=subgradient_x,
        lipschitz_in_y=affine_in_x_lipschitz(a_polys, b_poly, x_box, y_box),
        y_domain=y_box,
        batch_eval=batch_eval,
        lipschitz_in_y_at=lambda x: affine_in_x_lipschitz_at(a_polys, b_poly, x, y_box),
    )


def _collapsed_abs_bound(p: Polynomial, box: BoxDomain) -> float:
    """max_abs_bound after merging duplicate exponent rows (so exact
    coefficient cancelation is visible)."""
    merged: dict[tuple[int, ...], float] = {}
    for e, c in zip(p.exponents, p.coeffs):
        key = tuple(int(v) for v in e)
        merged[key] = merged.get(key, 0.0) + float(c)
    exps = np.array(list(merged.keys()), dtype=int).reshape(len(merged), p.dim)
    coeffs = np.array(list(merged.values()))
    return Polynomial(exps, coeffs).max_abs_bound(box)
