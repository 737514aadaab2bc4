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

# infer_basis looks for a matching basis up to this degree.
MAX_BASIS_DEGREE = 32


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


def infer_basis(num_coeffs: int, dim: int) -> PolynomialBasis:
    """Recover the basis degree from a coefficient vector length."""
    for n in range(MAX_BASIS_DEGREE + 1):
        if num_coefficients(dim, n) == num_coeffs:
            return PolynomialBasis(dim, n)
    raise InputError(
        f"{num_coeffs} coefficients do not match any degree <= {MAX_BASIS_DEGREE} "
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
    scale = np.concatenate(([1.0], xmax))
    total = 0.0
    for j in range(y_box.dim):
        parts = _y_partials(a_polys, b_poly, j)
        total += sum(p.scaled(scale[src]).max_abs_bound(y_box) for src, p in parts)
    return total


def affine_in_x_lipschitz_at(
    a_polys: list[Polynomial],
    b_poly: Polynomial | None,
    x,
    y_box: BoxDomain,
) -> float:
    """Same bound with a concrete x plugged in: the y-partials combine with
    signed coefficients, so cancelation (e.g. a constant-in-y slice) shows
    up as a zero constant."""
    return _lipschitz_in_y_table(a_polys, b_poly, y_box)(x)


def _lipschitz_in_y_table(
    a_polys: list[Polynomial],
    b_poly: Polynomial | None,
    y_box: BoxDomain,
):
    """The per-x bound of affine_in_x_lipschitz_at, with everything that does
    not depend on x computed once.

    For each y-axis j the table holds the exponent rows of the y_j-partials
    of b and of the a_k, merged so that equal rows share one coefficient
    slot, the term bound of each slot over the box, and for every partial
    coefficient its slot and its source (b or a_k).  At x the slots
    accumulate the coefficients (those of a_k times x_k) in that order, and
    the bound is sum_j sum_slots |coefficient| * term bound.
    """
    m = np.maximum(np.abs(y_box.lower), np.abs(y_box.upper))
    table = []
    for j in range(y_box.dim):
        parts = _y_partials(a_polys, b_poly, j)
        if not parts:
            continue
        rows: dict[tuple[int, ...], int] = {}
        slots, sources, coeffs = [], [], []
        for src, part in parts:
            for e, c in zip(part.exponents, part.coeffs):
                slots.append(rows.setdefault(tuple(e.tolist()), len(rows)))
                sources.append(src)
                coeffs.append(c)
        exps = np.array(list(rows), dtype=int).reshape(len(rows), y_box.dim)
        term_bounds = np.prod(m[None, :] ** exps, axis=1)
        table.append((np.array(slots), np.array(sources), np.array(coeffs), term_bounds))

    def at(x) -> float:
        scale = np.concatenate(([1.0], np.asarray(x, dtype=float)))
        total = 0.0
        for slots, sources, coeffs, term_bounds in table:
            merged = np.zeros(len(term_bounds))
            np.add.at(merged, slots, coeffs * scale[sources])
            total += float(np.dot(np.abs(merged), term_bounds))
        return total

    return at


def _y_partials(a_polys, b_poly, j: int) -> list[tuple[int, Polynomial]]:
    """The y_j-partial of b as (0, partial), then each nonzero y_j-partial
    of a_k as (k + 1, partial)."""
    parts = [] if b_poly is None else [(0, b_poly.partial(j))]
    for k, ap in enumerate(a_polys):
        pj = ap.partial(j)
        if pj.coeffs.any():
            parts.append((k + 1, pj))
    return parts


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
        lipschitz_in_y_at=_lipschitz_in_y_table(a_polys, b_poly, y_box),
    )

