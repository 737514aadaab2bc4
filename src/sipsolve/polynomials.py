"""Dense multivariate polynomials in the monomial basis, the one ordering of
a polynomial model's coefficients (multi_indices), and the constraint
families built from polynomials.

Every constraint family of the form g(x, y) = a(y).x + b(y) with polynomial
a and b is built here by affine_polynomial_family: the JSON quadratic
schema, the regression front-end (model-derivative constraints) and the
randomized instance generator all call it.  The family is held as one
exponent matrix and one coefficient matrix, from which its value, batch,
x-subgradient, term-wise Lipschitz-in-y and second-order-in-y oracles are
each one array expression.  Degrees stay in the single digits here, so no
orthogonal-basis conditioning is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial(self.exponents, self.coeffs * factor)

    def plus_constant(self, c: float) -> "Polynomial":
        e = np.vstack([self.exponents, np.zeros((1, self.dim), dtype=int)])
        return Polynomial(e, np.concatenate([self.coeffs, [float(c)]]))


def affine_polynomial_family(
    index: int,
    a_polys,
    b_poly: Polynomial,
    x_box: BoxDomain,
    y_box: BoxDomain,
) -> ConstraintFamily:
    """Constraint family g(x, y) = sum_j a_j(y) x_j + b(y) over the index box.

    The family is held as two arrays: E (T, q), the distinct exponent rows
    of b and of every a_j, and C (T, 1 + p), whose column 0 holds b's
    coefficients and column 1 + j those of a_j (equal rows merged).  With
    z = (1, x), g(x, y) = sum_t mono_t(y) * (C @ z)_t, where mono_t(y) =
    prod_k y_k ** E[t, k].  Value and batch evaluation share one row-wise
    sum, so a point gives the same bits alone as inside any batch.

    The Lipschitz bounds in y (max metric) are term-wise: the y_k-partial of
    g has coefficients D_k = C * E[:, k] on the exponent rows shifted down
    in y_k, and each shifted monomial is bounded over the box by tb.  With
    D and tb stacked over k, the per-x bound is |D @ z| @ tb (signed, so
    cancelation at a concrete x shows up) and the uniform one is
    (|D| @ z_max) @ tb with z_max = (1, max |x|) over the x box.

    The second-order oracle at x returns the batch y-gradient, one array
    expression over the exponent rows of the partials, and M = |C @ z| @ F,
    where F[t] bounds the second y-partials of mono_t over the box term by
    term, as tb does the first.  For a family of degree 2 in y, M is the
    exact absolute Hessian, constant in y.
    """
    polys = [b_poly, *a_polys]
    # rows of E in order of first appearance; the order fixes summation bits
    rows: dict[tuple[int, ...], int] = {}
    row = [rows.setdefault(tuple(e), len(rows)) for p in polys for e in p.exponents.tolist()]
    E = np.array(list(rows), dtype=int).reshape(len(rows), y_box.dim)
    C = np.zeros((len(E), len(polys)))
    col = [j for j, p in enumerate(polys) for _ in p.coeffs]
    np.add.at(C, (row, col), np.concatenate([p.coeffs for p in polys]))

    def lift(x) -> np.ndarray:
        return np.concatenate(([1.0], x))

    E_float = E.astype(float)  # the cast ys ** E makes on every call
    E_float.setflags(write=False)
    memo = (None, None)  # (key of the last ndarray x, its C @ (1, x))

    def weights(x) -> np.ndarray:
        """C @ (1, x); the last ndarray x's is kept, keyed on its bytes, as
        the lower level evaluates many batches at one x."""
        nonlocal memo
        if not isinstance(x, np.ndarray):
            return C @ lift(x)
        key = (x.dtype.str, x.tobytes())
        last_key, w = memo
        if key != last_key:
            w = C @ lift(x)
            w.setflags(write=False)
            memo = (key, w)
        return w

    # the oracles call the ufunc reductions behind np.prod and .sum directly,
    # which skips their per-call wrappers; the lower level calls them often
    def mono(ys: np.ndarray) -> np.ndarray:
        return np.multiply.reduce(ys[:, None, :] ** E_float[None, :, :], axis=2)

    def batch_eval(x, ys):
        ys = np.asarray(ys, dtype=float).reshape(-1, y_box.dim)
        return np.add.reduce(mono(ys) * weights(x), axis=1)

    def value(x, y):
        return float(batch_eval(x, y)[0])

    def subgradient_x(x, y):
        return mono(np.asarray(y, dtype=float).reshape(1, y_box.dim))[0] @ C[:, 1:]

    m = np.maximum(np.abs(y_box.lower), np.abs(y_box.upper))
    D, tb = [], []
    for k in range(y_box.dim):
        has = E[:, k] > 0
        shifted = E[has] - np.eye(y_box.dim, dtype=int)[k]
        D.append(C[has] * E[has, k][:, None])
        tb.append(np.prod(m[None, :] ** shifted, axis=1))
    D, tb = np.vstack(D), np.concatenate(tb)
    z_max = lift(np.maximum(np.abs(x_box.lower), np.abs(x_box.upper)))

    # GE[k] holds the exponent rows of the y_k-partials, E - e_k, and HE those
    # of the second partials; both are clipped at 0 in the rows whose factor
    # is 0.  F[t, j, k] bounds |d2 mono_t / dy_j dy_k| over the box
    eye = np.eye(y_box.dim, dtype=int)
    GE = np.maximum(E[None] - eye[:, None], 0).astype(float)
    HE = np.maximum(E[:, None, None] - eye[None, :, None] - eye[None, None], 0)
    F = E[:, :, None] * (E[:, None, :] - eye) * np.prod(m**HE, axis=3)

    def second_order_in_y_at(x):
        w = weights(x)
        gw = E.T * w  # (q, T): the weights of the y_k-partials

        def grad(ys):
            ys = np.asarray(ys, dtype=float).reshape(-1, y_box.dim)
            monos = np.multiply.reduce(ys[:, None, None] ** GE, axis=3)  # (N, q, T)
            return np.add.reduce(monos * gw, axis=2)

        return grad, np.tensordot(np.abs(w), F, axes=1)

    return ConstraintFamily(
        index=index,
        value=value,
        subgradient_x=subgradient_x,
        lipschitz_in_y=float((np.abs(D) @ z_max) @ tb),
        y_domain=y_box,
        batch_eval=batch_eval,
        lipschitz_in_y_at=lambda x: float(np.abs(D @ lift(x)) @ tb),
        second_order_in_y_at=second_order_in_y_at,
    )
