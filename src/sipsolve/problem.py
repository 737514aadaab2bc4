"""Problem model: box domains, convex objectives, constraint families and
assembled semi-infinite program instances.

All objects are immutable after construction and their oracles are expected to
be pure, so instances can be shared freely between workers.  Lipschitz
constants are caller-supplied metadata; they are trusted, never estimated.
An objective built by ``ConvexObjective.from_quadratic`` derives its
Lipschitz constant from its ``QuadraticForm`` and the decision box, and
carries the form; the finite solver reads the form to solve its masters as QPs, and
still certifies every bound through the value and subgradient oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import InputError, NumericalError
from .qp import BoxQpFactor, box_qp_factor

# Absolute slack used whenever "g <= -eps" has to be decided in floating point.
FEASTOL = 1e-10
# Gap of the one certificate of a Slater point, and the margin it must clear.
SLATER_DELTA = 1e-9
# Point budget of the grid behind default_margin_resolution.
MARGIN_GRID_POINTS = 100_000
# validate_problem: samples per check, relative tolerance, sampling seed.
VALIDATION_SAMPLES = 100
VALIDATION_REL_TOL = 1e-9
VALIDATION_SEED = 0


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a read-only 1-D float64 vector, optionally checking length."""
    p = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    if p.ndim != 1:
        raise InputError(f"expected a vector, got array of shape {p.shape}")
    if dim is not None and p.size != dim:
        raise InputError(f"dimension mismatch: expected {dim}, got {p.size}")
    p.setflags(write=False)
    return p


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with the max-metric."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_point(self.lower)
        hi = as_point(self.upper, dim=lo.size)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise InputError("box bounds must be finite")
        if np.any(lo > hi):
            raise InputError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def diameter(self) -> float:
        """Max-norm diameter."""
        return float(np.max(self.widths)) if self.dim else 0.0

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x, tol: float = 1e-9) -> bool:
        p = as_point(x, dim=self.dim)
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))

    def clip(self, x) -> np.ndarray:
        return np.clip(as_point(x, dim=self.dim), self.lower, self.upper)

    def grid(self, resolution: float) -> np.ndarray:
        """Uniform grid including all box corners, spacing <= resolution per
        axis.  Returns an (N, dim) array in lexicographic axis order."""
        if resolution <= 0:
            raise InputError("grid resolution must be positive")
        axes = []
        for j in range(self.dim):
            w = float(self.widths[j])
            n = max(2, int(np.ceil(w / resolution)) + 1) if w > 0 else 1
            axes.append(np.linspace(self.lower[j], self.upper[j], n))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class QuadraticForm:
    """f(w) = w.Q w + c.w + d with Q symmetric positive semidefinite."""

    Q: np.ndarray
    c: np.ndarray
    d: float

    def value(self, w: np.ndarray) -> float:
        return float(w @ self.Q @ w + self.c @ w + self.d)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * (self.Q @ w) + self.c

    def lipschitz_maxnorm(self, box: BoxDomain) -> float:
        """sup over the box of the 1-norm of the gradient."""
        m = np.maximum(np.abs(box.lower), np.abs(box.upper))
        return float(np.sum(2.0 * np.abs(self.Q) @ m + np.abs(self.c)))

    @cached_property
    def factor(self) -> BoxQpFactor | None:
        """The dual active-set QP's read-only factor of this form (the
        Cholesky factor of Q + Q^T, L^-1 c and the unconstrained minimizer),
        or None when Q + Q^T has no Cholesky factor; computed once per form."""
        try:
            return box_qp_factor(self.Q, self.c)
        except NumericalError:
            return None

    @property
    def positive_definite(self) -> bool:
        return self.factor is not None


@dataclass(frozen=True)
class ConvexObjective:
    """Convex objective given by value/subgradient oracles.

    ``lipschitz_constant``, positive and finite when given, is a Lipschitz
    constant with respect to the max-norm on the decision box (so
    ``|f(a)-f(b)| <= L* ||a-b||_inf``);
    drivers need it only for the a-priori termination index.
    ``quadratic``, when given, is the objective's exact quadratic form; the
    finite solver solves its optimality masters as QPs when the form is
    ``positive_definite``, and by cutting planes otherwise.
    """

    value: Callable[[np.ndarray], float]
    subgradient: Callable[[np.ndarray], np.ndarray]
    lipschitz_constant: float | None = None
    quadratic: QuadraticForm | None = None

    def __post_init__(self):
        lip = self.lipschitz_constant
        if lip is not None and not 0 < lip < np.inf:  # also false for NaN
            raise InputError("objective Lipschitz constant must be positive and finite")

    @classmethod
    def from_quadratic(cls, form: QuadraticForm, box: BoxDomain) -> "ConvexObjective":
        """The objective w.Q w + c.w + d on the decision box, carrying its
        form and its max-norm Lipschitz constant over the box."""
        return cls(
            value=form.value,
            subgradient=form.gradient,
            lipschitz_constant=form.lipschitz_maxnorm(box),
            quadratic=form,
        )


@dataclass(frozen=True)
class ConstraintFamily:
    """One family g_i(x, y) of constraints indexed by y in a box.

    ``lipschitz_in_y`` bounds |g(x,a) - g(x,b)| / ||a-b||_inf uniformly over
    the decision box; it is what makes certified index-set maximization
    possible.  A value of 0 declares the family constant in y.
    ``lipschitz_in_y_at``, when given, returns a Lipschitz constant of
    y -> g(x, y) for one concrete x; structured families derive it from
    polynomial coefficient bounds and it sharpens certificates a lot when
    the uniform constant is loose at the query point.
    ``batch_eval``, when given, evaluates g(x, y) for a whole (N, q) array of
    index points at once; the lower level evaluates its cells through it.
    ``second_order_in_y_at``, when given, returns for one concrete x a pair
    ``(grad, M)``: ``grad(ys)`` is the (N, q) array of y-gradients of g(x, .)
    at the rows of ``ys``, and ``M`` is a nonnegative (q, q) array with
    |d2 g / dy_j dy_k (x, y)| <= M[j, k] for every y in the index box.
    ``affine_polynomial_family`` supplies it; with it the lower level also
    bounds each cell by its second-order Taylor model and evaluates the
    model's maximizing vertex.
    The maximum over all families and y is certified by the one branch and
    bound of ``lower_level.certified_max`` from these oracles and constants.
    Every oracle value is taken as exact.  A family without the
    second-order oracle, a hand-written one among them, is certified by
    its Lipschitz constants alone.
    """

    index: int
    value: Callable[[np.ndarray, np.ndarray], float]
    subgradient_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz_in_y: float
    y_domain: BoxDomain
    batch_eval: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    lipschitz_in_y_at: Callable[[np.ndarray], float] | None = None
    second_order_in_y_at: Callable[
        [np.ndarray], tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]
    ] | None = None

    def local_lipschitz_in_y(self, x: np.ndarray) -> float:
        if self.lipschitz_in_y_at is None:
            return self.lipschitz_in_y
        lip = float(self.lipschitz_in_y_at(x))
        if not lip >= 0:  # also true for NaN
            raise InputError(
                f"constraint family {self.index} returned a per-x Lipschitz "
                f"constant {lip!r}; it must be nonnegative"
            )
        return min(self.lipschitz_in_y, lip)

    def second_order_model(self, x: np.ndarray):
        """The model (grad, M) of ``second_order_in_y_at`` at x, None without
        the oracle; an M that is not finite and nonnegative would make every
        Taylor bound unsound, so it is an InputError naming the family."""
        if self.second_order_in_y_at is None:
            return None
        grad, M = self.second_order_in_y_at(x)
        if not (np.isfinite(M).all() and (M >= 0).all()):
            raise InputError(
                f"constraint family {self.index} returned a second-order bound M "
                "that is not finite and nonnegative"
            )
        return grad, M

    def require_finite(self, finite: bool, what: str = "value") -> None:
        """An oracle output that is not finite is an InputError naming the
        family: no Lipschitz, Taylor or cut bound says anything about it."""
        if not finite:
            raise InputError(
                f"constraint family {self.index} returned a non-finite {what}"
            )

    def __post_init__(self):
        if self.lipschitz_in_y < 0 or not np.isfinite(self.lipschitz_in_y):
            raise InputError("lipschitz_in_y must be finite and nonnegative")

    def eval_grid(self, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Evaluate g(x, y) for every row y of ``ys``; every value is
        checked finite."""
        if self.batch_eval is not None:
            v = np.asarray(self.batch_eval(x, ys), dtype=float).reshape(len(ys))
        else:
            v = np.array([self.value(x, y) for y in ys], dtype=float)
        self.require_finite(np.isfinite(v).all())
        return v


@dataclass(frozen=True)
class SipProblem:
    """A convex semi-infinite program min f(x) s.t. g_i(x,y) <= 0 on Y."""

    x_domain: BoxDomain
    y_domain: BoxDomain
    objective: ConvexObjective
    constraints: tuple[ConstraintFamily, ...]
    slater_point: np.ndarray | None = None

    def __post_init__(self):
        if not self.constraints:
            raise InputError("a SipProblem needs at least one constraint family")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for fam in self.constraints:
            if fam.y_domain.dim != self.y_domain.dim or not (
                np.array_equal(fam.y_domain.lower, self.y_domain.lower)
                and np.array_equal(fam.y_domain.upper, self.y_domain.upper)
            ):
                raise InputError(
                    f"constraint family {fam.index} carries a different y-domain"
                )
        if self.slater_point is not None:
            sp = as_point(self.slater_point, dim=self.x_domain.dim)
            if not self.x_domain.contains(sp):
                raise InputError("slater_point lies outside the decision box")
            object.__setattr__(self, "slater_point", sp)

    @cached_property
    def eps_star(self) -> float:
        """The Slater point's certified margin ``derive_eps_star(self)``,
        made once per problem."""
        return derive_eps_star(self)


def feasibility_margin(problem: SipProblem, x, grid_resolution: float) -> float:
    """Dense-grid estimate of the worst constraint value at x.

    Returns max over families and grid points of g_i(x, y).  The true
    supremum exceeds the returned value by at most
    max_i lipschitz_in_y * grid_resolution.  This is an independent check
    for the tests and the benchmark; the solver never calls it, its
    outcomes take their margin from the certified lower level.
    """
    p = as_point(x, dim=problem.x_domain.dim)
    if grid_resolution <= 0:
        raise InputError("grid_resolution must be positive")
    ys = problem.y_domain.grid(grid_resolution)
    return float(max(np.max(fam.eval_grid(p, ys)) for fam in problem.constraints))


def default_margin_resolution(problem: SipProblem) -> float:
    """Finest grid resolution whose full grid stays under MARGIN_GRID_POINTS."""
    q = problem.y_domain.dim
    width = max(float(np.max(problem.y_domain.widths)), 1e-12)
    per_axis = max(2, int(MARGIN_GRID_POINTS ** (1.0 / q)))
    return max(width / (per_axis - 1), 1e-6)


def derive_eps_star(problem: SipProblem) -> float:
    """Turn a Slater point into a usable strict-feasibility margin.

    eps_star is the distance of the Slater point from the constraint
    boundary, certified at gap SLATER_DELTA and shaved by it; by
    construction the Slater point lies in F_{-eps_star}(Y).  This is the
    one test of strict feasibility: a point whose margin is not positive
    is an InputError.
    """
    from . import lower_level  # avoids a cycle

    if problem.slater_point is None:
        raise InputError("derive_eps_star requires a slater_point")
    bound = lower_level.certified_max(
        problem.constraints, problem.slater_point, SLATER_DELTA
    ).bound
    eps_star = -bound - SLATER_DELTA
    if eps_star <= 0:
        raise InputError(
            "no strict feasibility evidence: certified constraint bound "
            f"{bound:.3e} at the slater point is not safely negative"
        )
    return eps_star


@dataclass
class OracleCheckReport:
    """Outcome of the sampled oracle-consistency checks."""

    convexity_violation: float = 0.0
    subgradient_violation: float = 0.0
    lipschitz_violation: float = 0.0
    second_order_violation: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _worse(a: float, b: float) -> float:
    """The larger of two violations, NaN once either is NaN; max(0.0, nan)
    would keep 0.0 and pass a check that said nothing."""
    return a if math.isnan(a) or a >= b else b


def validate_problem(problem: SipProblem) -> OracleCheckReport:
    """Spot-check oracle consistency on deterministic random samples.

    Checks, per constraint family and for the objective: the convexity
    inequality on sampled triples, the subgradient cut inequality, and the
    per-x y-Lipschitz bound on sampled pairs; for a family with
    ``second_order_in_y_at``, also the Taylor bound
    |g(y) - g(c) - grad(c).(y - c)| <= 1/2 |y - c|.M.|y - c| on sampled
    (x, c, y), the model ``certified_max`` uses, after the check of M that
    ``certified_max`` applies.  A check that yields NaN fails, as does an M
    that is not finite and nonnegative or a per-x Lipschitz constant that is
    NaN or negative; either failure names the family.  The Slater certificate is
    not checked here: it is ``problem.eps_star``, which ``load_problem``
    reads for a file that declares a Slater point.  Raises nothing; the
    report lists failures so callers decide.
    """
    rng = np.random.default_rng(VALIDATION_SEED)
    rep = OracleCheckReport()
    X, Y = problem.x_domain, problem.y_domain

    def rand_x():
        return X.lower + rng.random(X.dim) * X.widths

    def rand_y():
        return Y.lower + rng.random(Y.dim) * Y.widths

    def check_convex(value, subgradient, a, b, lam) -> float:
        """Fold the convexity inequality at lam * a + (1 - lam) * b and the
        subgradient cut at a, read at b, of one convex oracle into the
        report; returns their scale 1 + |value(a)| + |value(b)|."""
        va, vb = value(a), value(b)
        scale = 1.0 + abs(va) + abs(vb)
        viol = (value(lam * a + (1 - lam) * b) - (lam * va + (1 - lam) * vb)) / scale
        rep.convexity_violation = _worse(rep.convexity_violation, viol)
        cut = va + float(np.dot(subgradient(a), b - a))
        rep.subgradient_violation = _worse(rep.subgradient_violation, (cut - vb) / scale)
        return scale

    f = problem.objective
    for _ in range(VALIDATION_SAMPLES):
        a, b = rand_x(), rand_x()
        scale = check_convex(f.value, f.subgradient, a, b, rng.random())
        if f.lipschitz_constant is not None:
            gap = abs(f.value(a) - f.value(b)) - f.lipschitz_constant * float(
                np.max(np.abs(a - b))
            )
            rep.lipschitz_violation = _worse(rep.lipschitz_violation, gap / scale)

    for fam in problem.constraints:
        lip_error = None
        for _ in range(VALIDATION_SAMPLES):
            a, b, y = rand_x(), rand_x(), rand_y()
            check_convex(
                lambda x: fam.value(x, y), lambda x: fam.subgradient_x(x, y),
                a, b, rng.random(),
            )
            x, ya, yb = rand_x(), rand_y(), rand_y()
            try:
                lip = fam.local_lipschitz_in_y(x)  # the constant certified_max uses
            except InputError as exc:
                lip_error = lip_error or str(exc)
                continue
            gap = abs(fam.value(x, ya) - fam.value(x, yb)) - lip * float(
                np.max(np.abs(ya - yb))
            )
            rep.lipschitz_violation = _worse(
                rep.lipschitz_violation, gap / (1.0 + abs(fam.value(x, ya)))
            )
        if lip_error is not None:
            rep.failures.append(lip_error)

    # drawn after the other checks, so that their samples stay the same
    for fam in problem.constraints:
        if fam.second_order_in_y_at is None:
            continue
        for _ in range(VALIDATION_SAMPLES):
            x, c, y = rand_x(), rand_y(), rand_y()
            try:
                grad, M = fam.second_order_model(x)
            except InputError as exc:
                rep.failures.append(str(exc))
                break
            d = y - c
            gc = fam.value(x, c)
            rest = abs(fam.value(x, y) - gc - float(grad(c)[0] @ d))
            gap = rest - 0.5 * float(np.abs(d) @ M @ np.abs(d))
            rep.second_order_violation = _worse(
                rep.second_order_violation, gap / (1.0 + abs(gc))
            )

    for what, viol in (
        ("convexity", rep.convexity_violation),
        ("subgradient cut", rep.subgradient_violation),
        ("Lipschitz bound", rep.lipschitz_violation),
        ("second-order bound", rep.second_order_violation),
    ):
        if not viol <= VALIDATION_REL_TOL:  # also fails a NaN
            rep.failures.append(f"{what} violated by {viol:.3e}")
    return rep
