"""Adaptive discretization step and the loop at a fixed restriction.

A ``Stream`` is one discretization sequence, and ``Stream.step`` the one
step both of the paper's algorithms repeat: it solves the discretized
restricted problem to its scheduled gap (``Stream.solve``) and, when that
solve is feasible, certifies one maximum of the constraints at the iterate
over all families and the full index box (``Stream.certify``).  A loop
that reads a certificate only on some branches runs the two halves apart,
and may hand ``Stream.solve`` its last step to reuse at unchanged eps and
points.  The step terminates when the certified value is at or below minus
the requested gap, which proves the iterate feasible for the semi-infinite
program; otherwise ``Stream.refine`` prunes and extends the discretization
around the maximizer.  ``run_core`` runs a stream at a fixed
restriction, and the drivers in ``sipsolve.drivers`` run streams with their
own restriction updates.  The pruning radius rho regulates how much of the
old discretization survives: rho = inf keeps everything, rho = 0 keeps only
the points still active at the restriction level.  The step's two gaps come
from a ``ToleranceSchedule``, a geometric record whose regime (summable or
eventually zero) and supremum follow from its own fields; a restricted
stream caps the certificate gap at eps/2, so that a point at its
restriction's level is proved feasible by its first certificate.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ConfigError
from .finite_solver import (
    CutPool,
    DiscretizedProblem,
    DiscretizedSolveResult,
    SolveStatus,
    solve_discretized,
)
from .lower_level import CertifiedMax, certified_max
from .problem import FEASTOL, SipProblem, as_point

DEDUP_TOL = 1e-12
AUX_DELTA_FLOOR = 1e-15  # certified_max needs a positive gap request


@dataclass(frozen=True)
class Discretization:
    """Finite set of index points, deduplicated at DEDUP_TOL (max-norm).

    Points are taken in order, and a point is kept when it lies farther
    than DEDUP_TOL from every point kept before it, so the first occurrence
    wins and a chain of close points can keep more than its first link.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[-1] if pts.ndim > 1 else 1)
        else:
            pts = np.atleast_2d(pts)
        kept = np.empty_like(pts)
        n = 0
        for p in pts:
            if n == 0 or (np.abs(kept[:n] - p).max(axis=1) > DEDUP_TOL).all():
                kept[n] = p
                n += 1
        arr = kept[:n].copy()
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @property
    def cardinality(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ToleranceSchedule:
    """Per-iteration solve tolerances, geometric in the iteration k.

    obj_tol(k) = obj_scale * ratio**(k + offset) is the gap for the
    discretized solve at iteration k, and 0 once k + offset >= zero_from;
    aux_tol(k) = aux_scale * ratio**k is the certificate gap for the
    lower-level maximization over all families.  With zero_from None the
    obj tolerances are summable (and need a nonzero pruning radius);
    otherwise they are eventually zero.  Both tend to zero since ratio < 1.
    """

    obj_scale: float
    aux_scale: float
    ratio: float
    zero_from: int | None = None
    offset: int = 0  # shifts the obj side only, see shifted

    def __post_init__(self):
        if not 0 < self.ratio < 1:  # also false for NaN
            raise ConfigError("schedule ratio must lie in (0, 1)")
        if not (0 <= self.obj_scale < np.inf and 0 <= self.aux_scale < np.inf):
            raise ConfigError("schedule scales must be finite and nonnegative")
        if self.zero_from is not None and not (
            isinstance(self.zero_from, int) and self.zero_from >= 0
        ):
            raise ConfigError("zero_from must be None or an integer >= 0")

    def obj_tol(self, k: int) -> float:
        k = k + self.offset
        if self.zero_from is not None and k >= self.zero_from:
            return 0.0
        return self.obj_scale * self.ratio**k

    def aux_tol(self, k: int) -> float:
        return self.aux_scale * self.ratio**k

    def sup_obj(self) -> float:
        """sup_k obj_tol(k) of the unshifted schedule."""
        return 0.0 if self.zero_from == 0 else self.obj_scale

    def shifted(self, offset: int) -> "ToleranceSchedule":
        """Schedule viewed from iteration ``offset`` on (obj side only)."""
        return replace(self, offset=self.offset + offset)


def geometric_schedule(ratio: float = 0.5, scale: float = 0.1) -> ToleranceSchedule:
    """obj and aux tolerances scale * ratio**k, summable."""
    return ToleranceSchedule(scale, scale, ratio)


def eventually_zero_schedule(zero_from: int = 0) -> ToleranceSchedule:
    """obj tolerance 0.1 * 0.5**k before ``zero_from`` and 0 from it on
    (floored inside the finite solver); aux tolerance 0.1 * 0.5**k."""
    return ToleranceSchedule(0.1, 0.1, 0.5, zero_from=zero_from)


def check_rho_regime(schedule: ToleranceSchedule, rho: float) -> None:
    """A pruning radius >= 0 or inf, nonzero for a summable obj schedule."""
    if not rho >= 0:  # also false for NaN
        raise ConfigError("rho must be nonnegative or inf")
    if schedule.zero_from is None and rho == 0:
        raise ConfigError("a summable obj schedule requires a nonzero pruning radius")


def check_max_iters(max_iters: int) -> None:
    """A run's step limit: an integer >= 0."""
    if not (isinstance(max_iters, int) and max_iters >= 0):
        raise ConfigError("max_iters must be an integer >= 0")


@dataclass(frozen=True)
class CoreConfig:
    eps: float
    rho: float  # pruning radius, may be inf
    schedule: ToleranceSchedule
    y0: Discretization
    max_iters: int = 10_000

    def __post_init__(self):
        if not 0 <= self.eps < np.inf:  # also false for NaN
            raise ConfigError("eps must be nonnegative and finite")
        check_rho_regime(self.schedule, self.rho)
        check_max_iters(self.max_iters)


@dataclass
class TraceRow:
    eps: float
    card_y: int
    f_x: float
    max_violation: float
    branch: str
    lp_iters: int
    oracle_evals: int  # cumulative


CSV_COLUMNS = ("k", "eps", "card_Y", "f_x", "max_violation", "branch", "lp_iters", "oracle_evals")


@dataclass
class RunTrace:
    """A run's steps, one row each; the CSV numbers the rows from 0."""

    rows: list[TraceRow] = field(default_factory=list)

    @property
    def total_evals(self) -> int:
        return self.rows[-1].oracle_evals if self.rows else 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for k, r in enumerate(self.rows):
            writer.writerow(
                [
                    k,
                    format(r.eps, ".17g"),
                    r.card_y,
                    format(r.f_x, ".17g"),
                    format(r.max_violation, ".17g"),
                    r.branch,
                    r.lp_iters,
                    r.oracle_evals,
                ]
            )
        return buf.getvalue()


class CoreStatus(Enum):
    TERMINATED = "Terminated"
    INFEASIBLE_SUBPROBLEM = "InfeasibleSubproblem"
    BUDGET = "Budget"


@dataclass
class CoreResult:
    status: CoreStatus
    x: np.ndarray | None
    trace: RunTrace
    # the terminating step's certificate at x, from drivers.run_feas_finite
    cert: CertifiedMax | None = None

    @property
    def iterations(self) -> int:
        return len(self.trace.rows)


def update_discretization(
    problem: SipProblem,
    yk: Discretization,
    xk,
    eps: float,
    rho: float,
    violator: CertifiedMax,
) -> Discretization:
    """One discretization update: keep the points still active at level
    -eps - rho, up to the finite solver's row tolerance FEASTOL, and add
    the violator's index point.  Without the tolerance, rho = 0 drops a
    point whose row is active up to rounding."""
    x = as_point(xk, dim=problem.x_domain.dim)
    kept = yk.points
    if yk.cardinality and not np.isinf(rho):
        vals = np.stack([fam.eval_grid(x, kept) for fam in problem.constraints])
        kept = kept[vals.max(axis=0) >= -eps - rho - FEASTOL]
    new_points = np.vstack(
        [kept.reshape(-1, problem.y_domain.dim), violator.y_star.reshape(1, -1)]
    )
    return Discretization(new_points)


@dataclass
class Step:
    """One adaptive-discretization step.

    ``solve`` is the discretized restricted solve at ``eps`` on ``points``;
    ``cert`` is the certified maximum over all families at its point,
    requested at gap ``aux_delta``, and is None until ``Stream.certify``
    certifies a FEASIBLE solve.
    """

    eps: float
    points: Discretization
    solve: DiscretizedSolveResult
    aux_delta: float
    cert: CertifiedMax | None = None

    @property
    def x(self) -> np.ndarray | None:
        return self.solve.x

    @property
    def evals(self) -> int:
        return self.solve.evals + (0 if self.cert is None else self.cert.evals)

    @property
    def worst(self) -> float:
        return np.nan if self.cert is None else self.cert.value

    @property
    def terminated(self) -> bool:
        """The maximum over all families certified at or below -aux_delta;
        since its gap is at most aux_delta, the point is feasible for the
        full program."""
        return self.cert is not None and self.cert.value <= -self.aux_delta

    def record(self, trace: RunTrace, branch: str, also: "Step | None" = None) -> None:
        """Append this step's trace row.  ``also`` is an earlier step of the
        same iteration whose LP iterations and evaluations the row counts
        too."""
        steps = (self,) if also is None else (also, self)
        trace.rows.append(
            TraceRow(
                self.eps, self.points.cardinality,
                np.nan if self.solve.x is None else self.solve.upper,
                self.worst, branch, sum(s.solve.lp_iters for s in steps),
                trace.total_evals + sum(s.evals for s in steps),
            )
        )


@dataclass
class Stream:
    """One discretization sequence: the problem restricted by ``eps`` on
    ``points``, the cut pool that warm-starts its solves, and ``x``, the
    latest point any of its solves returned."""

    problem: SipProblem
    eps: float
    points: Discretization
    pool: CutPool = field(default_factory=CutPool)
    x: np.ndarray | None = None

    def solve(
        self, schedule: ToleranceSchedule, k: int, last: Step | None = None
    ) -> Step:
        """Solve the restricted problem on the points to gap obj_tol(k),
        without certifying its point.  A solve that returns a point,
        undecided ones included, makes it the latest; the solve itself drops
        the pool's cuts of points no longer in the stream.

        ``last`` is an earlier step of this stream.  When it was FEASIBLE at
        the stream's current eps and points, and its upper - lower is within
        max(obj_tol(k), its floor), it already answers this solve: its
        result is reused, counting no LP iterations and no evaluations.

        The step's certificate gap is aux_tol(k), capped at eps/2 when the
        stream is restricted and floored at AUX_DELTA_FLOOR: it never
        exceeds the scheduled gap and still tends to zero, and a point whose
        restriction is active (maximum -eps) terminates at once instead of
        being re-solved until aux_tol(k) drops below eps."""
        aux_delta = schedule.aux_tol(k)
        if self.eps > 0:
            aux_delta = min(aux_delta, self.eps / 2)
        aux_delta = max(aux_delta, AUX_DELTA_FLOOR)
        if (
            last is not None
            and last.solve.status is SolveStatus.FEASIBLE
            and last.eps == self.eps
            and np.array_equal(last.points.points, self.points.points)
            and last.solve.upper - last.solve.lower
            <= max(schedule.obj_tol(k), last.solve.gap_floor)
        ):
            solve = replace(last.solve, lp_iters=0, evals=0)
            return Step(self.eps, self.points, solve, aux_delta)
        solve = solve_discretized(
            DiscretizedProblem(self.problem, self.eps, self.points.points),
            schedule.obj_tol(k),
            x_hint=self.x,
            pool=self.pool,
        )
        if solve.x is not None:
            self.x = solve.x
        return Step(self.eps, self.points, solve, aux_delta)

    def certify(self, step: Step) -> Step:
        """Certify the maximum over all families at the point of a FEASIBLE
        step, at its gap aux_delta; other steps stay uncertified."""
        if step.solve.status is SolveStatus.FEASIBLE:
            step.cert = certified_max(self.problem.constraints, step.x, step.aux_delta)
        return step

    def step(self, schedule: ToleranceSchedule, k: int) -> Step:
        """``solve`` and then ``certify``: the step every loop but the
        simultaneous driver's check stream runs."""
        return self.certify(self.solve(schedule, k))

    def refine(self, step: Step, rho: float, trace: RunTrace) -> None:
        """The points for the next step: those of ``step`` still active at
        -eps - rho plus its certified maximizer.  The trace's last row, that
        of ``step``, counts the evaluations of g at its points that a finite
        rho takes."""
        self.points = update_discretization(
            self.problem, step.points, step.x, step.eps, rho, step.cert
        )
        if not np.isinf(rho):
            trace.rows[-1].oracle_evals += (
                len(self.problem.constraints) * step.points.cardinality
            )


def run_core(problem: SipProblem, cfg: CoreConfig) -> CoreResult:
    """Run the adaptive discretization loop at fixed restriction cfg.eps.

    Terminates when the step certifies the iterate feasible for the
    original semi-infinite program.  An infeasible discretized subproblem
    and an exhausted solve or iteration budget are first-class outcomes; a
    budget stop keeps the stream's latest point.
    """
    stream = Stream(problem, cfg.eps, cfg.y0)
    trace = RunTrace()

    for k in range(cfg.max_iters):
        step = stream.step(cfg.schedule, k)
        status = step.solve.status
        if status is SolveStatus.INFEASIBLE:
            step.record(trace, "infeasible")
            return CoreResult(CoreStatus.INFEASIBLE_SUBPROBLEM, None, trace)
        if status is SolveStatus.UNDECIDED:
            step.record(trace, "budget")
            return CoreResult(CoreStatus.BUDGET, stream.x, trace)
        if step.terminated:
            step.record(trace, "terminated")
            return CoreResult(CoreStatus.TERMINATED, stream.x, trace)
        step.record(trace, "violation")
        stream.refine(step, cfg.rho, trace)

    return CoreResult(CoreStatus.BUDGET, stream.x, trace)
