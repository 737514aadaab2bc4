"""Adaptive discretization loop at a fixed restriction parameter.

Each iteration solves the discretized restricted problem to its scheduled
gap, certifies the worst constraint violation of the iterate over the full
index box, and either terminates (all certified values below the aux
tolerance) or prunes/extends the discretization around the strongest
violator.  The pruning radius rho regulates how much of the old
discretization survives: rho = inf keeps everything, rho = 0 keeps only the
points still active at the restriction level.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ConfigError, InputError
from .finite_solver import (
    CutPool,
    DiscretizedProblem,
    SolveStatus,
    solve_discretized,
)
from .lower_level import CertifiedMax, certified_max, strongest_violator
from .problem import SipProblem, as_point

DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class Discretization:
    """Finite multiset of index points with a dedup tolerance."""

    points: np.ndarray
    dedup_tol: float = DEDUP_TOL

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[-1] if pts.ndim > 1 else 1)
        else:
            pts = np.atleast_2d(pts)
        kept: list[np.ndarray] = []
        for p in pts:
            if all(np.max(np.abs(p - q)) > self.dedup_tol for q in kept):
                kept.append(p.astype(float))
        arr = np.array(kept).reshape(len(kept), pts.shape[1])
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @property
    def cardinality(self) -> int:
        return self.points.shape[0]

    def extended(self, extra_points: np.ndarray) -> "Discretization":
        if self.points.size == 0:
            merged = np.atleast_2d(extra_points)
        else:
            merged = np.vstack([self.points, np.atleast_2d(extra_points)])
        return Discretization(merged, self.dedup_tol)


class ScheduleRegime(Enum):
    EVENTUALLY_ZERO = "eventually_zero"
    SUMMABLE = "summable"


@dataclass(frozen=True)
class ToleranceSchedule:
    """Per-iteration solve tolerances.

    obj_tol(k) is the gap for the discretized solve at iteration k; aux_tol(k)
    the certificate gap for the lower-level maximizations (shared across
    families).  The regime declares how obj_tol behaves: EVENTUALLY_ZERO
    requires obj_tol(k) = 0 from zero_from on, SUMMABLE declares a finite sum
    (and requires a nonzero pruning radius at configuration time).
    """

    obj_tol: Callable[[int], float]
    aux_tol: Callable[[int], float]
    regime: ScheduleRegime
    zero_from: int = 0
    obj_sup: float | None = None  # known sup_k obj_tol(k), for driver gates

    def __post_init__(self):
        for k in (0, 10**3, 10**6):
            if self.obj_tol(k) < 0 or self.aux_tol(k) < 0:
                raise ConfigError("schedule tolerances must be nonnegative")
        if not (self.aux_tol(10**6) <= self.aux_tol(10**3) <= self.aux_tol(0)):
            raise ConfigError("aux_tol must decay toward zero (spot check failed)")
        if self.aux_tol(10**6) > 1e-3 * max(self.aux_tol(0), 1e-300):
            raise ConfigError("aux_tol does not appear to converge to zero")
        if self.regime is ScheduleRegime.EVENTUALLY_ZERO:
            for k in (self.zero_from, self.zero_from + 7, 10**6):
                if self.obj_tol(k) != 0.0:
                    raise ConfigError(
                        f"eventually-zero schedule has obj_tol({k}) != 0"
                    )

    def sup_obj(self, horizon: int = 64) -> float:
        if self.obj_sup is not None:
            return self.obj_sup
        return max(self.obj_tol(k) for k in range(horizon))

    def shifted(self, offset: int) -> "ToleranceSchedule":
        """Schedule viewed from iteration ``offset`` on (obj side only)."""
        base_obj, base_aux = self.obj_tol, self.aux_tol
        return ToleranceSchedule(
            obj_tol=lambda k: base_obj(k + offset),
            aux_tol=base_aux,
            regime=self.regime,
            zero_from=max(self.zero_from - offset, 0),
            obj_sup=self.obj_sup,
        )


def geometric_schedule(ratio: float = 0.5, scale: float = 0.1) -> ToleranceSchedule:
    """obj and aux tolerances scale * ratio**k; summable for ratio < 1."""
    if not 0 < ratio < 1:
        raise ConfigError("geometric schedule needs ratio in (0, 1)")
    return ToleranceSchedule(
        obj_tol=lambda k: scale * ratio**k,
        aux_tol=lambda k: scale * ratio**k,
        regime=ScheduleRegime.SUMMABLE,
        obj_sup=scale,
    )


def eventually_zero_schedule(
    zero_from: int = 0, scale: float = 0.1, ratio: float = 0.5
) -> ToleranceSchedule:
    """obj tolerance 0 from ``zero_from`` on (floored inside the finite
    solver); aux tolerance stays geometric."""
    return ToleranceSchedule(
        obj_tol=lambda k: scale * ratio**k if k < zero_from else 0.0,
        aux_tol=lambda k: scale * ratio**k,
        regime=ScheduleRegime.EVENTUALLY_ZERO,
        zero_from=zero_from,
        obj_sup=scale if zero_from > 0 else 0.0,
    )


def check_rho_regime(schedule: ToleranceSchedule, rho: float) -> None:
    """A summable obj schedule needs a nonzero pruning radius."""
    if schedule.regime is ScheduleRegime.SUMMABLE and rho == 0:
        raise ConfigError("a summable obj schedule requires a nonzero pruning radius")


@dataclass(frozen=True)
class CoreConfig:
    eps: float
    rho: float  # pruning radius, may be inf
    schedule: ToleranceSchedule
    y0: Discretization
    max_iters: int = 10_000
    solver_budget: int = 400

    def __post_init__(self):
        if self.eps < 0:
            raise ConfigError("eps must be nonnegative")
        if self.rho < 0:
            raise ConfigError("rho must be nonnegative or inf")
        check_rho_regime(self.schedule, self.rho)


@dataclass
class TraceRow:
    k: int
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
    rows: list[TraceRow] = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        if self.rows and row.k <= self.rows[-1].k:
            raise InputError("trace rows must have strictly increasing k")
        self.rows.append(row)

    def extend_from(self, other: "RunTrace") -> None:
        for r in other.rows:
            self.append(r)

    @property
    def objective_values(self) -> list[float]:
        return [r.f_x for r in self.rows if np.isfinite(r.f_x)]

    @property
    def total_evals(self) -> int:
        return self.rows[-1].oracle_evals if self.rows else 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            writer.writerow(
                [
                    r.k,
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
    iterations: int
    trace: RunTrace
    discretization: Discretization


def update_discretization(
    problem: SipProblem,
    yk: Discretization,
    xk,
    eps: float,
    rho: float,
    violator: CertifiedMax,
) -> Discretization:
    """One discretization update: keep the points still active at level
    -eps - rho and add the strongest violator."""
    x = as_point(xk, dim=problem.x_domain.dim)
    if np.isinf(rho):
        kept = yk.points
    elif yk.cardinality:
        vals = np.stack([fam.eval_grid(x, yk.points) for fam in problem.constraints])
        kept = yk.points[vals.max(axis=0) >= -eps - rho]
    else:
        kept = yk.points
    new_points = np.vstack(
        [
            kept.reshape(-1, problem.y_domain.dim),
            violator.y_star.reshape(1, -1),
        ]
    )
    return Discretization(new_points, yk.dedup_tol)


def run_core(
    problem: SipProblem,
    cfg: CoreConfig,
    pool: CutPool | None = None,
    trace: RunTrace | None = None,
    k_offset: int = 0,
) -> CoreResult:
    """Run the adaptive discretization loop at fixed restriction cfg.eps.

    Terminates when every family's certified lower-level value is at or
    below minus its aux tolerance, which certifies the iterate feasible for
    the original semi-infinite program.  An infeasible discretized
    subproblem and an exhausted iteration budget are first-class outcomes.
    """
    yk = cfg.y0
    trace = trace if trace is not None else RunTrace()
    pool = pool if pool is not None else CutPool()
    cumulative_evals = trace.total_evals
    x_prev: np.ndarray | None = None

    for k in range(cfg.max_iters):
        pool.restrict_to_points(yk.points)
        dp = DiscretizedProblem(problem, cfg.eps, yk.points)
        solve = solve_discretized(
            dp,
            cfg.schedule.obj_tol(k),
            budget=cfg.solver_budget,
            x_hint=x_prev,
            pool=pool,
        )
        cumulative_evals += solve.evals
        if solve.status is SolveStatus.INFEASIBLE:
            trace.append(
                TraceRow(
                    k_offset + k, cfg.eps, yk.cardinality, np.nan, np.nan,
                    "infeasible", solve.lp_iters, cumulative_evals,
                )
            )
            return CoreResult(
                CoreStatus.INFEASIBLE_SUBPROBLEM, None, k + 1, trace, yk
            )
        if solve.status is SolveStatus.UNDECIDED:
            trace.append(
                TraceRow(
                    k_offset + k, cfg.eps, yk.cardinality,
                    solve.upper, np.nan, "budget", solve.lp_iters, cumulative_evals,
                )
            )
            return CoreResult(CoreStatus.BUDGET, solve.x, k + 1, trace, yk)

        xk = solve.x
        x_prev = xk
        aux: dict[int, CertifiedMax] = {}
        for fam in problem.constraints:
            cm = certified_max(fam, xk, cfg.schedule.aux_tol(k))
            cumulative_evals += cm.evals
            aux[fam.index] = cm
        worst = max(cm.value for cm in aux.values())

        violated = any(
            aux[fam.index].value > -cfg.schedule.aux_tol(k)
            for fam in problem.constraints
        )
        if not violated:
            trace.append(
                TraceRow(
                    k_offset + k, cfg.eps, yk.cardinality, solve.upper,
                    worst, "terminated", solve.lp_iters, cumulative_evals,
                )
            )
            return CoreResult(CoreStatus.TERMINATED, xk, k + 1, trace, yk)

        _, strongest = strongest_violator(aux)
        trace.append(
            TraceRow(
                k_offset + k, cfg.eps, yk.cardinality, solve.upper,
                worst, "violation", solve.lp_iters, cumulative_evals,
            )
        )
        yk = update_discretization(problem, yk, xk, cfg.eps, cfg.rho, strongest)

    return CoreResult(CoreStatus.BUDGET, x_prev, cfg.max_iters, trace, yk)
