"""Finitely terminating drivers built on the core loop.

run_feas_finite alternates the adaptive discretization step with a
restriction shrink whenever the discretized restricted problem turns out
infeasible; it terminates at a point feasible for the original semi-infinite
program whose objective is near the restricted optimum.

run_sequential repeats that driver with geometrically shrinking restrictions
for an a-priori number of stages computed from the regularity data, which
yields a delta-approximate solution with a termination index known up front.

run_simultaneous interleaves an unrestricted stream (lower reference values)
with a restricted stream (feasible candidates) and stops as soon as the two
objective values agree to delta/2 and the candidate certifies feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core_loop import (
    CutPool,
    Discretization,
    RunTrace,
    ToleranceSchedule,
    TraceRow,
    check_rho_regime,
    update_discretization,
)
from .errors import ConfigError, InputError
from .finite_solver import DiscretizedProblem, SolveStatus, solve_discretized
from .lower_level import (
    CertifiedMax,
    certified_feasibility_bound,
    certified_max,
    strongest_violator,
)
from .problem import (
    RegularityBundle,
    SipProblem,
    default_margin_resolution,
    derive_eps_star,
    feasibility_margin,
)

AUX_DELTA_FLOOR = 1e-15  # certified_max needs a positive gap request
POST_HOC_DELTA = 1e-9

DEFAULT_SOLVER_CALL_BUDGET = 1_000_000


@dataclass
class Budget:
    """Global budget on finite-solver invocations across a driver run."""

    solver_calls: int = DEFAULT_SOLVER_CALL_BUDGET
    used: int = 0

    def take(self) -> bool:
        if self.used >= self.solver_calls:
            return False
        self.used += 1
        return True


class OutcomeStatus(Enum):
    DELTA_APPROXIMATE = "DeltaApproximate"
    BUDGET_EXCEEDED = "BudgetExceeded"


@dataclass
class SolveOutcome:
    status: OutcomeStatus
    x_star: np.ndarray | None
    f_value: float
    feasibility_margin: float
    certified_bound: float  # tight post-hoc bound on max_i sup_y g_i
    iterations: dict[str, int]
    trace: RunTrace
    oracle_evals: int


@dataclass(frozen=True)
class SequentialConfig:
    delta: float
    r: float
    eps00: float
    schedule: ToleranceSchedule
    rho: float
    y0: Discretization
    regularity: RegularityBundle | None = None
    warm_start_discretization: bool = True
    inner_max_iters: int = 10_000
    solver_budget: int = 400

    def __post_init__(self):
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        if self.r <= 1:
            raise ConfigError("restriction shrink factor r must exceed 1")
        if self.eps00 <= 0:
            raise ConfigError("initial restriction eps00 must be positive")
        check_rho_regime(self.schedule, self.rho)


@dataclass(frozen=True)
class SimultaneousConfig:
    delta: float
    r: float
    eps0: float
    schedule: ToleranceSchedule
    rho: float
    y0_check: Discretization
    y0_hat: Discretization
    delta_star: float | None = None  # defaults to delta / 2
    max_iters: int = 10_000
    solver_budget: int = 400

    def __post_init__(self):
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        if self.r <= 1:
            raise ConfigError("restriction shrink factor r must exceed 1")
        if self.eps0 <= 0:
            raise ConfigError("initial restriction eps0 must be positive")
        if not self.schedule.sup_obj() < self.delta / 2:
            raise ConfigError(
                "simultaneous driver requires sup_k obj_tol(k) < delta/2 "
                f"(got sup {self.schedule.sup_obj():.3e} vs delta/2 "
                f"{self.delta / 2:.3e})"
            )
        check_rho_regime(self.schedule, self.rho)

    @property
    def termination_tolerance(self) -> float:
        return self.delta / 2 if self.delta_star is None else self.delta_star


@dataclass
class FeasFiniteResult:
    terminated: bool
    x: np.ndarray | None
    eps_terminal: float
    iterations: int
    trace: RunTrace
    discretization: Discretization
    final_objective: float = np.nan


def _aux_solve(
    problem: SipProblem, x: np.ndarray, delta: float
) -> tuple[dict[int, CertifiedMax], int]:
    out: dict[int, CertifiedMax] = {}
    evals = 0
    for fam in problem.constraints:
        cm = certified_max(fam, x, max(delta, AUX_DELTA_FLOOR))
        evals += cm.evals
        out[fam.index] = cm
    return out, evals


def run_feas_finite(
    problem: SipProblem,
    eps0: float,
    r: float,
    schedule: ToleranceSchedule,
    rho: float,
    y0: Discretization,
    budget: Budget | None = None,
    max_iters: int = 10_000,
    solver_budget: int = 400,
    trace: RunTrace | None = None,
    k_offset: int = 0,
    pool: CutPool | None = None,
    x_hint: np.ndarray | None = None,
) -> FeasFiniteResult:
    """Restriction-feasibility driver at shrink factor r.

    Every iteration either shrinks the restriction (discretized problem
    infeasible), refines the discretization around the strongest violator,
    or terminates with a point certified feasible for the original program.
    """
    if eps0 <= 0:
        raise InputError("eps0 must be positive")
    if r <= 1:
        raise InputError("r must exceed 1")
    check_rho_regime(schedule, rho)
    budget = budget if budget is not None else Budget()
    trace = trace if trace is not None else RunTrace()
    pool = pool if pool is not None else CutPool()
    eps = eps0
    yk = y0
    cumulative = trace.total_evals
    x_prev = x_hint

    for k in range(max_iters):
        if not budget.take():
            return FeasFiniteResult(False, x_prev, eps, k, trace, yk)
        pool.restrict_to_points(yk.points)
        dp = DiscretizedProblem(problem, eps, yk.points)
        solve = solve_discretized(
            dp, schedule.obj_tol(k), budget=solver_budget, x_hint=x_prev, pool=pool
        )
        cumulative += solve.evals
        if solve.status is SolveStatus.INFEASIBLE or (
            solve.status is SolveStatus.UNDECIDED and solve.x is None
        ):
            # undecided-without-iterate is coerced to infeasible: shrinking
            # the restriction is always safe, it only costs iterations
            trace.append(
                TraceRow(
                    k_offset + k, eps, yk.cardinality, np.nan, np.nan,
                    "infeasible", solve.lp_iters, cumulative,
                )
            )
            eps = eps / r
            continue
        if solve.status is SolveStatus.UNDECIDED:
            trace.append(
                TraceRow(
                    k_offset + k, eps, yk.cardinality, solve.upper, np.nan,
                    "budget", solve.lp_iters, cumulative,
                )
            )
            return FeasFiniteResult(False, solve.x, eps, k + 1, trace, yk)

        xk = solve.x
        x_prev = xk
        aux, aux_evals = _aux_solve(problem, xk, schedule.aux_tol(k))
        cumulative += aux_evals
        worst = max(cm.value for cm in aux.values())
        if all(
            aux[f.index].value <= -schedule.aux_tol(k) for f in problem.constraints
        ):
            trace.append(
                TraceRow(
                    k_offset + k, eps, yk.cardinality, solve.upper, worst,
                    "terminated", solve.lp_iters, cumulative,
                )
            )
            return FeasFiniteResult(
                True, xk, eps, k + 1, trace, yk, final_objective=solve.upper
            )
        _, violator = strongest_violator(aux)
        trace.append(
            TraceRow(
                k_offset + k, eps, yk.cardinality, solve.upper, worst,
                "violation", solve.lp_iters, cumulative,
            )
        )
        yk = update_discretization(problem, yk, xk, eps, rho, violator)

    return FeasFiniteResult(False, x_prev, eps, max_iters, trace, yk)


def compute_termination_index(
    delta: float,
    regularity: RegularityBundle,
    diam_x: float,
    eps00: float,
    r: float,
    obj_schedule,
    scan_limit: int = 100_000,
) -> int:
    """Smallest stage count m* so that from m* on the restriction is inside
    the regularity margin, the Lipschitz value bound is below delta/2, and
    the scheduled solve gap is below delta/2."""
    if delta <= 0:
        raise InputError("delta must be positive")
    if diam_x < 0 or eps00 <= 0 or r <= 1:
        raise InputError("need diam_x >= 0, eps00 > 0, r > 1")
    obj_tol = obj_schedule.obj_tol if isinstance(obj_schedule, ToleranceSchedule) else obj_schedule
    lip_factor = regularity.lipschitz_f * diam_x / regularity.eps_star
    m = 0
    while eps00 / r**m > regularity.eps_star or lip_factor * eps00 / r**m > delta / 2:
        m += 1
        if m > scan_limit:
            raise ConfigError("termination index scan failed on the value bound")
    for m_star in range(m, scan_limit):
        if obj_tol(m_star) <= delta / 2:
            return m_star
    raise ConfigError(
        "obj schedule never dips below delta/2; no valid termination index"
    )


def post_hoc_outcome(
    problem: SipProblem,
    x: np.ndarray,
    f_value: float,
    status: OutcomeStatus,
    iterations: dict[str, int],
    trace: RunTrace,
) -> SolveOutcome:
    bound = certified_feasibility_bound(problem.constraints, x, POST_HOC_DELTA)
    margin = feasibility_margin(problem, x, default_margin_resolution(problem))
    return SolveOutcome(
        status=status,
        x_star=x,
        f_value=f_value,
        feasibility_margin=margin,
        certified_bound=bound,
        iterations=iterations,
        trace=trace,
        oracle_evals=trace.total_evals,
    )


def budget_outcome(
    problem: SipProblem,
    x: np.ndarray | None,
    f_value: float,
    iterations: dict[str, int],
    trace: RunTrace,
) -> SolveOutcome:
    if x is None:
        return SolveOutcome(
            OutcomeStatus.BUDGET_EXCEEDED, None, np.nan, np.nan, np.nan,
            iterations, trace, trace.total_evals,
        )
    return post_hoc_outcome(
        problem, x, f_value, OutcomeStatus.BUDGET_EXCEEDED, iterations, trace
    )


def run_sequential(
    problem: SipProblem,
    cfg: SequentialConfig,
    budget: Budget | None = None,
    m_star: int | None = None,
) -> SolveOutcome:
    """Sequential driver: m* + 1 restriction-feasibility runs with the
    restriction divided by r between stages.  With m* from
    compute_termination_index the returned point is a delta-approximate
    solution of the semi-infinite program."""
    budget = budget if budget is not None else Budget()
    if m_star is None:
        reg = cfg.regularity
        if reg is None:
            reg = derive_eps_star(problem, oracle_tol=1e-9)
        m_star = compute_termination_index(
            cfg.delta, reg, problem.x_domain.diameter(), cfg.eps00, cfg.r,
            cfg.schedule,
        )
    trace = RunTrace()
    eps_m0 = cfg.eps00
    y_m0 = cfg.y0
    pool = CutPool()
    x_hint = None
    total_inner = 0
    last: FeasFiniteResult | None = None
    for m in range(m_star + 1):
        res = run_feas_finite(
            problem,
            eps_m0,
            cfg.r,
            cfg.schedule.shifted(m),
            cfg.rho,
            y_m0,
            budget=budget,
            max_iters=cfg.inner_max_iters,
            solver_budget=cfg.solver_budget,
            trace=trace,
            k_offset=total_inner + m,  # keep trace k strictly increasing
            pool=pool,
            x_hint=x_hint,
        )
        total_inner += res.iterations
        last = res
        if not res.terminated:
            return budget_outcome(
                problem, res.x, res.final_objective,
                {"outer": m + 1, "inner": total_inner}, trace,
            )
        eps_m0 = res.eps_terminal / cfg.r
        y_m0 = res.discretization if cfg.warm_start_discretization else cfg.y0
        if not cfg.warm_start_discretization:
            pool = CutPool()
        x_hint = res.x
    assert last is not None and last.x is not None
    return post_hoc_outcome(
        problem, last.x, last.final_objective, OutcomeStatus.DELTA_APPROXIMATE,
        {"outer": m_star + 1, "inner": total_inner}, trace,
    )


def run_simultaneous(
    problem: SipProblem,
    cfg: SimultaneousConfig,
    budget: Budget | None = None,
) -> SolveOutcome:
    """Simultaneous driver: one loop carrying an unrestricted stream (check
    values) and a restricted stream (feasible candidates).

    Per iteration the restricted problem is either infeasible (shrink the
    restriction), or the candidate value is still too far above the check
    value (shrink and refine the check stream), or the candidate violates
    (refine the candidate stream), or both tests pass and the candidate is
    returned."""
    budget = budget if budget is not None else Budget()
    trace = RunTrace()
    y_check, y_hat = cfg.y0_check, cfg.y0_hat
    pool_check, pool_hat = CutPool(), CutPool()
    eps = cfg.eps0
    delta_star = cfg.termination_tolerance
    x_check_hint = x_hat_hint = None
    cumulative = 0

    for k in range(cfg.max_iters):
        if not budget.take():
            break
        pool_check.restrict_to_points(y_check.points)
        check = solve_discretized(
            DiscretizedProblem(problem, 0.0, y_check.points),
            cfg.schedule.obj_tol(k),
            budget=cfg.solver_budget,
            x_hint=x_check_hint,
            pool=pool_check,
        )
        cumulative += check.evals
        if check.status is SolveStatus.INFEASIBLE:
            raise InputError(
                "unrestricted discretized problem is certified infeasible; the "
                "semi-infinite program itself is infeasible"
            )
        if check.status is SolveStatus.UNDECIDED:
            break
        x_check = check.x
        x_check_hint = x_check
        aux_check, aux_evals = _aux_solve(problem, x_check, cfg.schedule.aux_tol(k))
        cumulative += aux_evals

        if not budget.take():
            break
        pool_hat.restrict_to_points(y_hat.points)
        hat = solve_discretized(
            DiscretizedProblem(problem, eps, y_hat.points),
            cfg.schedule.obj_tol(k),
            budget=cfg.solver_budget,
            x_hint=x_hat_hint,
            pool=pool_hat,
        )
        cumulative += hat.evals
        if hat.status is SolveStatus.INFEASIBLE or (
            hat.status is SolveStatus.UNDECIDED and hat.x is None
        ):
            trace.append(
                TraceRow(
                    k, eps, y_hat.cardinality, np.nan, np.nan,
                    "hat_infeasible", check.lp_iters + hat.lp_iters, cumulative,
                )
            )
            eps = eps / cfg.r
            continue
        if hat.status is SolveStatus.UNDECIDED:
            break
        x_hat = hat.x
        x_hat_hint = x_hat
        aux_hat, aux_evals = _aux_solve(problem, x_hat, cfg.schedule.aux_tol(k))
        cumulative += aux_evals
        worst_hat = max(cm.value for cm in aux_hat.values())

        if hat.upper > check.upper + delta_star:
            trace.append(
                TraceRow(
                    k, eps, y_hat.cardinality, hat.upper, worst_hat,
                    "value_gap", check.lp_iters + hat.lp_iters, cumulative,
                )
            )
            eps = eps / cfg.r
            _, violator = strongest_violator(aux_check)
            y_check = update_discretization(
                problem, y_check, x_check, 0.0, cfg.rho, violator
            )
            continue
        hat_violated = any(
            aux_hat[f.index].value > -cfg.schedule.aux_tol(k)
            for f in problem.constraints
        )
        if hat_violated:
            trace.append(
                TraceRow(
                    k, eps, y_hat.cardinality, hat.upper, worst_hat,
                    "hat_violation", check.lp_iters + hat.lp_iters, cumulative,
                )
            )
            _, violator = strongest_violator(aux_hat)
            y_hat = update_discretization(
                problem, y_hat, x_hat, eps, cfg.rho, violator
            )
            continue
        trace.append(
            TraceRow(
                k, eps, y_hat.cardinality, hat.upper, worst_hat,
                "terminated", check.lp_iters + hat.lp_iters, cumulative,
            )
        )
        return post_hoc_outcome(
            problem, x_hat, hat.upper, OutcomeStatus.DELTA_APPROXIMATE,
            {"outer": 1, "inner": k + 1}, trace,
        )

    best_x = x_hat_hint if x_hat_hint is not None else x_check_hint
    best_f = float(problem.objective.value(best_x)) if best_x is not None else np.nan
    return budget_outcome(
        problem, best_x, best_f, {"outer": 1, "inner": len(trace.rows)}, trace,
    )
