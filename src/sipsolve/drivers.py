"""Finitely terminating drivers built on the core loop's step.

Every driver iteration runs ``core_loop.Stream.step`` on a stream, one
discretization sequence, and maps its outcome to a branch of its own.

run_feas_finite alternates that step with a restriction shrink of its
stream whenever the discretized restricted problem turns out infeasible; it
terminates at a point feasible for the original semi-infinite program whose
objective is near the restricted optimum.  An infeasibility certificate
rules out every restriction down to a level of its own, and the shrink
(``shrink_restriction``) moves past all of them at once.

run_sequential hands one stream through that driver with geometrically
shrinking restrictions.  The paper's a-priori stage count m* + 1, computed
from the Slater point's certified margin eps* and the objective's Lipschitz
constant, bounds the run; after each earlier stage one unrestricted solve on
the stage's points bounds the optimum from below (a finite subset of the
index set relaxes the program), and the run stops as soon as that bound
certifies the stage's point delta-optimal.

run_simultaneous interleaves an unrestricted stream (lower reference values)
with a restricted stream (feasible candidates) and stops as soon as the two
objective values agree to delta/2 and the candidate certifies feasible.  Its
unrestricted stream only solves (``Stream.solve``), reusing a solve of
unchanged points that still meets the gap, and certifies only when a
value_gap branch refines it.

A run's one limit, a safety stop, is its config's max_iters: discretization
steps over all stages of run_sequential, paired check/candidate iterations
of run_simultaneous.  Reaching it ends the run as BudgetExceeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import lower_level
from .core_loop import (
    CoreResult,
    CoreStatus,
    Discretization,
    RunTrace,
    Stream,
    ToleranceSchedule,
    check_max_iters,
    check_rho_regime,
)
from .errors import CertificationError, ConfigError, InputError
from .finite_solver import CutPool, DiscretizedProblem, SolveStatus, solve_discretized
from .problem import FEASTOL, SipProblem

POST_HOC_DELTA = 1e-9

# compute_termination_index gives up after this many stages.
TERMINATION_SCAN_LIMIT = 100_000


def check_delta(delta: float) -> None:
    if not 0 < delta < np.inf:  # also false for NaN
        raise ConfigError("delta must be positive and finite")


def check_restriction(r: float, eps0: float) -> None:
    """A finite shrink factor above 1 and a finite positive restriction."""
    if not 1 < r < np.inf:
        raise ConfigError("restriction shrink factor r must be finite and exceed 1")
    if not 0 < eps0 < np.inf:
        raise ConfigError("initial restriction must be positive and finite")


class OutcomeStatus(Enum):
    DELTA_APPROXIMATE = "DeltaApproximate"
    # certified feasible, with no claim about the optimum (a core run)
    FEASIBLE = "Feasible"
    BUDGET_EXCEEDED = "BudgetExceeded"


@dataclass
class SolveOutcome:
    status: OutcomeStatus
    x_star: np.ndarray | None
    f_value: float
    # worst certified value max_i g_i(x_star, y_i*), attained on Y
    feasibility_margin: float
    # bound on max_i sup_y g_i(x_star, .), at most margin + POST_HOC_DELTA
    certified_bound: float
    outer: int  # stages run
    trace: RunTrace
    # why margin and bound are NaN at x_star: the certification ran out
    certification_error: str | None

    @property
    def iterations(self) -> dict[str, int]:
        """Stages run and discretization steps (trace rows) over all of them."""
        return {"outer": self.outer, "inner": len(self.trace.rows)}

    @property
    def oracle_evals(self) -> int:
        return self.trace.total_evals


@dataclass(frozen=True)
class SequentialConfig:
    delta: float
    r: float
    eps00: float
    schedule: ToleranceSchedule
    rho: float
    y0: Discretization
    max_iters: int = 10_000  # discretization steps over all stages

    def __post_init__(self):
        check_delta(self.delta)
        check_restriction(self.r, self.eps00)
        check_rho_regime(self.schedule, self.rho)
        check_max_iters(self.max_iters)


@dataclass(frozen=True)
class SimultaneousConfig:
    delta: float
    r: float
    eps0: float
    schedule: ToleranceSchedule
    rho: float
    y0_check: Discretization
    y0_hat: Discretization
    max_iters: int = 10_000  # paired check/candidate iterations

    def __post_init__(self):
        check_delta(self.delta)
        check_restriction(self.r, self.eps0)
        if not self.schedule.sup_obj() < self.delta / 2:
            raise ConfigError(
                "simultaneous driver requires sup_k obj_tol(k) < delta/2 "
                f"(got sup {self.schedule.sup_obj():.3e} vs delta/2 "
                f"{self.delta / 2:.3e})"
            )
        check_rho_regime(self.schedule, self.rho)
        check_max_iters(self.max_iters)


def shrink_restriction(eps: float, violation_bound: float | None, r: float) -> float:
    """The restriction after a solve at eps that returned no point: eps / r**j
    for the smallest j >= 1 with eps / r**j <= level, where level = eps -
    violation_bound + FEASTOL.

    An INFEASIBLE solve at eps certifies min_x max_i g(x, y_i) >=
    violation_bound - eps on its index points, and the finite solver accepts
    only points where that maximum is at most -eps' + FEASTOL, so every
    restriction eps' above the level would be infeasible too.  The level is
    widened by 2 ulp(eps), the rounding violation_bound - eps can carry:
    at eps = 1e299 it would otherwise lose a bound of -2 to cancellation and
    skip restrictions the certificate leaves open.  A level of zero or below
    leaves no restriction feasible: the program itself is infeasible, an
    InputError.  An undecided solve (violation_bound None) certifies nothing
    and gives eps / r."""
    if violation_bound is None:
        return eps / r
    level = eps - violation_bound + FEASTOL + 2 * math.ulp(eps)
    if not level > 0:
        raise InputError(
            "discretized problem is certified infeasible at every restriction; "
            "the semi-infinite program itself is infeasible"
        )
    j = max(1, math.ceil((math.log(eps) - math.log(level)) / math.log(r)))
    # the logarithms fix j up to rounding; settle it exactly
    while j > 1 and eps / r ** (j - 1) <= level:
        j -= 1
    while eps / r**j > level:
        j += 1
    return eps / r**j


def run_feas_finite(
    stream: Stream,
    r: float,
    schedule: ToleranceSchedule,
    rho: float,
    max_iters: int = 10_000,
    trace: RunTrace | None = None,
) -> CoreResult:
    """Restriction-feasibility driver at shrink factor r on ``stream``.

    Every iteration either shrinks the stream's restriction (discretized
    problem infeasible), refines its discretization around the strongest
    violator, or terminates with a point certified feasible for the original
    program.  A shrink skips every restriction the solve's infeasibility
    certificate rules out (``shrink_restriction``); one that leaves none
    raises InputError, since the program itself is then infeasible.  Each
    iteration appends one row to ``trace`` (a new trace when None).  The
    result is TERMINATED or BUDGET, at the stream's latest point; the stream
    keeps its final restriction and points.
    """
    check_restriction(r, stream.eps)
    check_rho_regime(schedule, rho)
    check_max_iters(max_iters)
    trace = trace if trace is not None else RunTrace()
    status = CoreStatus.BUDGET

    for k in range(max_iters):
        step = stream.step(schedule, k)
        if step.x is None:
            # infeasible, or undecided without an iterate, which is coerced
            # to infeasible: shrinking the restriction is always safe, it
            # only costs iterations
            step.record(trace, "infeasible")
            stream.eps = shrink_restriction(stream.eps, step.solve.violation_bound, r)
            continue
        if step.solve.status is SolveStatus.UNDECIDED:
            step.record(trace, "budget")
            break
        if step.terminated:
            step.record(trace, "terminated")
            status = CoreStatus.TERMINATED
            break
        step.record(trace, "violation")
        stream.refine(step, rho)

    return CoreResult(status, stream.x, trace, stream.points)


def compute_termination_index(
    delta: float,
    eps_star: float,
    lipschitz_f: float | None,
    diam_x: float,
    eps00: float,
    r: float,
    obj_tol,
) -> int:
    """Smallest stage count m* so that from m* on the restriction is inside
    the strict-feasibility margin eps_star, the Lipschitz value bound is
    below delta/2, and the scheduled solve gap obj_tol(m*) is below delta/2.

    The first two hold once the restriction eps00 / r**m is at most eps_star
    and (delta/2) * eps_star / (L * diam_x), L = lipschitz_f being the
    objective's max-norm Lipschitz constant.  Comparing restrictions keeps a
    huge L * diam_x / eps_star from overflowing; when r**m leaves the float
    range before the restriction gets there, there is no valid m*."""
    check_delta(delta)
    check_restriction(r, eps00)
    if not 0 <= diam_x < np.inf:
        raise InputError("need a finite diam_x >= 0")
    if not 0 < eps_star < np.inf:  # also false for NaN
        raise InputError("eps_star must be positive and finite")
    if lipschitz_f is None or not 0 < lipschitz_f < np.inf:
        raise InputError(
            "the objective's Lipschitz constant must be given, positive and finite"
        )
    eps_max = eps_star
    lip_diam = lipschitz_f * diam_x
    if lip_diam > 0:
        eps_max = min(eps_max, delta / 2 * eps_star / lip_diam)
    m = 0
    try:
        while eps00 / math.pow(r, m) > eps_max and m <= TERMINATION_SCAN_LIMIT:
            m += 1
    except OverflowError:
        m = TERMINATION_SCAN_LIMIT + 1
    if m > TERMINATION_SCAN_LIMIT or eps_max == 0:
        raise ConfigError(
            "termination index scan failed on the value bound: the restriction "
            "cannot shrink below it in floating point"
        )
    for m_star in range(m, TERMINATION_SCAN_LIMIT):
        if obj_tol(m_star) <= delta / 2:
            return m_star
    raise ConfigError(
        "obj schedule never dips below delta/2; no valid termination index"
    )


def post_hoc_outcome(
    problem: SipProblem,
    x: np.ndarray,
    status: OutcomeStatus,
    outer: int,
    trace: RunTrace,
) -> SolveOutcome:
    """The outcome at x after ``outer`` stages: f(x) and the certified
    constraint bound.  If the certification runs out of cells, the run keeps
    its point: the outcome is BudgetExceeded at x with no margin or bound,
    and says why."""
    margin = bound = np.nan
    error = None
    try:
        cert = lower_level.certified_max(problem.constraints, x, POST_HOC_DELTA)
        margin, bound = cert.value, cert.bound
    except CertificationError as exc:
        status, error = OutcomeStatus.BUDGET_EXCEEDED, str(exc)
    return SolveOutcome(
        status=status,
        x_star=x,
        f_value=float(problem.objective.value(x)),
        feasibility_margin=margin,
        certified_bound=bound,
        outer=outer,
        trace=trace,
        certification_error=error,
    )


def budget_outcome(
    problem: SipProblem,
    x: np.ndarray | None,
    outer: int,
    trace: RunTrace,
) -> SolveOutcome:
    """A budget stop's outcome: at the last iterate, if there is one."""
    if x is None:
        return SolveOutcome(
            OutcomeStatus.BUDGET_EXCEEDED, None, np.nan, np.nan, np.nan,
            outer, trace, None,
        )
    return post_hoc_outcome(problem, x, OutcomeStatus.BUDGET_EXCEEDED, outer, trace)


def _certified_delta_optimal(
    problem: SipProblem, stream: Stream, delta: float, trace: RunTrace
) -> bool:
    """Whether the stream's point, certified feasible by the step on the
    trace's last row, lies within delta of a certified lower bound: that of
    the unrestricted problem on the stream's points, solved to gap delta/4.
    The last row counts the solve's LP iterations and evaluations."""
    check = solve_discretized(
        DiscretizedProblem(problem, 0.0, stream.points.points),
        delta / 4,
        x_hint=stream.x,
        pool=CutPool(),
    )
    row = trace.rows[-1]
    row.lp_iters += check.lp_iters
    row.oracle_evals += check.evals
    return (
        check.status is SolveStatus.FEASIBLE
        and float(problem.objective.value(stream.x)) - check.lower <= delta
    )


def run_sequential(
    problem: SipProblem,
    cfg: SequentialConfig,
    m_star: int | None = None,
) -> SolveOutcome:
    """Sequential driver: at most m* + 1 restriction-feasibility runs on one
    stream, with its restriction divided by r between stages.  With m* from
    compute_termination_index the point after the last stage is a
    delta-approximate solution of the semi-infinite program.

    Each earlier stage ends on a point x certified feasible for the program.
    One unrestricted solve on the stage's points, at gap delta/4, from x and
    with a cut pool of its own, gives a certified lower bound on the
    program's optimum; when f(x) exceeds it by at most delta, the run stops
    there, delta-approximate after m + 1 stages.  The stage's terminated row
    counts that solve's LP iterations and evaluations.  Any other outcome of
    the check just moves on to the next stage.

    The stages share cfg.max_iters discretization steps.  eps* is
    ``problem.eps_star``; a cell stop in certifying it ends the run
    BudgetExceeded before its first stage."""
    if m_star is None:
        try:
            eps_star = problem.eps_star
        except CertificationError as exc:
            stop = budget_outcome(problem, None, 0, RunTrace())
            return replace(stop, certification_error=str(exc))
        m_star = compute_termination_index(
            cfg.delta, eps_star, problem.objective.lipschitz_constant,
            problem.x_domain.diameter(), cfg.eps00, cfg.r, cfg.schedule.obj_tol,
        )
    trace = RunTrace()
    stream = Stream(problem, cfg.eps00, cfg.y0)
    for m in range(m_star + 1):
        res = run_feas_finite(
            stream,
            cfg.r,
            cfg.schedule.shifted(m),
            cfg.rho,
            max_iters=cfg.max_iters - len(trace.rows),
            trace=trace,
        )
        if res.status is not CoreStatus.TERMINATED:
            return budget_outcome(problem, res.x, m + 1, trace)
        if m < m_star and _certified_delta_optimal(problem, stream, cfg.delta, trace):
            return post_hoc_outcome(
                problem, stream.x, OutcomeStatus.DELTA_APPROXIMATE, m + 1, trace
            )
        stream.eps = stream.eps / cfg.r
    return post_hoc_outcome(
        problem, stream.x, OutcomeStatus.DELTA_APPROXIMATE, m_star + 1, trace
    )


def run_simultaneous(
    problem: SipProblem,
    cfg: SimultaneousConfig,
) -> SolveOutcome:
    """Simultaneous driver: one loop carrying an unrestricted stream (check
    values) and a restricted stream (feasible candidates).

    Per iteration the restricted problem is either infeasible (shrink the
    restriction past every level its certificate rules out), or the
    candidate value is still too far above the check value (shrink and
    refine the check stream), or the candidate violates (refine the
    candidate stream), or both tests pass and the candidate is returned.

    The check solve runs first, so a certified infeasible program raises at
    iteration 0.  While the check stream's points are unchanged, its last
    solve is reused whenever its gap meets this iteration's; its certificate
    is computed only in the value_gap branch, the one branch that reads it,
    at that iteration's gap.  Each row counts the work of its own iteration
    only."""
    trace = RunTrace()
    check = Stream(problem, 0.0, cfg.y0_check)
    hat = Stream(problem, cfg.eps0, cfg.y0_hat)

    check_step = None
    for k in range(cfg.max_iters):
        check_step = check.solve(cfg.schedule, k, last=check_step)
        if check_step.solve.status is SolveStatus.INFEASIBLE:
            raise InputError(
                "unrestricted discretized problem is certified infeasible; the "
                "semi-infinite program itself is infeasible"
            )
        if check_step.solve.status is SolveStatus.UNDECIDED:
            check_step.record(trace, "budget")
            break

        hat_step = hat.step(cfg.schedule, k)
        if hat_step.x is None:
            hat_step.record(trace, "hat_infeasible", also=check_step)
            hat.eps = shrink_restriction(hat.eps, hat_step.solve.violation_bound, cfg.r)
            continue
        if hat_step.solve.status is SolveStatus.UNDECIDED:
            hat_step.record(trace, "budget", also=check_step)
            break

        if hat_step.solve.upper > check_step.solve.upper + cfg.delta / 2:
            check.certify(check_step)
            hat_step.record(trace, "value_gap", also=check_step)
            hat.eps = hat.eps / cfg.r
            check.refine(check_step, cfg.rho)
            continue
        if not hat_step.terminated:
            hat_step.record(trace, "hat_violation", also=check_step)
            hat.refine(hat_step, cfg.rho)
            continue
        hat_step.record(trace, "terminated", also=check_step)
        return post_hoc_outcome(
            problem, hat_step.x, OutcomeStatus.DELTA_APPROXIMATE, 1, trace
        )

    best_x = hat.x if hat.x is not None else check.x
    return budget_outcome(problem, best_x, 1, trace)
