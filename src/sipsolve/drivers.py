"""Finitely terminating drivers built on the core loop's step.

Every driver iteration runs ``core_loop.Stream.step`` on a stream, one
discretization sequence, and maps its outcome to a branch of its own.

run_feas_finite alternates that step with a restriction shrink of its
stream whenever the discretized restricted problem turns out infeasible; it
terminates at a point feasible for the original semi-infinite program whose
objective is near the restricted optimum.  An infeasibility certificate
rules out every restriction down to a level of its own, and the shrink
(``shrink_restriction``) moves past all of them at once; a certificate that
leaves no restriction open raises InfeasibleProgramError.
synthesize_slater_point runs one such stream from restriction 1 to find a
strictly feasible point for a problem that declares none (the exchange
method of Blankenship and Falk).

run_sequential hands one stream through that driver with geometrically
shrinking restrictions.  The paper's a-priori stage count m* + 1 bounds the
run; after each earlier stage one unrestricted solve on the stage's points
bounds the optimum from below (a finite subset of the index set relaxes the
program), and the run stops as soon as that bound certifies the stage's
point delta-optimal.

One rule turns what a run knows into a restriction.  The optimal value v(e)
of the program restricted by e is convex in e, so a point feasible at
restriction e whose f exceeds a lower bound on the optimum by a gap proves
every restriction at or below ``value_level(e, gap, delta)`` within delta/2
of the optimum.  m* is the stage of that level for the Slater point's
certified margin eps* and the a-priori gap L * diam(X), L the objective's
Lipschitz constant.  run_sequential's first stage is the stage of that level
for eps* and the gap one unrestricted solve on the first points measures,
at most m*; after a check that does not pass it goes straight to the level
of the stage's point and check, skipping the stages in between
(``value_shrink_steps``), and run_simultaneous's value_gap branch does the
same for its candidate stream.  The skips, the infeasibility shrink and the
restriction count of m* are eps / r**j for the smallest j at or below a
level (``shrink_steps``), the one place that turns a level into a
restriction count.

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
import sys
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
    geometric_schedule,
)
from .errors import CertificationError, ConfigError, InfeasibleProgramError, InputError
from .finite_solver import (
    CutPool,
    DiscretizedProblem,
    DiscretizedSolveResult,
    SolveStatus,
    solve_discretized,
)
from .problem import FEASTOL, SipProblem

POST_HOC_DELTA = 1e-9

# compute_termination_index's obj_tol scan gives up after this many stages.
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
    # stages run: 1 for run_simultaneous and a core run, at most m* + 1 for
    # run_sequential, whose stage index may move by more than one
    outer: int
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


def shrink_steps(eps: float, level: float, r: float) -> int:
    """The smallest j >= 0 with eps / r**j <= level: 0 when eps is at or
    below the level, else the shrink from eps past every restriction above
    it.  The restriction stays positive: when no positive eps / r**j reaches
    the level, j is the largest that leaves one."""

    def shrunk(j: int) -> float:
        try:
            return eps / r**j
        except OverflowError:
            return 0.0

    if eps <= level:
        return 0
    j = 1
    if shrunk(1) > level:
        tiny = max(level, math.ulp(0.0))
        j = math.ceil((math.log(eps) - math.log(tiny)) / math.log(r))
        # no further than r**j stays finite, so that settling never walks
        # back across the overflow one j at a time
        j = max(1, min(j, math.floor(math.log(sys.float_info.max) / math.log(r))))
    # the logarithms fix j up to rounding; settle it exactly
    while j > 1 and (shrunk(j) == 0 or shrunk(j - 1) <= level):
        j -= 1
    while shrunk(j) > level and shrunk(j + 1) > 0:
        j += 1
    return j


def value_level(e: float, gap: float, delta: float) -> float:
    """The largest restriction that convexity proves within delta/2 of the
    optimum v*, from a point x feasible for the program restricted by e
    whose f(x) exceeds a certified lower bound on v* by ``gap``: min(e,
    (delta/2) e / gap) for gap > 0, else e.

    v(e) <= f(x), and the optimal value v(t) of the program restricted by t
    is convex in t, the perturbation function of a convex program, so v(t)
    - v* <= (t / e) * gap on [0, e]."""
    return min(e, delta / 2 * e / gap) if gap > 0 else e


def shrink_restriction(eps: float, violation_bound: float | None, r: float) -> float:
    """The restriction after a solve at eps that returned no point: eps / r**j
    for the smallest j >= 1 with eps / r**j <= level = FEASTOL -
    violation_bound (``shrink_steps``).

    An INFEASIBLE solve certifies min_x max_i g(x, y_i) >= violation_bound
    on its index points, and the finite solver accepts only points where
    that maximum is at most -eps' + FEASTOL, so every restriction eps' above
    the level would be infeasible too.  A level of zero or below leaves no
    restriction feasible: the program itself is infeasible, an
    InfeasibleProgramError.
    An undecided solve (violation_bound None) certifies nothing and gives
    eps / r."""
    if violation_bound is None:
        return eps / r
    level = FEASTOL - violation_bound
    if not level > 0:
        raise InfeasibleProgramError(
            "discretized problem is certified infeasible at every restriction; "
            "the semi-infinite program itself is infeasible"
        )
    return eps / r ** max(1, shrink_steps(eps, level, r))


def value_shrink_steps(
    eps: float, bound: float, gap: float | None, delta: float, r: float
) -> int:
    """The shrink j >= 1 from eps after a point x with sup_y g(x, y) <=
    bound certified, whose f(x) exceeds a certified lower bound on the
    optimum by ``gap`` > delta/2: to the first restriction eps / r**j at or
    below ``value_level(-bound, gap, delta)``.  With bound < 0, x is
    feasible for the program restricted by -bound.  A point not certified
    strictly feasible (bound >= 0), or a gap that is not known (None), gives
    j = 1."""
    if gap is None or not bound < 0:
        return 1
    return max(1, shrink_steps(eps, value_level(-bound, gap, delta), r))


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
    raises InfeasibleProgramError, since the program itself is then
    infeasible.  Each iteration appends one row to ``trace`` (a new trace
    when None).  The result is TERMINATED, with the terminating step's
    certificate, or BUDGET, at the stream's latest point; the stream keeps
    its final restriction and points.
    """
    check_restriction(r, stream.eps)
    check_rho_regime(schedule, rho)
    check_max_iters(max_iters)
    trace = trace if trace is not None else RunTrace()

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
            return CoreResult(CoreStatus.TERMINATED, stream.x, trace, step.cert)
        step.record(trace, "violation")
        stream.refine(step, rho, trace)

    return CoreResult(CoreStatus.BUDGET, stream.x, trace)


def synthesize_slater_point(problem: SipProblem) -> SipProblem:
    """A strictly feasible point for a problem that declares none, by the
    exchange method of Blankenship and Falk (JOTA 19, 1976): one
    ``run_feas_finite`` stream from the index-box center at restriction 1,
    r = 2, rho = inf.  Each infeasible restricted solve shrinks the
    restriction past every level its certificate rules out, while the
    stream keeps its points and cut pool.  A terminated run gives
    ``replace(problem, slater_point=x)``, returned with its ``eps_star``
    certificate kept when that certifies.  Returns ``problem`` itself
    otherwise: on a budget stop, a point whose certificate fails, or a
    program certified infeasible at every restriction."""
    y0 = Discretization(problem.y_domain.center().reshape(1, -1))
    try:
        res = run_feas_finite(
            Stream(problem, 1.0, y0), 2.0, geometric_schedule(0.5), np.inf
        )
    except InfeasibleProgramError:
        return problem
    if res.status is not CoreStatus.TERMINATED:
        return problem
    found = replace(problem, slater_point=res.x)
    try:
        found.eps_star
    except InputError:
        return problem
    return found


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
    the strict-feasibility margin eps_star, the value bound is below
    delta/2, and the scheduled solve gap obj_tol(m*) is below delta/2.

    The first two hold once the restriction eps00 / r**m is at most eps_max
    = ``value_level(eps_star, L * diam_x, delta)``, L = lipschitz_f being
    the objective's max-norm Lipschitz constant: the Slater point is
    feasible at restriction eps_star, and L * diam_x bounds its objective
    gap a priori.  m is ``shrink_steps(eps00, eps_max, r)``.  Comparing
    restrictions keeps a huge L * diam_x / eps_star from overflowing; when
    no positive restriction in the float range gets there, there is no valid
    m*.  From m on, the first stage
    whose obj_tol is at most delta/2 within TERMINATION_SCAN_LIMIT stages
    is m*."""
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
    eps_max = value_level(eps_star, lipschitz_f * diam_x, delta)
    m = shrink_steps(eps00, eps_max, r)
    if eps00 / r**m > eps_max:
        raise ConfigError(
            "termination index scan failed on the value bound: the restriction "
            "cannot shrink below it in floating point"
        )
    for m_star in range(m, m + TERMINATION_SCAN_LIMIT):
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


def _check_gap(
    problem: SipProblem, points: Discretization, delta: float, x: np.ndarray
) -> tuple[DiscretizedSolveResult, float | None]:
    """The unrestricted problem on ``points`` solved to gap delta/4 from x,
    with a cut pool of its own, and f(x) minus the solve's lower bound, None
    unless the solve is FEASIBLE.  A finite subset of the index set relaxes
    the program, so that lower bound is one on its optimum.  The solve's
    evaluations include the one of f(x)."""
    dp = DiscretizedProblem(problem, 0.0, points.points)
    check = solve_discretized(dp, delta / 4, x_hint=x, pool=CutPool())
    if check.status is not SolveStatus.FEASIBLE:
        return check, None
    gap = float(problem.objective.value(x)) - check.lower
    return replace(check, evals=check.evals + 1), gap


def _slater_stage(
    problem: SipProblem, cfg: SequentialConfig, m_star: int
) -> tuple[int, DiscretizedSolveResult | None]:
    """run_sequential's first stage, and the solve that chose it.

    The Slater point x_s is certified at sup_y g(x_s, y) <= -eps*, so it is
    feasible for the program restricted by eps*, and ``_check_gap`` on
    cfg.y0 from x_s gives a gap f(x_s) - lower.  The first stage is the
    first restriction at or below ``value_level(eps*, gap, delta)``, capped
    at m*.  Stage 0 when that solve is not FEASIBLE, and stage 0 without a
    solve when there is no Slater point, no margin certified for it, no
    stage to skip (m* = 0) or no step to count the solve on (max_iters =
    0)."""
    if problem.slater_point is None or m_star == 0 or cfg.max_iters == 0:
        return 0, None
    try:
        eps_star = problem.eps_star
    except (CertificationError, InputError):
        return 0, None
    seed, gap = _check_gap(problem, cfg.y0, cfg.delta, problem.slater_point)
    if gap is None:
        return 0, seed
    level = value_level(eps_star, gap, cfg.delta)
    return min(m_star, shrink_steps(cfg.eps00, level, cfg.r)), seed


def run_sequential(
    problem: SipProblem,
    cfg: SequentialConfig,
    m_star: int | None = None,
) -> SolveOutcome:
    """Sequential driver: restriction-feasibility runs on one stream, stage
    m at restriction at most eps00 / r**m, up to stage m*.  With m* from
    compute_termination_index the point after stage m* is a
    delta-approximate solution of the semi-infinite program.

    The first stage is j0 <= m*, the first restriction at or below the
    level that the Slater point's certificate and one unrestricted solve on
    cfg.y0 give (``_slater_stage``); the first row counts that solve's LP
    iterations, and every row's cumulative evaluations its evaluations and
    the one of f(x_s).  Without a Slater point, or when that solve is not
    FEASIBLE, the first stage is 0.

    Each stage m < m* ends on a point x certified feasible for the program.
    One unrestricted solve on the stage's points (``_check_gap``) gives a
    certified lower bound on the program's optimum; when f(x) exceeds it by
    at most delta, the run stops there, delta-approximate.  The stage's
    terminated row counts that solve's LP iterations and evaluations and the
    one of f(x).  Otherwise the restriction shrinks to the first eps / r**j
    at or below the level of x's certificate and that gap
    (``value_shrink_steps``), with j capped at m* - m, and the next stage is
    m + j; an undecided check gives j = 1.  So at most m* + 1 stages run,
    m* + 1 - j0 when the run starts at j0.

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
    m, seed = _slater_stage(problem, cfg, m_star)
    trace = RunTrace()
    stream = Stream(problem, cfg.eps00 / cfg.r**m, cfg.y0)
    stages = 0
    while True:
        res = run_feas_finite(
            stream,
            cfg.r,
            cfg.schedule.shifted(m),
            cfg.rho,
            max_iters=cfg.max_iters - len(trace.rows),
            trace=trace,
        )
        if not stages and seed is not None:
            # the first stage's rows also count the solve that chose it
            trace.rows[0].lp_iters += seed.lp_iters
            for row in trace.rows:
                row.oracle_evals += seed.evals
        stages += 1
        if res.status is not CoreStatus.TERMINATED:
            return budget_outcome(problem, res.x, stages, trace)
        if m == m_star:
            break
        check, gap = _check_gap(problem, stream.points, cfg.delta, stream.x)
        trace.rows[-1].lp_iters += check.lp_iters
        trace.rows[-1].oracle_evals += check.evals
        if gap is not None and gap <= cfg.delta:
            break
        j = value_shrink_steps(stream.eps, res.cert.bound, gap, cfg.delta, cfg.r)
        j = min(j, m_star - m)
        stream.eps = stream.eps / cfg.r**j
        m += j
    return post_hoc_outcome(
        problem, stream.x, OutcomeStatus.DELTA_APPROXIMATE, stages, trace
    )


def run_simultaneous(
    problem: SipProblem,
    cfg: SimultaneousConfig,
) -> SolveOutcome:
    """Simultaneous driver: one loop carrying an unrestricted stream (check
    values) and a restricted stream (feasible candidates).

    Per iteration the restricted problem is either infeasible (shrink the
    restriction past every level its certificate rules out), or the
    candidate value is still too far above the check value (value_gap:
    refine the check stream, and shrink the restriction to the first eps /
    r**j that convexity proves within delta/2 of the optimum, from the
    candidate's certificate and the check solve's lower bound,
    ``value_shrink_steps``; a candidate not certified strictly feasible
    gives eps / r; a candidate that did not terminate is refined too, from
    the certificate its step already holds), or the candidate violates
    (refine the candidate stream), or both tests pass and the candidate is
    returned.

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
            raise InfeasibleProgramError(
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
            gap = hat_step.solve.upper - check_step.solve.lower
            j = value_shrink_steps(hat.eps, hat_step.cert.bound, gap, cfg.delta, cfg.r)
            hat.eps = hat.eps / cfg.r**j
            check.refine(check_step, cfg.rho, trace)
            if not hat_step.terminated:
                hat.refine(hat_step, cfg.rho, trace)
            continue
        if not hat_step.terminated:
            hat_step.record(trace, "hat_violation", also=check_step)
            hat.refine(hat_step, cfg.rho, trace)
            continue
        hat_step.record(trace, "terminated", also=check_step)
        return post_hoc_outcome(
            problem, hat_step.x, OutcomeStatus.DELTA_APPROXIMATE, 1, trace
        )

    best_x = hat.x if hat.x is not None else check.x
    return budget_outcome(problem, best_x, 1, trace)
