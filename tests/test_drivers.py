import csv
import io
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sipsolve import core_loop, drivers, finite_solver, lower_level
from sipsolve.core_loop import (
    CoreConfig,
    CoreStatus,
    Discretization,
    RunTrace,
    Stream,
    ToleranceSchedule,
    eventually_zero_schedule,
    geometric_schedule,
    run_core,
)
from sipsolve.drivers import (
    POST_HOC_DELTA,
    OutcomeStatus,
    SequentialConfig,
    SimultaneousConfig,
    budget_outcome,
    compute_termination_index,
    post_hoc_outcome,
    run_feas_finite,
    run_sequential,
    run_simultaneous,
    synthesize_slater_point,
)
from sipsolve.errors import (
    CertificationError,
    ConfigError,
    InfeasibleProgramError,
    InputError,
)
from sipsolve.instances import builtin, default_y0, random_affine_instance
from sipsolve.lower_level import CertifiedMax
from sipsolve.problem import (
    FEASTOL,
    SLATER_DELTA,
    BoxDomain,
    ConstraintFamily,
    ConvexObjective,
    SipProblem,
    default_margin_resolution,
    feasibility_margin,
)
from sipsolve.serialization import load_problem, write_outcome_json, write_trace_csv


def single(y):
    return Discretization(np.array([[y]]))


def sim_schedule(delta, aux0=0.1):
    return ToleranceSchedule(delta / 4, aux0, 0.5)


def unseeded(problem, cfg):
    """``problem`` without its Slater point, and the m* that point certifies
    for ``cfg``: run_sequential starts at stage 0, and phase 1 of every
    finite solve goes from the hint straight to its LP."""
    m_star = compute_termination_index(
        cfg.delta, problem.eps_star, problem.objective.lipschitz_constant,
        problem.x_domain.diameter(), cfg.eps00, cfg.r, cfg.schedule.obj_tol,
    )
    return replace(problem, slater_point=None), m_star


class TestRunFeasFinite:
    def test_instance_a_shrinks_then_terminates(self, prob_a):
        stream = Stream(prob_a, 4.0, single(1.0))
        res = run_feas_finite(
            stream, r=2.0, schedule=eventually_zero_schedule(0), rho=0.0
        )
        assert res.status is CoreStatus.TERMINATED
        assert res.x[0] == pytest.approx(-2.0, abs=1e-6)
        assert stream.eps == 2.0
        assert [row.branch for row in res.trace.rows] == ["infeasible", "terminated"]

    def test_instance_a_small_restriction(self, prob_a):
        sched = ToleranceSchedule(0.0, 1e-3, 0.5 ** (1 / 64), zero_from=0)
        stream = Stream(prob_a, 0.1, single(0.0))
        res = run_feas_finite(stream, r=2.0, schedule=sched, rho=0.0)
        assert res.status is CoreStatus.TERMINATED
        assert res.x[0] == pytest.approx(-0.1, abs=2e-3)
        assert stream.eps == 0.1

    def test_instance_b_restricted_optimum(self, prob_b):
        res = run_feas_finite(
            Stream(prob_b, 1.0, Discretization(np.array([[0.0], [1.0]]))),
            r=2.0, schedule=eventually_zero_schedule(0), rho=0.0,
        )
        assert res.status is CoreStatus.TERMINATED
        assert np.allclose(res.x, [-2.0, -2.0], atol=1e-6)
        # analytic restricted optimum 2 (1 + eps)^2 at eps = 1
        assert prob_b.objective.value(res.x) == pytest.approx(8.0, abs=1e-6)

    def test_eps_divides_exactly_on_infeasible_branches(self, prob_a, monkeypatch):
        # on y = 1, g(x, 1) = x has min -2 over X: the solve at eps 16
        # certifies it, ruling out every restriction above 2, so one
        # infeasible row moves eps to 16 / 2**3, the smallest j that fits
        bounds = []
        solve = core_loop.solve_discretized

        def recorded(*args, **kwargs):
            res = solve(*args, **kwargs)
            bounds.append(res.violation_bound)
            return res

        monkeypatch.setattr(core_loop, "solve_discretized", recorded)
        res = run_feas_finite(
            Stream(prob_a, 16.0, single(1.0)), r=2.0,
            schedule=eventually_zero_schedule(0), rho=0.0,
        )
        assert [(row.eps, row.branch) for row in res.trace.rows] == [
            (16.0, "infeasible"), (2.0, "terminated"),
        ]
        eps_seq = [row.eps for row in res.trace.rows]
        for row, bound, (e1, e2) in zip(res.trace.rows, bounds, zip(eps_seq, eps_seq[1:])):
            if row.branch == "infeasible":
                level = FEASTOL - bound
                j = next(j for j in range(1, 64) if e1 / 2.0**j <= level)
                assert e2 == e1 / 2.0**j
            else:
                assert e2 == e1

    def test_certified_infeasible_program_is_input_error(self, prob_a):
        # g = x + y + 3 >= 1 on X x Y: every restriction is certified
        # infeasible, and eps used to halve until it reached 0.0, ending as a
        # budget stop after max_iters "infeasible" rows
        (fam,) = prob_a.constraints
        shifted = replace(
            fam,
            value=lambda x, y: float(x[0] + y[0] + 3.0),
            batch_eval=lambda x, ys: x[0] + ys[:, 0] + 3.0,
        )
        prob = replace(prob_a, constraints=(shifted,))
        stream = Stream(prob, 1.0, default_y0(prob))
        with pytest.raises(InputError, match="program itself is infeasible"):
            run_feas_finite(
                stream, r=2.0, schedule=eventually_zero_schedule(0), rho=0.0,
                max_iters=50,
            )
        assert stream.eps == 1.0

    def test_termination_needs_values_below_the_requested_gap(
        self, prob_a, monkeypatch
    ):
        # aux_tol(k) = 1e-20 * 0.5**k is floored to a 1e-15 gap request; a
        # value of -1e-20 with gap 1e-15 does not certify value + gap <= 0
        box = prob_a.y_domain
        fam = ConstraintFamily(
            index=0,
            value=lambda x, y: -1e-20,
            subgradient_x=lambda x, y: np.zeros(1),
            lipschitz_in_y=1.0,
            y_domain=box,
        )
        monkeypatch.setattr(
            core_loop, "certified_max",
            lambda families, x, delta: CertifiedMax(
                y_star=box.center(), value=-1e-20, gap=1e-15, family=0
            ),
        )
        prob = replace(prob_a, constraints=(fam,))
        sched = ToleranceSchedule(0.0, 1e-20, 0.5, zero_from=0)
        res = run_feas_finite(
            Stream(prob, 1e-21, Discretization(box.center().reshape(1, -1))),
            r=2.0, schedule=sched, rho=0.0, max_iters=3,
        )
        assert res.status is CoreStatus.BUDGET
        assert [row.branch for row in res.trace.rows] == ["violation"] * 3

    def test_budget_flag(self, prob_a):
        res = run_feas_finite(
            Stream(prob_a, 0.1, single(0.0)), r=2.0,
            schedule=eventually_zero_schedule(0), rho=0.0, max_iters=0,
        )
        assert res.status is CoreStatus.BUDGET
        assert not res.trace.rows

    @pytest.mark.parametrize(
        "eps0, r", [(np.nan, 2.0), (np.inf, 2.0), (0.1, np.nan), (0.1, np.inf)]
    )
    def test_non_finite_restriction_rejected(self, prob_a, eps0, r):
        with pytest.raises(ConfigError):
            run_feas_finite(
                Stream(prob_a, eps0, single(0.0)), r=r,
                schedule=eventually_zero_schedule(0), rho=0.0,
            )

    @pytest.mark.parametrize("max_iters", [-3, 2.5, np.nan])
    def test_invalid_max_iters_rejected(self, prob_a, max_iters):
        with pytest.raises(ConfigError, match="max_iters"):
            run_feas_finite(
                Stream(prob_a, 0.1, single(0.0)), r=2.0,
                schedule=eventually_zero_schedule(0), rho=0.0,
                max_iters=max_iters,
            )


class TestShrinkSteps:
    """eps / r**j for the smallest j >= 0 at or below a level, kept
    positive: the one count of restrictions, of m*, the first stage and
    every shrink (those take max(1, j))."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        eps=st.floats(1e-6, 1e6),
        r=st.floats(1.01, 10.0),
        exponent=st.floats(-30.0, 1.0),
    )
    # at the level, and just above it
    @example(eps=1.0, r=2.0, exponent=0.0)
    @example(eps=1.0, r=2.0, exponent=-1e-15)
    def test_smallest_shrink_at_or_below_the_level(self, eps, r, exponent):
        level = eps * 10.0**exponent
        j = drivers.shrink_steps(eps, level, r)
        assert j >= 0
        assert (j == 0) == (eps <= level)
        assert 0 < eps / r**j <= level
        assert j == 0 or eps / r ** (j - 1) > level
        # a shrink moves at least once: max(1, j) is the smallest j >= 1
        shrink = max(1, j)
        assert 0 < eps / r**shrink <= level
        assert shrink == 1 or eps / r ** (shrink - 1) > level

    @pytest.mark.parametrize("level", [0.0, -1.0, 1e-320])
    def test_an_unreachable_level_keeps_a_positive_restriction(self, level):
        # 2.0**1024 overflows: 1 / 2**1023 is the smallest restriction left
        j = drivers.shrink_steps(1.0, level, 2.0)
        assert j == 1023 and 1.0 / 2.0**j > 0

    @pytest.mark.parametrize("r", [1.0 + 1e-12, math.nextafter(1.0, 2.0)])
    def test_a_factor_near_one_stops_at_the_float_range(self, r):
        # the logarithms put j about 5 % past the largest finite r**j; j
        # starts at that limit instead of walking back to it one step at a
        # time (about 3.5e13 steps for r = 1 + 1e-12)
        j = drivers.shrink_steps(1.0, 0.0, r)
        assert 1.0 / r**j > 0
        with pytest.raises(OverflowError):
            r ** (j + 1)


class TestShrinkRestriction:
    """After a solve without a point the restriction moves to eps / r**j,
    the first j >= 1 at or below the level FEASTOL - violation_bound that
    the solve's certificate leaves open."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        eps=st.floats(1e-6, 1e6),
        r=st.floats(1.01, 10.0),
        share=st.floats(0.0, 1.0),
    )
    def test_smallest_shrink_past_the_level(self, eps, r, share):
        bound = -share * eps  # a certified bound in [-eps, 0] on min max g
        level = FEASTOL - bound
        new = drivers.shrink_restriction(eps, bound, r)
        j = next(j for j in range(1, 10_000) if eps / r**j <= level)
        assert new == eps / r**j

    def test_a_bound_far_below_eps_is_kept(self):
        # the certificate is min max g >= -2 itself, not -2 + eps: at eps =
        # 1e300 no rounding loses it, and the shrink lands in (1, 2]
        new = drivers.shrink_restriction(1e300, -2.0, 2.0)
        assert 1.0 < new <= 2.0 + FEASTOL

    def test_undecided_solve_divides_once(self):
        assert drivers.shrink_restriction(3.0, None, 1.5) == 3.0 / 1.5

    @pytest.mark.parametrize("excess", [0.0, 1e-14, 1e-3, 5.0])
    def test_no_open_level_is_input_error(self, excess):
        with pytest.raises(InputError, match="program itself is infeasible"):
            drivers.shrink_restriction(1.0, FEASTOL + excess, 2.0)


class TestComputeTerminationIndex:
    def test_reference_value(self):
        m = compute_termination_index(0.1, 2.0, 4.0, 4.0, 1.0, 2.0, lambda k: 0.0)
        assert m == 8  # 8 / 2^m <= 0.05 first at m = 8

    def test_large_delta(self):
        assert compute_termination_index(10.0, 2.0, 4.0, 4.0, 1.0, 2.0, lambda k: 0.0) == 1

    def test_schedule_never_small_enough(self, monkeypatch):
        monkeypatch.setattr(drivers, "TERMINATION_SCAN_LIMIT", 1000)
        with pytest.raises(ConfigError):
            compute_termination_index(0.1, 2.0, 4.0, 4.0, 1.0, 2.0, lambda k: 0.1)

    def test_restriction_count_is_the_first_stage_inside(self):
        # shrink_steps: the first m >= 0 with eps00 / r**m <= eps_max =
        # min(eps*, (delta/2) eps* / (L diam)), as a plain scan finds it
        for delta in (1e-4, 1e-2, 1.0, 10.0):
            for eps00 in (1e-3, 0.3, 1.0, 1e3):
                for r in (1.5, 2.0, 3.0, 10.0):
                    eps_max = min(2.0, delta / 2 * 2.0 / (4.0 * 4.0))
                    m = 0
                    while eps00 / r**m > eps_max:
                        m += 1
                    got = compute_termination_index(
                        delta, 2.0, 4.0, 4.0, eps00, r, lambda k: 0.0
                    )
                    assert got == m, (delta, eps00, r)

    @pytest.mark.parametrize("r", [1.00001, 1.0 + 1e-12])
    def test_many_stages_are_counted_not_scanned(self, r):
        # about 9.7e5 and 9.7e12 stages: past the obj_tol scan's limit,
        # which no longer bounds the restriction count
        eps_max = 1e-3 / 2 * 2.0 / (4.0 * 4.0)
        m = compute_termination_index(1e-3, 2.0, 4.0, 4.0, 1.0, r, lambda k: 0.0)
        assert m > drivers.TERMINATION_SCAN_LIMIT
        assert 1.0 / r**m <= eps_max < 1.0 / r ** (m - 1)

    def test_restriction_count_is_the_count_at_the_value_level(self):
        # m* is the one count at the one level: the Slater point feasible
        # at eps*, with the a-priori gap L * diam
        for delta in (1e-6, 1e-2, 1.0, 10.0):
            for eps_star in (1e-3, 2.0, 50.0):
                for lip, diam in ((4.0, 4.0), (1e-3, 1.0), (1.0, 0.0)):
                    for eps00, r in ((1e-3, 2.0), (1.0, 1.5), (1e3, 10.0)):
                        level = drivers.value_level(eps_star, lip * diam, delta)
                        got = compute_termination_index(
                            delta, eps_star, lip, diam, eps00, r, lambda k: 0.0
                        )
                        assert got == drivers.shrink_steps(eps00, level, r), (
                            delta, eps_star, lip, diam, eps00, r,
                        )

    def test_nonincreasing_in_delta(self):
        deltas = np.logspace(-3, 1, 10)
        ms = [
            compute_termination_index(d, 2.0, 4.0, 4.0, 1.0, 2.0, lambda k: 0.0)
            for d in deltas
        ]
        assert all(b <= a for a, b in zip(ms, ms[1:]))

    @pytest.mark.parametrize("eps_star, lip", [(1e-300, 1e10), (1e-3, 1e306)])
    def test_restriction_beyond_float_range_is_config_error(self, eps_star, lip):
        # the restriction would need r**m past the float range; the scan used
        # to end in an OverflowError from r**m
        with pytest.raises(ConfigError):
            compute_termination_index(1e-3, eps_star, lip, 4.0, 1.0, 2.0, lambda k: 0.0)

    def test_objective_without_lipschitz_constant(self, prob_a):
        # m* needs the constant; eps* does not, and still certifies
        bare = replace(
            prob_a,
            objective=replace(prob_a.objective, lipschitz_constant=None),
        )
        cfg = SequentialConfig(
            delta=1e-2, r=2.0, eps00=1.0, schedule=geometric_schedule(0.5),
            rho=0.5, y0=single(0.5),
        )
        with pytest.raises(InputError, match="Lipschitz constant"):
            run_sequential(bare, cfg)
        assert bare.eps_star == 2.0 - SLATER_DELTA


class TestRunSequential:
    def test_instance_a(self, prob_a):
        cfg = SequentialConfig(
            delta=1e-2, r=2.0, eps00=1.0, schedule=geometric_schedule(0.5),
            rho=0.5, y0=single(0.5),
        )
        out = run_sequential(prob_a, cfg)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        # f = x**2 with optimum 0, so f <= delta pins |x| <= sqrt(delta)
        assert abs(out.x_star[0]) <= np.sqrt(1e-2)
        assert out.f_value <= 1e-2
        assert out.certified_bound <= 1e-9
        assert out.iterations["outer"] >= 1

    def test_stage_count_is_termination_index_plus_one(self, prob_a, monkeypatch):
        # eps* = 2 - 1e-9, certified at the Slater point -2.  With every
        # early-exit check undecided the run takes its a-priori m* + 1 stages
        def undecided(dp, *args, **kwargs):
            return finite_solver.DiscretizedSolveResult(
                finite_solver.SolveStatus.UNDECIDED, None, np.inf, -np.inf, 0.0
            )

        monkeypatch.setattr(drivers, "solve_discretized", undecided)
        cfg = SequentialConfig(
            delta=0.1, r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=single(0.5),
        )
        out = run_sequential(prob_a, cfg)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert out.iterations["outer"] == 8 + 1  # m* = 8 for these inputs

    def test_termination_index_bounds_the_stage_count(self, prob_a):
        # m* + 1 is an upper bound: the run may stop earlier, once its check
        # certifies the stage's point within delta of the optimum 0
        cfg = SequentialConfig(
            delta=0.1, r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=single(0.5),
        )
        out = run_sequential(prob_a, cfg)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert 1 <= out.iterations["outer"] <= 8 + 1
        assert 0.0 <= out.f_value <= cfg.delta

    @pytest.mark.parametrize("delta", [1e-1, 1e-3])
    @pytest.mark.parametrize(
        "name, f_star",
        [("instance_A", 0.0), ("instance_B", 2.0),
         ("regression_R", 1.0 - 1.0 / (2.0 + 1e-6))],
    )
    def test_builtins_delta_approximate(self, name, f_star, delta):
        # the solve command's defaults: the early exit keeps the guarantee
        prob = builtin(name)
        cfg = SequentialConfig(
            delta=delta, r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=default_y0(prob),
        )
        out = run_sequential(prob, cfg)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert out.f_value <= f_star + delta
        assert out.certified_bound <= POST_HOC_DELTA

    def test_nan_lipschitz_constant_is_input_error(self, prob_a):
        # a NaN constant used to skip the value bound: m* = 0 and a false
        # DeltaApproximate at x = -0.5, f = 0.25, with the optimum at 0
        cfg = SequentialConfig(
            delta=1e-3, r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=default_y0(prob_a),
        )
        with pytest.raises(InputError):
            objective = replace(prob_a.objective, lipschitz_constant=np.nan)
            run_sequential(replace(prob_a, objective=objective), cfg)

    def test_budget_exceeded_partial(self, prob_b):
        # from stage 0 the full run takes 2 stages of one step each; a
        # budget of one step stops it after its first stage, at that
        # stage's point
        cfg = SequentialConfig(
            delta=1e-3, r=2.0, eps00=1.0, schedule=geometric_schedule(0.5),
            rho=0.5, y0=single(0.5),
        )
        prob, m_star = unseeded(prob_b, cfg)
        assert len(run_sequential(prob, cfg, m_star).trace.rows) == 2
        out = run_sequential(prob, replace(cfg, max_iters=1), m_star)
        assert out.status is OutcomeStatus.BUDGET_EXCEEDED
        assert [r.branch for r in out.trace.rows] == ["terminated"]
        assert out.x_star is not None

    def test_max_iters_caps_the_whole_run(self, prob_a):
        # from stage 0 the 2 stages take 3 steps, at most 2 each: a cap of
        # 2 binds on the run's total, never on one stage alone
        cfg = SequentialConfig(
            delta=0.1, r=2.0, eps00=4.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=single(0.5),
        )
        prob, m_star = unseeded(prob_a, cfg)
        full = run_sequential(prob, cfg, m_star)
        assert full.iterations == {"outer": 2, "inner": 3}
        assert [r.branch for r in full.trace.rows].count("terminated") == 2
        out = run_sequential(prob, replace(cfg, max_iters=2), m_star)
        assert out.status is OutcomeStatus.BUDGET_EXCEEDED
        assert out.iterations == {"outer": 2, "inner": 2}
        # the first stage finished; the second had no step left
        assert [r.branch for r in out.trace.rows] == ["infeasible", "terminated"]

    @pytest.mark.parametrize(
        "field, value",
        [("delta", np.nan), ("delta", np.inf), ("r", np.nan), ("r", np.inf),
         ("eps00", np.nan), ("eps00", np.inf), ("rho", -1.0), ("rho", np.nan)],
    )
    def test_invalid_number_rejected(self, field, value):
        kwargs = dict(
            delta=0.1, r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=single(0.5),
        )
        with pytest.raises(ConfigError):
            SequentialConfig(**{**kwargs, field: value})

    @pytest.mark.parametrize("max_iters", [-3, 2.5, np.nan])
    def test_invalid_max_iters_rejected(self, max_iters):
        # -3 used to give an outcome with inner iterations -3
        with pytest.raises(ConfigError, match="max_iters"):
            SequentialConfig(
                delta=0.1, r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
                rho=0.0, y0=single(0.5), max_iters=max_iters,
            )

    def test_warm_start_equivalence(self, prob_a):
        # each stage starts from the previous stage's discretization and
        # pool; the run still satisfies the driver's contract
        delta = 1e-1
        cfg = SequentialConfig(
            delta=delta, r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=single(0.5),
        )
        out = run_sequential(prob_a, cfg)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert 0.0 <= out.f_value <= delta  # analytic optimum is 0
        assert out.certified_bound <= 1e-9

    def test_finite_proxy_monotone_in_stages(self, prob_a):
        # more stages shrink the distance to the solution, and the theorem
        # bound for the implied delta holds at each stage count
        dists, ms = [], (2, 4, 8)
        for m_star in ms:
            cfg = SequentialConfig(
                # m* is given explicitly; delta only sets the early exit,
                # which stops a run at a point within 1e-6 of the optimum
                delta=1e-6,
                r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
                rho=0.0, y0=single(0.5),
            )
            out = run_sequential(prob_a, cfg, m_star=m_star)
            assert out.status is OutcomeStatus.DELTA_APPROXIMATE
            dists.append(abs(out.x_star[0]))
            implied_delta = 2 * 4.0 * (4.0 / 2.0) * (1.0 / 2.0**m_star)
            assert out.f_value <= implied_delta
        assert dists[0] >= dists[1] >= dists[2]


    @staticmethod
    def record_stages(monkeypatch):
        """Each stage's (stream, schedule offset, start eps, end eps,
        result) and each check's gap, in order; with a Slater point the
        first gap is that of the solve that picks the first stage."""
        run, check_gap = drivers.run_feas_finite, drivers._check_gap
        stages, gaps = [], []

        def recorded(stream, r, schedule, *args, **kwargs):
            start = stream.eps
            res = run(stream, r, schedule, *args, **kwargs)
            stages.append((stream, schedule.offset, start, stream.eps, res))
            return res

        def recorded_gap(*args):
            check, gap = check_gap(*args)
            gaps.append(gap)
            return check, gap

        monkeypatch.setattr(drivers, "run_feas_finite", recorded)
        monkeypatch.setattr(drivers, "_check_gap", recorded_gap)
        return stages, gaps

    def test_one_stream_through_every_stage(self, prob_a, monkeypatch):
        # each stage starts at the previous stage's final restriction over
        # r**j, j from the previous stage's certificate and check gap
        stages, gaps = self.record_stages(monkeypatch)
        cfg = SequentialConfig(
            delta=0.1, r=2.0, eps00=4.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=single(0.5),
        )
        prob, m_star = unseeded(prob_a, cfg)
        out = run_sequential(prob, cfg, m_star)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert len(stages) == out.outer >= 2
        assert all(stage[0] is stages[0][0] for stage in stages)
        assert stages[0][2:4] == (4.0, 2.0)  # the first stage shrinks once
        for (_, m, _, end, res), (_, m_next, start, _, _), gap in zip(
            stages, stages[1:], gaps
        ):
            j = drivers.value_shrink_steps(end, res.cert.bound, gap, cfg.delta, cfg.r)
            assert j > 1 and m_next == m + j
            assert start == end / cfg.r**j

    @pytest.mark.parametrize("delta", [1e-1, 1e-3])
    def test_skip_lands_within_half_delta(self, prob_b, monkeypatch, delta):
        # instance_B's restricted optimum is v(e) = 2 (1 + e)**2 exactly, and
        # v* = 2: the stage after the skip runs at a restriction e with
        # v(e) - 2 <= delta/2, several stages down at once
        stages, _ = self.record_stages(monkeypatch)
        cfg = SequentialConfig(
            delta=delta, r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=default_y0(prob_b),
        )
        prob, m_star = unseeded(prob_b, cfg)
        out = run_sequential(prob, cfg, m_star)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert out.outer == 2
        (_, _, _, end, _), (_, m, start, _, _) = stages
        assert m > 1 and start < end / cfg.r
        assert 2.0 * (1.0 + start) ** 2 - 2.0 <= delta / 2

    def test_huge_gap_never_passes_m_star(self, prob_a, monkeypatch):
        # a check gap of 1e300 asks for a restriction far below eps00 /
        # r**m*; the skip stops at stage m* = 8, the run's last
        stages, _ = self.record_stages(monkeypatch)
        passed = finite_solver.DiscretizedSolveResult(
            finite_solver.SolveStatus.FEASIBLE, None, 0.0, -1e300, 0.0
        )
        monkeypatch.setattr(drivers, "_check_gap", lambda *args: (passed, 1e300))
        cfg = SequentialConfig(
            delta=0.1, r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=single(0.5),
        )
        prob, m_star = unseeded(prob_a, cfg)
        assert m_star == 8
        out = run_sequential(prob, cfg, m_star)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert [stage[1] for stage in stages] == [0, 8]
        assert stages[1][2] == 1.0 / 2.0**8
        assert out.outer == 2 <= 8 + 1

    def test_undecided_check_divides_once(self, prob_a, monkeypatch):
        # an undecided check gives no gap: every next stage starts at the
        # previous one's restriction over r, one stage on
        stages, _ = self.record_stages(monkeypatch)
        monkeypatch.setattr(
            drivers, "solve_discretized",
            lambda *args, **kwargs: finite_solver.DiscretizedSolveResult(
                finite_solver.SolveStatus.UNDECIDED, None, np.inf, -np.inf, 0.0
            ),
        )
        cfg = SequentialConfig(
            delta=0.1, r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=single(0.5),
        )
        out = run_sequential(prob_a, cfg)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert [stage[1] for stage in stages] == list(range(8 + 1))
        for (_, _, _, end, _), (_, _, start, _, _) in zip(stages, stages[1:]):
            assert start == end / cfg.r


class TestSlaterStage:
    """run_sequential's first stage: the first restriction that the Slater
    point's certificate and one unrestricted solve on y0 prove within
    delta/2 of the optimum, capped at m*."""

    CFG = SequentialConfig(
        delta=0.1, r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
        rho=0.0, y0=single(0.5),
    )

    @staticmethod
    def solves(monkeypatch):
        """Every finite solve of a run, in order, as (kind, result)."""
        done = []

        def recorded(module, kind):
            inner = module.solve_discretized

            def wrapped(*args, **kwargs):
                res = inner(*args, **kwargs)
                done.append((kind, res))
                return res

            monkeypatch.setattr(module, "solve_discretized", wrapped)

        recorded(core_loop, "step")
        recorded(drivers, "driver")
        return done

    @staticmethod
    def constant_check_solve(monkeypatch, status, lower, lp_iters=0, evals=0):
        """Every unrestricted solve of the driver's own comes back the same."""
        monkeypatch.setattr(
            drivers, "solve_discretized",
            lambda *args, **kwargs: finite_solver.DiscretizedSolveResult(
                status, None, np.inf, lower, 0.0, lp_iters=lp_iters, evals=evals
            ),
        )

    def test_first_stage_is_the_first_inside_the_level(self, prob_a, monkeypatch):
        # f(x_s) = 4 at x_s = -2 and the unrestricted optimum on y = 0.5 is
        # 0: the level is eps* (delta/2) / 4, first met at 1 / 2**6, below
        # m* = 8
        stages, _ = TestRunSequential.record_stages(monkeypatch)
        level = prob_a.eps_star * (self.CFG.delta / 2) / 4.0
        j0 = next(j for j in range(100) if 1.0 / 2.0**j <= level)
        assert j0 == 6
        out = run_sequential(prob_a, self.CFG)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert stages[0][1:3] == (j0, 1.0 / 2.0**j0)
        assert 0.0 <= out.f_value <= self.CFG.delta

    def test_first_stage_never_passes_m_star(self, prob_a, monkeypatch):
        # a lower bound of -1e300 asks for a restriction far below eps00 /
        # r**m*: the run starts at stage m* = 8, its last
        stages, _ = TestRunSequential.record_stages(monkeypatch)
        self.constant_check_solve(monkeypatch, finite_solver.SolveStatus.FEASIBLE, -1e300)
        out = run_sequential(prob_a, self.CFG)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert [stage[1] for stage in stages] == [8]
        assert stages[0][2] == 1.0 / 2.0**8
        assert out.outer == 1

    def test_trace_counts_the_solve_that_picks_the_stage(self, monkeypatch, tmp_path):
        # instance_A's program with a polynomial family, whose certificate
        # finds the maximizer y = 1: the first stage's point x = 0 violates
        # there, and the stage takes two rows.  The first row counts the
        # solve's LP iterations, and every row's cumulative evaluations its
        # evaluations and the one of f(x_s); the stage's last row counts
        # each later check's and its f(x)
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({
            "x_box": {"lower": [-2.0], "upper": [2.0]},
            "y_box": {"lower": [0.0], "upper": [1.0]},
            "objective": {"Q": [[1.0]], "c": [0.0], "d": 0.0},
            "constraints": [{"a": [[[[0], 1.0]]], "b": [[[0], -1.0], [[1], 1.0]]}],
            "slater_point": [-2.0],
        }))
        prob = load_problem(str(path))
        done = self.solves(monkeypatch)
        certify, certificates = core_loop.certified_max, []
        monkeypatch.setattr(
            core_loop, "certified_max",
            lambda *args: certificates.append(certify(*args)) or certificates[-1],
        )
        out = run_sequential(prob, self.CFG)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        kind, seed = done[0]
        assert kind == "driver" and seed.status is finite_solver.SolveStatus.FEASIBLE
        assert seed.evals > 0
        rows = out.trace.rows
        assert [r.branch for r in rows] == ["violation", "terminated"]
        (_, step0), (_, step1) = done[1:3]
        assert rows[0].lp_iters == seed.lp_iters + step0.lp_iters
        # the refinement evaluates g at the one point it keeps or drops
        refine = 1
        assert rows[0].oracle_evals == (
            seed.evals + 1 + step0.evals + certificates[0].evals + refine
        )
        checks = [res for kind, res in done[2:] if kind == "driver"]
        assert all(c.status is finite_solver.SolveStatus.FEASIBLE for c in checks)
        assert rows[1].oracle_evals - rows[0].oracle_evals == (
            sum(res.evals for _, res in done[2:]) + len(checks) + certificates[1].evals
        )
        assert sum(r.lp_iters for r in rows) == sum(res.lp_iters for _, res in done)

    def test_no_seed_without_a_slater_point(self, prob_a, monkeypatch):
        stages, _ = TestRunSequential.record_stages(monkeypatch)
        done = self.solves(monkeypatch)
        prob, m_star = unseeded(prob_a, self.CFG)
        out = run_sequential(prob, self.CFG, m_star)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert stages[0][1:3] == (0, 1.0)
        # no solve before the first stage
        assert done[0][0] == "step"

    def test_no_seed_from_a_solve_that_is_not_feasible(self, prob_a, monkeypatch):
        # every unrestricted solve undecided: stage 0 first, and then one
        # stage at a time, as without the seed; its 5 LP iterations and 7
        # evaluations are on the trace like those of the 8 checks
        stages, _ = TestRunSequential.record_stages(monkeypatch)
        done = self.solves(monkeypatch)
        self.constant_check_solve(
            monkeypatch, finite_solver.SolveStatus.UNDECIDED, -np.inf, lp_iters=5, evals=7
        )
        out = run_sequential(prob_a, self.CFG)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert [stage[1] for stage in stages] == list(range(8 + 1))
        steps = [res for _, res in done]
        rows = out.trace.rows
        assert sum(r.lp_iters for r in rows) == sum(s.lp_iters for s in steps) + 5 * 9
        assert out.oracle_evals > 7 * 9
        # stage 0's one row counts the solve before it and the check after it
        assert (rows[0].branch, rows[0].eps, rows[1].eps) == ("terminated", 1.0, 0.5)
        assert rows[0].lp_iters == steps[0].lp_iters + 5 + 5

    def test_no_seed_when_eps_star_does_not_certify(self, monkeypatch):
        # a cell stop in certifying x_s: stage 0 first, from an m* given
        TestPostHocCertification.exhaust_tight_calls(monkeypatch)
        stages, _ = TestRunSequential.record_stages(monkeypatch)
        done = self.solves(monkeypatch)
        run_sequential(builtin("instance_A"), self.CFG, m_star=8)
        assert stages[0][1:3] == (0, 1.0)
        assert done[0][0] == "step"

    @pytest.mark.parametrize("m_star, max_iters", [(0, 10), (8, 0)])
    def test_no_seed_with_nothing_to_skip_or_count(self, prob_a, monkeypatch, m_star, max_iters):
        done = self.solves(monkeypatch)
        run_sequential(prob_a, replace(self.CFG, max_iters=max_iters), m_star)
        assert all(kind == "step" for kind, _ in done)


class TestRunSimultaneous:
    def test_instance_a(self, prob_a):
        cfg = SimultaneousConfig(
            delta=0.2, r=2.0, eps0=1.0, schedule=sim_schedule(0.2, aux0=0.05),
            rho=0.5, y0_check=single(0.0), y0_hat=single(0.0),
        )
        out = run_simultaneous(prob_a, cfg)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert out.f_value <= 0.2
        assert out.x_star[0] <= 1e-9

    def test_gate_rejection(self):
        def config(obj_scale):
            return SimultaneousConfig(
                delta=0.1, r=2.0, eps0=1.0,
                schedule=ToleranceSchedule(obj_scale, 0.1, 0.5),
                rho=0.5, y0_check=single(0.0), y0_hat=single(0.0),
            )

        config(np.nextafter(0.05, 0.0))  # sup obj_tol just below delta/2
        with pytest.raises(ConfigError):
            config(0.05)  # == delta/2, violates the gate

    def test_eps_decay_matches_branches(self, prob_b, monkeypatch):
        # a value_gap row moves eps to the first eps / 2**j at or below
        # e_x * (delta/2) / gap, e_x = -bound of the candidate's certificate
        # and gap its f minus the check solve's lower bound; a candidate
        # not certified strictly feasible (bound >= 0), as the first ones
        # from y = 0 are, divides eps by r once.  Other rows keep eps
        iterations = []  # per iteration: the check's lower bound, the
        # candidate's solve and its certificate
        solve, certify = core_loop.solve_discretized, core_loop.certified_max
        check_lower = None

        def recorded_solve(dp, *args, **kwargs):
            nonlocal check_lower
            res = solve(dp, *args, **kwargs)
            if dp.eps == 0:
                check_lower = res.lower
            else:
                iterations.append({"lower": check_lower, "solve": res})
            return res

        def recorded_certify(*args):
            cm = certify(*args)
            iterations[-1].setdefault("cert", cm)  # the candidate's comes first
            return cm

        monkeypatch.setattr(core_loop, "solve_discretized", recorded_solve)
        monkeypatch.setattr(core_loop, "certified_max", recorded_certify)
        for y_hat in (0.5, 0.0):
            iterations.clear()
            cfg = SimultaneousConfig(
                delta=0.1, r=2.0, eps0=1.0, schedule=sim_schedule(0.1),
                rho=0.5, y0_check=single(0.5), y0_hat=single(y_hat),
            )
            out = run_simultaneous(prob_b, cfg)
            assert out.status is OutcomeStatus.DELTA_APPROXIMATE
            rows = out.trace.rows
            assert rows[-1].branch == "terminated"
            assert len(iterations) == len(rows)
            steps = []
            for r1, r2, it in zip(rows, rows[1:], iterations):
                assert r1.branch in ("value_gap", "hat_violation")
                if r1.branch == "hat_violation":
                    assert r2.eps == r1.eps
                    continue
                bound = it["cert"].bound
                j = 1
                if bound < 0:
                    gap = it["solve"].upper - it["lower"]
                    level = -bound * (cfg.delta / 2) / gap
                    j = next(j for j in range(1, 200) if r1.eps / 2.0**j <= level)
                assert r2.eps == r1.eps / 2.0**j
                steps.append((bound < 0, j))
            assert (True, 1) not in steps and any(j > 1 for _, j in steps)
            assert ((False, 1) in steps) == (y_hat == 0.0)

    def test_value_gap_refines_a_violating_candidate(self, prob_b):
        # from y = 0 the first candidate violates (maximum 0.9375 at eps 1)
        # while its value is still far above the check's: the value_gap row
        # refines the candidate too, from the certificate its step already
        # holds, so no hat_violation row has to re-solve it on the same
        # points (that took 5 rows and 97 evaluations).  The 58 evaluations
        # count 3 of g at the points each refinement keeps
        cfg = SimultaneousConfig(
            delta=0.1, r=2.0, eps0=1.0, schedule=sim_schedule(0.1),
            rho=0.5, y0_check=single(0.5), y0_hat=single(0.0),
        )
        out = run_simultaneous(prob_b, cfg)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        rows = out.trace.rows
        assert [r.branch for r in rows] == ["value_gap", "value_gap", "terminated"]
        assert rows[0].max_violation > 0 and rows[1].card_y == 2
        assert out.oracle_evals == 58

    def test_hat_rows_skip_ruled_out_restrictions(self, prob_a):
        # the candidate solve at eps 16 certifies min_x g(x, 0.5) = -2.5:
        # every restriction above 2.5 is infeasible, so the next row is at 2
        y0 = default_y0(prob_a)
        cfg = SimultaneousConfig(
            delta=0.1, r=2.0, eps0=16.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0_check=y0, y0_hat=y0,
        )
        out = run_simultaneous(prob_a, cfg)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        rows = out.trace.rows
        assert [(r.eps, r.branch) for r in rows[:2]] == [
            (16.0, "hat_infeasible"), (2.0, "value_gap"),
        ]
        assert [r.branch for r in rows].count("hat_infeasible") == 1

    def test_budget_exceeded(self, prob_b):
        cfg = SimultaneousConfig(
            delta=1e-3, r=2.0, eps0=1.0, schedule=sim_schedule(1e-3),
            rho=0.5, y0_check=single(0.5), y0_hat=single(0.5),
        )
        out = run_simultaneous(prob_b, replace(cfg, max_iters=1))
        assert out.status is OutcomeStatus.BUDGET_EXCEEDED
        # the one iteration ran both its check step and its candidate step
        assert out.iterations["inner"] == len(out.trace.rows) == 1

    @pytest.mark.parametrize(
        "field, value",
        [("delta", np.nan), ("delta", np.inf), ("r", np.nan), ("r", np.inf),
         ("eps0", np.nan), ("eps0", np.inf), ("rho", -1.0), ("rho", np.nan)],
    )
    def test_invalid_number_rejected(self, field, value):
        kwargs = dict(
            delta=0.1, r=2.0, eps0=1.0, schedule=sim_schedule(0.1),
            rho=0.5, y0_check=single(0.5), y0_hat=single(0.5),
        )
        with pytest.raises(ConfigError):
            SimultaneousConfig(**{**kwargs, field: value})

    @pytest.mark.parametrize("max_iters", [-3, 2.5, np.nan])
    def test_invalid_max_iters_rejected(self, max_iters):
        with pytest.raises(ConfigError, match="max_iters"):
            SimultaneousConfig(
                delta=0.1, r=2.0, eps0=1.0, schedule=sim_schedule(0.1),
                rho=0.5, y0_check=single(0.5), y0_hat=single(0.5),
                max_iters=max_iters,
            )

    def test_undecided_check_solve_is_budget_stop(self, prob_b, monkeypatch):
        # one master LP cannot decide the unrestricted solve: that is an
        # exhausted budget, not evidence that the program is infeasible
        # (without a Slater point, whose probe would meet the rows first)
        monkeypatch.setattr(finite_solver, "MASTER_BUDGET", 1)
        y0 = Discretization(prob_b.y_domain.center().reshape(1, -1))
        cfg = SimultaneousConfig(
            delta=0.1, r=2.0, eps0=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0_check=y0, y0_hat=y0,
        )
        out = run_simultaneous(replace(prob_b, slater_point=None), cfg)
        assert out.status is OutcomeStatus.BUDGET_EXCEEDED


class TestBudgetStopKeepsItsPoint:
    """A run that stops on an undecided solve keeps the latest point it has:
    the undecided step's own, or else the last iterate before it."""

    @staticmethod
    def last_point_f(trace):
        return [r.f_x for r in trace.rows if not np.isnan(r.f_x)][-1]

    @pytest.mark.parametrize("stream", ["check", "candidate"])
    def test_simultaneous(self, monkeypatch, stream):
        # with no master solve the check step is undecided at its first
        # point; with the candidate's solves alone undecided, the candidate
        # step is.  Either stop used to drop that point: x None, f NaN
        if stream == "check":
            monkeypatch.setattr(finite_solver, "MASTER_BUDGET", 0)
        else:
            solve = core_loop.solve_discretized

            def restricted_undecided(dp, *args, **kwargs):
                res = solve(dp, *args, **kwargs)
                if dp.eps > 0:
                    return replace(res, status=finite_solver.SolveStatus.UNDECIDED)
                return res

            monkeypatch.setattr(core_loop, "solve_discretized", restricted_undecided)
        prob = builtin("instance_A")
        y0 = default_y0(prob)
        cfg = SimultaneousConfig(
            delta=0.1, r=2.0, eps0=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0_check=y0, y0_hat=y0,
        )
        out = run_simultaneous(prob, cfg)
        assert out.status is OutcomeStatus.BUDGET_EXCEEDED
        assert [r.branch for r in out.trace.rows] == ["budget"]
        assert out.x_star is not None
        assert out.f_value == self.last_point_f(out.trace)

    def test_core_without_a_point(self, monkeypatch):
        # the second solve is undecided before it has a point; the stop
        # keeps the first step's iterate instead of returning none
        solve = core_loop.solve_discretized
        calls = []

        def second_undecided(dp, *args, **kwargs):
            calls.append(dp.eps)
            if len(calls) == 2:
                return finite_solver.DiscretizedSolveResult(
                    finite_solver.SolveStatus.UNDECIDED, None, np.inf, -np.inf, 0.0
                )
            return solve(dp, *args, **kwargs)

        monkeypatch.setattr(core_loop, "solve_discretized", second_undecided)
        prob = builtin("instance_A")
        cfg = CoreConfig(
            eps=0.01, rho=0.0, schedule=eventually_zero_schedule(0), y0=default_y0(prob)
        )
        res = run_core(prob, cfg)
        assert [r.branch for r in res.trace.rows] == ["violation", "budget"]
        assert np.isnan(res.trace.rows[-1].f_x) and res.x is not None
        out = budget_outcome(prob, res.x, 1, res.trace)
        assert out.f_value == self.last_point_f(res.trace)


class TestRunCounts:
    """A run's counts are read from its trace: one row per discretization
    step, numbered from 0 over all stages, and the last row's cumulative
    oracle evaluations."""

    @staticmethod
    def assert_counted(out, tmp_path):
        rows = out.trace.rows
        assert out.iterations["inner"] == len(rows)
        assert out.oracle_evals == out.trace.total_evals
        assert out.oracle_evals == (rows[-1].oracle_evals if rows else 0)
        write_trace_csv(tmp_path / "trace.csv", out.trace)
        write_outcome_json(tmp_path / "outcome.json", out)
        table = list(csv.DictReader(io.StringIO((tmp_path / "trace.csv").read_text())))
        assert [int(r["k"]) for r in table] == list(range(len(rows)))
        written = json.loads((tmp_path / "outcome.json").read_text())
        assert written["outer_iterations"] == out.iterations["outer"]
        assert written["inner_iterations"] == len(table)
        assert written["oracle_evals"] == int(table[-1]["oracle_evals"])

    def test_core(self, prob_a, tmp_path):
        cfg = CoreConfig(
            eps=0.1, rho=0.0, schedule=eventually_zero_schedule(0), y0=single(0.0)
        )
        res = run_core(prob_a, cfg)
        assert res.iterations == len(res.trace.rows) >= 2
        out = post_hoc_outcome(prob_a, res.x, OutcomeStatus.FEASIBLE, 1, res.trace)
        self.assert_counted(out, tmp_path)

    def test_sequential_numbers_steps_across_stages(self, prob_a, tmp_path):
        cfg = SequentialConfig(
            delta=0.1, r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=single(0.5),
        )
        prob, m_star = unseeded(prob_a, cfg)
        out = run_sequential(prob, cfg, m_star)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        # every stage ends on its own terminated row
        stages = [r.branch for r in out.trace.rows].count("terminated")
        assert out.iterations["outer"] == stages == 2
        self.assert_counted(out, tmp_path)

    @pytest.mark.parametrize("name", ["instance_A", "instance_B", "regression_R"])
    def test_sequential_counts_its_checks(self, monkeypatch, tmp_path, name):
        # the last row's evaluations are those of every finite solve, the
        # solve that picks the first stage and the early exit's checks
        # included, and of every loose certificate
        evals = {"steps": [], "checks": [], "certificates": []}
        step_solve, check_solve = core_loop.solve_discretized, drivers.solve_discretized
        certify = core_loop.certified_max
        hints, statuses = [], []

        def counting(fn, key):
            def wrapped(*args, **kwargs):
                res = fn(*args, **kwargs)
                evals[key].append(res.evals)
                return res

            return wrapped

        def counted_check(dp, gap, x_hint, pool):
            hints.append(x_hint)
            res = counting(check_solve, "checks")(dp, gap, x_hint=x_hint, pool=pool)
            statuses.append(res.status)
            return res

        monkeypatch.setattr(core_loop, "solve_discretized", counting(step_solve, "steps"))
        monkeypatch.setattr(drivers, "solve_discretized", counted_check)
        monkeypatch.setattr(core_loop, "certified_max", counting(certify, "certificates"))
        prob = builtin(name)
        cfg = SequentialConfig(
            delta=1e-3, r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=default_y0(prob),
        )
        out = run_sequential(prob, cfg)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        # one solve from the Slater point before the first stage, one check
        # after each stage, and the run stops on a passing one; each of
        # them is FEASIBLE and also counts its one evaluation of f
        assert len(evals["checks"]) == 1 + out.outer
        assert hints[0] is prob.slater_point
        assert all(h is not prob.slater_point for h in hints[1:])
        assert all(s is finite_solver.SolveStatus.FEASIBLE for s in statuses)
        f_evals = len(evals["checks"])
        assert out.oracle_evals == sum(sum(v) for v in evals.values()) + f_evals
        self.assert_counted(out, tmp_path)

    @pytest.mark.parametrize("delta", [1e-1, 1e-3])
    @pytest.mark.parametrize("name", ["instance_A", "instance_B", "regression_R"])
    def test_sequential_counts_the_objective_it_evaluates(self, monkeypatch, name, delta):
        # every f evaluation the driver makes outside its finite solves is on
        # the trace; the outcome's f(x*) belongs to its certification, not
        # to a step
        solves, certificates = [], []
        for module in (core_loop, drivers):
            inner = module.solve_discretized
            monkeypatch.setattr(
                module, "solve_discretized",
                lambda *a, inner=inner, **k: solves.append(inner(*a, **k)) or solves[-1],
            )
        certify = core_loop.certified_max
        monkeypatch.setattr(
            core_loop, "certified_max",
            lambda *args: certificates.append(certify(*args)) or certificates[-1],
        )
        prob = builtin(name)
        value, made = prob.objective.value, []

        def counted(x):
            caller = sys._getframe(1)
            if (caller.f_globals["__name__"] == "sipsolve.drivers"
                    and caller.f_code.co_name != "post_hoc_outcome"):
                made.append(x)
            return value(x)

        prob = replace(prob, objective=replace(prob.objective, value=counted))
        cfg = SequentialConfig(
            delta=delta, r=2.0, eps00=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=default_y0(prob),
        )
        out = run_sequential(prob, cfg)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert made
        assert out.oracle_evals == (
            sum(s.evals for s in solves) + sum(c.evals for c in certificates) + len(made)
        )

    def test_simultaneous(self, prob_a, tmp_path):
        y0 = default_y0(prob_a)
        cfg = SimultaneousConfig(
            delta=0.1, r=2.0, eps0=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0_check=y0, y0_hat=y0,
        )
        out = run_simultaneous(prob_a, cfg)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        self.assert_counted(out, tmp_path)

    def test_simultaneous_counts_each_piece_of_work_once(self, monkeypatch, tmp_path):
        # the check stream solves once per set of its points and certifies
        # only on value_gap rows; the candidate certifies every point it
        # finds.  The trace's total is the evaluations of all of them
        evals, check_points, certificates = [], [], []
        solve, certify = core_loop.solve_discretized, core_loop.certified_max
        update = core_loop.update_discretization

        def counted_solve(dp, *args, **kwargs):
            res = solve(dp, *args, **kwargs)
            evals.append(res.evals)
            if dp.eps == 0:
                check_points.append(dp.points)
            return res

        def counted_certify(*args):
            cm = certify(*args)
            evals.append(cm.evals)
            certificates.append(cm)
            return cm

        def counted_update(problem, yk, *args):
            # rho = 0: g is evaluated at every point the step solved on
            evals.append(len(problem.constraints) * yk.cardinality)
            return update(problem, yk, *args)

        monkeypatch.setattr(core_loop, "solve_discretized", counted_solve)
        monkeypatch.setattr(core_loop, "certified_max", counted_certify)
        monkeypatch.setattr(core_loop, "update_discretization", counted_update)
        # from y = 0 the candidate is infeasible at eps 5, and after the
        # value_gap skip violates at y = 1, so the run has every branch
        prob = builtin("instance_A")
        cfg = SimultaneousConfig(
            delta=0.1, r=2.0, eps0=5.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0_check=default_y0(prob), y0_hat=single(0.0),
        )
        out = run_simultaneous(prob, cfg)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        branches = [r.branch for r in out.trace.rows]
        assert {"hat_infeasible", "hat_violation"} <= set(branches)
        assert out.oracle_evals == sum(evals)
        gaps = branches.count("value_gap")
        with_point = len(branches) - branches.count("hat_infeasible")
        assert len(certificates) == with_point + gaps
        # the first points and one new set after each value_gap refinement;
        # the iterations in between reuse the check solve
        assert len(check_points) == 1 + gaps < len(branches)
        assert all(not np.array_equal(a, b) for a, b in zip(check_points, check_points[1:]))
        self.assert_counted(out, tmp_path)

    @pytest.mark.parametrize("name", ["instance_A", "instance_B"])
    def test_simultaneous_undecided_check_solve(self, monkeypatch, tmp_path, name):
        # no master solve at all: the check solve is undecided at once; the
        # run used to stop with no row, reporting 0 steps and 0 evaluations
        monkeypatch.setattr(finite_solver, "MASTER_BUDGET", 0)
        prob = builtin(name)
        y0 = default_y0(prob)
        cfg = SimultaneousConfig(
            delta=0.1, r=2.0, eps0=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0_check=y0, y0_hat=y0,
        )
        out = run_simultaneous(prob, cfg)
        assert out.status is OutcomeStatus.BUDGET_EXCEEDED
        assert [r.branch for r in out.trace.rows] == ["budget"]
        assert out.iterations == {"outer": 1, "inner": 1}
        assert out.oracle_evals > 0
        self.assert_counted(out, tmp_path)

    def test_simultaneous_undecided_candidate_solve(self, monkeypatch, tmp_path):
        # the restricted solve is undecided after a decided check solve: its
        # row counts the evaluations of both solves
        evals = []
        solve, certify = core_loop.solve_discretized, core_loop.certified_max

        def restricted_undecided(dp, *args, **kwargs):
            res = solve(dp, *args, **kwargs)
            evals.append(res.evals)
            if dp.eps > 0:
                return replace(res, status=finite_solver.SolveStatus.UNDECIDED)
            return res

        def counted(*args):
            cm = certify(*args)
            evals.append(cm.evals)
            return cm

        monkeypatch.setattr(core_loop, "solve_discretized", restricted_undecided)
        monkeypatch.setattr(core_loop, "certified_max", counted)
        y0 = default_y0(builtin("instance_A"))
        cfg = SimultaneousConfig(
            delta=0.1, r=2.0, eps0=0.5, schedule=eventually_zero_schedule(0),
            rho=0.0, y0_check=y0, y0_hat=y0,
        )
        out = run_simultaneous(builtin("instance_A"), cfg)
        assert out.status is OutcomeStatus.BUDGET_EXCEEDED
        (row,) = out.trace.rows
        assert row.branch == "budget" and row.eps == 0.5
        # the check solve, the candidate solve and no check certificate:
        # only a value_gap row reads it
        assert len(evals) == 2 and out.oracle_evals == sum(evals)
        self.assert_counted(out, tmp_path)


class TestPostHocCertification:
    """An outcome's margin and bound come from one certification pass: the
    margin is a constraint value attained on Y, the bound lies within
    POST_HOC_DELTA above it, and a dense grid finds no more than the bound."""

    @staticmethod
    def run(name, kind):
        prob = builtin(name)
        y0 = default_y0(prob)
        sched = eventually_zero_schedule(0)
        if kind == "sequential":
            cfg = SequentialConfig(
                delta=0.1, r=2.0, eps00=1.0, schedule=sched, rho=0.0, y0=y0
            )
            return prob, run_sequential(prob, cfg)
        if kind == "simultaneous":
            cfg = SimultaneousConfig(
                delta=0.1, r=2.0, eps0=1.0, schedule=sched, rho=0.0,
                y0_check=y0, y0_hat=y0,
            )
            return prob, run_simultaneous(prob, cfg)
        x = prob.x_domain.center()
        return prob, budget_outcome(prob, x, 1, RunTrace())

    @pytest.mark.parametrize("kind", ["sequential", "simultaneous", "budget"])
    @pytest.mark.parametrize("name", ["instance_A", "instance_B", "regression_R"])
    def test_margin_is_the_certified_worst_value(self, monkeypatch, name, kind):
        calls = []
        inner = lower_level.certified_max

        def recording(families, x, delta, *args, **kwargs):
            cm = inner(families, x, delta, *args, **kwargs)
            calls.append((families, x, cm))
            return cm

        monkeypatch.setattr(lower_level, "certified_max", recording)
        prob, out = self.run(name, kind)
        if kind == "budget":
            assert out.status is OutcomeStatus.BUDGET_EXCEEDED
        else:
            assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        # one call over all families certifies the point
        families, x, cm = calls[-1]
        assert tuple(families) == prob.constraints
        assert np.array_equal(x, out.x_star)
        assert prob.y_domain.contains(cm.y_star, tol=0.0)
        fam = next(f for f in prob.constraints if f.index == cm.family)
        assert out.feasibility_margin == float(fam.value(out.x_star, cm.y_star))
        assert out.certified_bound == cm.value + cm.gap
        assert out.feasibility_margin <= out.certified_bound
        assert out.certified_bound <= out.feasibility_margin + POST_HOC_DELTA
        # the grid reads batch_eval, the certificate the scalar oracle; the
        # two may round apart (instance_B at x0 = x1 differs by 2e-16)
        grid = feasibility_margin(prob, out.x_star, default_margin_resolution(prob))
        assert grid <= out.certified_bound + 1e-12

    @staticmethod
    def exhaust_tight_calls(monkeypatch):
        inner = lower_level.certified_max

        def exhausted(families, x, delta, *args, **kwargs):
            if delta <= POST_HOC_DELTA:
                raise CertificationError("cell budget 2000000 exhausted")
            return inner(families, x, delta, *args, **kwargs)

        monkeypatch.setattr(lower_level, "certified_max", exhausted)

    # the sequential driver certifies the Slater point at 1e-9 before its
    # first stage; see test_exhausted_slater_certification
    @pytest.mark.parametrize("kind", ["simultaneous", "budget"])
    def test_exhausted_certification_keeps_the_point(self, monkeypatch, kind):
        self.exhaust_tight_calls(monkeypatch)
        prob, out = self.run("instance_A", kind)
        assert out.status is OutcomeStatus.BUDGET_EXCEEDED
        assert out.x_star is not None
        assert out.f_value == prob.objective.value(out.x_star)
        assert np.isnan(out.feasibility_margin) and np.isnan(out.certified_bound)
        assert out.certification_error == "cell budget 2000000 exhausted"

    def test_exhausted_slater_certification(self, monkeypatch):
        # without regularity data the sequential driver derives eps* from
        # the Slater point at 1e-9; a cell stop there ends the run before
        # its first stage, with no point
        self.exhaust_tight_calls(monkeypatch)
        _, out = self.run("instance_A", "sequential")
        assert out.status is OutcomeStatus.BUDGET_EXCEEDED
        assert out.x_star is None and np.isnan(out.f_value)
        assert np.isnan(out.feasibility_margin) and np.isnan(out.certified_bound)
        assert out.certification_error == "cell budget 2000000 exhausted"
        assert out.iterations == {"outer": 0, "inner": 0}
        assert out.trace.rows == [] and out.oracle_evals == 0


class TestApproximationContract:
    @pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3])
    def test_convex_sibling(self, prob_sibling, delta):
        # optimum 1 at x = 1 for f(x) = (x-2)^2 with g = x^2 - 1
        cfg = SequentialConfig(
            delta=delta, r=2.0, eps00=0.5, schedule=geometric_schedule(0.5),
            rho=0.5, y0=single(0.5),
        )
        out = run_sequential(prob_sibling, cfg)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert out.f_value <= 1.0 + delta
        assert out.certified_bound <= 1e-9


class TestTwoDimensionalIndexSets:
    @pytest.mark.parametrize(
        "seed", [s for s in range(40) if random_affine_instance(s).y_domain.dim == 2]
    )
    def test_sequential_certifies_every_q2_seed(self, seed):
        # the 1e-9 post-hoc certificate on a 2-D index box once took seconds
        # or exhausted the cell budget on some of these seeds
        prob = random_affine_instance(seed)
        cfg = SequentialConfig(
            delta=0.1, r=2.0, eps00=0.5, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=default_y0(prob),
        )
        out = run_sequential(prob, cfg, m_star=2)
        assert out.status is OutcomeStatus.DELTA_APPROXIMATE
        assert out.certified_bound <= 0.0


class TestWholeRunDeterminism:
    """Two runs on the same input write the same trace and the same point,
    bit for bit."""

    SCHEDULE = eventually_zero_schedule(0)

    @staticmethod
    def _assert_same(run, point):
        first, second = run(), run()
        assert first.trace.to_csv() == second.trace.to_csv()
        assert point(first).tobytes() == point(second).tobytes()

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 39), st.sampled_from([0.5, 0.1]), st.sampled_from([0.0, np.inf])
    )
    def test_run_core(self, seed, eps, rho):
        prob = random_affine_instance(seed)
        cfg = CoreConfig(
            eps=eps, rho=rho, schedule=self.SCHEDULE, y0=default_y0(prob)
        )
        self._assert_same(lambda: run_core(prob, cfg), lambda res: res.x)

    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 39))
    def test_run_sequential(self, seed):
        prob = random_affine_instance(seed)
        cfg = SequentialConfig(
            delta=0.1, r=2.0, eps00=0.5, schedule=self.SCHEDULE, rho=0.0,
            y0=default_y0(prob),
        )
        self._assert_same(
            lambda: run_sequential(prob, cfg, m_star=2), lambda out: out.x_star
        )

    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 39))
    def test_run_simultaneous(self, seed):
        prob = random_affine_instance(seed)
        y0 = default_y0(prob)
        cfg = SimultaneousConfig(
            delta=0.1, r=2.0, eps0=0.5, schedule=self.SCHEDULE, rho=0.5,
            y0_check=y0, y0_hat=y0,
        )
        self._assert_same(
            lambda: run_simultaneous(prob, cfg), lambda out: out.x_star
        )


class TestNonFiniteOracle:
    """A non-finite oracle output is an InputError naming the family on
    every route, whichever layer sees it first; it is never a budget stop."""

    @staticmethod
    def log_barrier():
        # g(x, y) = log(1.5 - x) + y - 1, NaN for x >= 1.5; f = x^2 - 2x
        import math

        from sipsolve.problem import BoxDomain, ConvexObjective, SipProblem

        def g(x, y):
            return math.log(1.5 - x[0]) + y[0] - 1.0 if x[0] < 1.5 else math.nan

        def dg(x, y):
            return np.array([-1.0 / (1.5 - x[0]) if x[0] < 1.5 else math.nan])

        X, Y = BoxDomain([-2.0], [2.0]), BoxDomain([0.0], [1.0])
        fam = ConstraintFamily(0, g, dg, lipschitz_in_y=1.0, y_domain=Y)
        objective = ConvexObjective(
            lambda x: float(x[0] ** 2 - 2.0 * x[0]), lambda x: 2.0 * x - 2.0, 6.0
        )
        return SipProblem(X, Y, objective, (fam,), slater_point=np.array([1.0]))

    def test_every_driver_raises(self):
        # without the Slater point x = 1, which meets the rows, phase 1 goes
        # to its LP, whose points reach x >= 1.5
        y0 = default_y0(self.log_barrier())
        seq_cfg = SequentialConfig(
            delta=1e-2, r=2.0, eps00=0.5, schedule=eventually_zero_schedule(0),
            rho=0.0, y0=y0,
        )
        prob, m_star = unseeded(self.log_barrier(), seq_cfg)
        runs = [
            lambda: run_core(prob, CoreConfig(
                eps=0.1, rho=0.0, schedule=eventually_zero_schedule(0), y0=y0)),
            lambda: run_sequential(prob, seq_cfg, m_star),
            lambda: run_simultaneous(prob, SimultaneousConfig(
                delta=1e-2, r=2.0, eps0=0.5, schedule=sim_schedule(1e-2), rho=0.5,
                y0_check=y0, y0_hat=y0)),
        ]
        for run in runs:
            with pytest.raises(InputError, match="family 0 returned a non-finite value"):
                run()

    def test_slater_search_raises(self):
        # the search evaluates g at x = 0 and then at x = 2, where g is NaN:
        # that is bad input, not a program without a Slater point
        prob = replace(self.log_barrier(), slater_point=None)
        with pytest.raises(InputError, match="family 0 returned a non-finite value") as info:
            synthesize_slater_point(prob)
        assert not isinstance(info.value, InfeasibleProgramError)

    def test_eval_grid_names_the_family(self):
        fam = replace(self.log_barrier().constraints[0], index=3)
        ys = np.array([[0.0], [1.0]])
        assert np.isfinite(fam.eval_grid(np.array([0.0]), ys)).all()
        with pytest.raises(InputError, match="family 3 returned a non-finite value"):
            fam.eval_grid(np.array([1.5]), ys)

    def test_finite_solver_checks_cut_oracles(self, prob_a):
        # the values stay finite; only the cuts' subgradients do not
        from sipsolve.finite_solver import DiscretizedProblem, solve_discretized

        fam = replace(prob_a.constraints[0], subgradient_x=lambda x, y: np.array([np.nan]))
        dp = DiscretizedProblem(replace(prob_a, constraints=(fam,)), 0.1, single(1.0).points)
        with pytest.raises(InputError, match="family 0 returned a non-finite x-subgradient"):
            solve_discretized(dp, 1e-6)
        objective = replace(prob_a.objective, value=lambda x: np.inf, quadratic=None)
        dp = DiscretizedProblem(replace(prob_a, objective=objective), 0.1, single(1.0).points)
        with pytest.raises(InputError, match="objective returned a non-finite"):
            solve_discretized(dp, 1e-6)


class TestSlaterSearch:
    """``synthesize_slater_point`` is one restriction-feasibility stream:
    each infeasible solve shrinks the restriction past every level its
    certificate rules out, and the stream keeps its points and cut pool."""

    @staticmethod
    def square(M):
        # g(x, y) = x0**2 - M on x in [-1, 1], f = -x0: strictly feasible
        # points exist for M > 0 only, with margin M - x0**2
        X, Y = BoxDomain([-1.0], [1.0]), BoxDomain([0.0], [1.0])
        fam = ConstraintFamily(
            0, lambda x, y: x[0] ** 2 - M, lambda x, y: np.array([2.0 * x[0]]),
            lipschitz_in_y=0.0, y_domain=Y,
        )
        objective = ConvexObjective(lambda x: -float(x[0]), lambda x: np.array([-1.0]), 1.0)
        return SipProblem(X, Y, objective, (fam,))

    @staticmethod
    def counted(monkeypatch):
        calls = []
        solve = core_loop.solve_discretized

        def counting(*args, **kwargs):
            calls.append(args[0].eps)
            return solve(*args, **kwargs)

        monkeypatch.setattr(core_loop, "solve_discretized", counting)
        return calls

    def test_shallow_margin_takes_two_solves(self, monkeypatch):
        # eps 1 is infeasible and its certificate rules out every
        # restriction above M + FEASTOL: the next solve is at 2**-29, where
        # the point terminates (restarting at eps = 1, 1/2, ... took 30)
        calls = self.counted(monkeypatch)
        found = synthesize_slater_point(self.square(3e-9))
        assert calls == [1.0, 2.0**-29]
        assert found.slater_point[0] == pytest.approx(3.44580158e-05, rel=1e-8)
        assert vars(found)["eps_star"] > 0

    def test_infeasible_program_takes_one_solve(self, monkeypatch):
        # g = x0**2 + 1 > 0 everywhere: the first certificate rules out
        # every restriction, and the search returns the problem as it was
        calls = self.counted(monkeypatch)
        prob = self.square(-1.0)
        assert synthesize_slater_point(prob) is prob
        assert calls == [1.0]
        stream = Stream(prob, 1.0, Discretization(prob.y_domain.center().reshape(1, -1)))
        with pytest.raises(InfeasibleProgramError, match="program itself is infeasible"):
            run_feas_finite(stream, 2.0, geometric_schedule(0.5), np.inf)

    def test_no_strict_margin_finds_none(self):
        # M = 0: the feasible set is x0 = 0, with no strictly feasible point
        prob = self.square(0.0)
        assert synthesize_slater_point(prob) is prob
