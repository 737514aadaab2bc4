from dataclasses import replace

import numpy as np
import pytest

from sipsolve import core_loop
from sipsolve.core_loop import (
    CoreConfig,
    DEDUP_TOL,
    CoreStatus,
    Discretization,
    RunTrace,
    Stream,
    ToleranceSchedule,
    eventually_zero_schedule,
    geometric_schedule,
    run_core,
    update_discretization,
)
from sipsolve.errors import ConfigError
from sipsolve.finite_solver import DiscretizedSolveResult, SolveStatus
from sipsolve.lower_level import CertifiedMax


def single(y):
    return Discretization(np.array([[y]]))


class TestDiscretization:
    def test_dedup(self):
        d = Discretization(np.array([[0.0], [1e-13], [1.0]]))
        assert d.cardinality == 2

    def test_extended_keeps_order(self):
        d = Discretization(np.vstack([single(0.0).points, [[0.5], [0.0]]]))
        assert d.cardinality == 2
        assert d.points[0, 0] == 0.0 and d.points[1, 0] == 0.5

    def test_empty(self):
        d = Discretization(np.zeros((0, 1)))
        assert d.cardinality == 0

    def test_dedup_compares_with_kept_points_only(self):
        # the middle point is within DEDUP_TOL of both neighbors, the outer
        # two are not: it goes, and the third is measured against the first
        p = np.array([0.25, -0.5])
        chain = np.array([p, p + 0.6 * DEDUP_TOL, p + 1.2 * DEDUP_TOL])
        d = Discretization(chain)
        np.testing.assert_array_equal(d.points, chain[[0, 2]])
        assert not d.points.flags.writeable


class TestSchedules:
    def test_geometric_is_summable(self):
        s = geometric_schedule(0.5)
        assert s.zero_from is None
        assert s.obj_tol(3) == pytest.approx(0.1 / 8)
        assert s.sup_obj() == 0.1

    def test_eventually_zero(self):
        s = eventually_zero_schedule(zero_from=2)
        assert s.obj_tol(1) > 0 and s.obj_tol(2) == 0.0 and s.obj_tol(100) == 0.0
        assert s.sup_obj() == 0.1
        assert eventually_zero_schedule(0).sup_obj() == 0.0

    @pytest.mark.parametrize(
        "schedule, reference",
        [
            # the tolerance expressions schedules were built from as callables
            (geometric_schedule(0.5), (
                lambda k: 0.1 * 0.5**k, lambda k: 0.1 * 0.5**k)),
            (geometric_schedule(0.3, 0.2), (
                lambda k: 0.2 * 0.3**k, lambda k: 0.2 * 0.3**k)),
            (eventually_zero_schedule(3), (
                lambda k: 0.1 * 0.5**k if k < 3 else 0.0, lambda k: 0.1 * 0.5**k)),
        ],
        ids=["geometric(0.5)", "geometric(0.3, 0.2)", "eventually_zero(3)"],
    )
    def test_tolerances_keep_their_bits(self, schedule, reference):
        obj, aux = reference
        for m in range(6):
            s = schedule.shifted(m)
            for k in range(201):
                assert s.obj_tol(k) == obj(k + m) and s.aux_tol(k) == aux(k)
        assert schedule.shifted(2).shifted(3) == schedule.shifted(5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(ratio=1.0), dict(ratio=0.0), dict(ratio=np.nan), dict(ratio=-0.5),
            dict(obj_scale=-1e-3), dict(obj_scale=np.inf), dict(aux_scale=np.nan),
            dict(aux_scale=-1.0), dict(zero_from=-1), dict(zero_from=2.0),
        ],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_invalid_schedule_rejected(self, kwargs):
        fields = dict(obj_scale=0.1, aux_scale=0.1, ratio=0.5, zero_from=None)
        ToleranceSchedule(**fields)  # the base record is valid
        with pytest.raises(ConfigError):
            ToleranceSchedule(**{**fields, **kwargs})

    def test_summable_requires_nonzero_rho(self):
        with pytest.raises(ConfigError):
            CoreConfig(
                eps=0.1, rho=0.0, schedule=geometric_schedule(0.5), y0=single(0.0)
            )

    @pytest.mark.parametrize("eps, rho", [(np.nan, 0.0), (np.inf, 0.0), (0.1, np.nan)])
    def test_invalid_number_rejected(self, eps, rho):
        with pytest.raises(ConfigError):
            CoreConfig(
                eps=eps, rho=rho, schedule=eventually_zero_schedule(0), y0=single(0.0)
            )

    @pytest.mark.parametrize("max_iters", [-3, 2.5, np.nan, "10"])
    def test_invalid_max_iters_rejected(self, max_iters):
        # -3 used to end a run with iterations -3, 2.5 in range's TypeError
        with pytest.raises(ConfigError, match="max_iters"):
            CoreConfig(
                eps=0.1, rho=0.0, schedule=eventually_zero_schedule(0),
                y0=single(0.0), max_iters=max_iters,
            )

    def test_shifted(self):
        s = geometric_schedule(0.5).shifted(3)
        assert s.obj_tol(0) == pytest.approx(0.1 / 8)


class TestUpdateDiscretization:
    def violator(self, y):
        return CertifiedMax(y_star=np.array([y]), value=0.0, gap=0.0, family=0)

    def test_prune_inactive(self, prob_a):
        # g(0, 0) = -1 < -0.1 - 0, so the old point is dropped
        new = update_discretization(
            prob_a, single(0.0), [0.0], eps=0.1, rho=0.0, violator=self.violator(1.0)
        )
        assert new.cardinality == 1
        assert new.points[0, 0] == 1.0

    def test_infinite_rho_keeps_everything(self, prob_a):
        new = update_discretization(
            prob_a, single(0.0), [0.0], eps=0.1, rho=np.inf,
            violator=self.violator(1.0),
        )
        assert sorted(new.points[:, 0]) == [0.0, 1.0]

    def test_threshold_retains_marginal_point(self, prob_a):
        # g(0, 0) = -1 >= -0.1 - 0.95 = -1.05, so the point survives
        new = update_discretization(
            prob_a, single(0.0), [0.0], eps=0.1, rho=0.95,
            violator=self.violator(1.0),
        )
        assert sorted(new.points[:, 0]) == [0.0, 1.0]

    def test_point_active_up_to_rounding_is_kept(self, prob_a):
        # g(0, 0) = -1 lies 1.1e-16 below -eps - rho: a row active up to
        # rounding, which an exact test at rho = 0 used to drop
        eps, rho = 0.1, 0.9 - 1e-16
        assert 0 < (-eps - rho) - -1.0 <= 2e-16
        new = update_discretization(
            prob_a, single(0.0), [0.0], eps=eps, rho=rho,
            violator=self.violator(1.0),
        )
        assert sorted(new.points[:, 0]) == [0.0, 1.0]

    def test_pruned_points_are_strictly_inactive(self, prob_b):
        yk = Discretization(np.linspace(0, 1, 9).reshape(-1, 1))
        x = np.array([-1.5, -0.2])
        eps, rho = 0.3, 0.4
        new = update_discretization(
            prob_b, yk, x, eps=eps, rho=rho, violator=self.violator(0.5)
        )
        kept = {float(v) for v in new.points[:, 0]}
        for y in yk.points:
            if float(y[0]) not in kept:
                val = prob_b.constraints[0].value(x, y)
                assert val < -eps - rho


class TestRunCore:
    def two_step_schedule(self):
        return ToleranceSchedule(0.0, 1e-3, 0.5 ** (1 / 64), zero_from=0)

    def test_instance_a_two_iterations(self, prob_a):
        cfg = CoreConfig(
            eps=0.1, rho=0.0, schedule=self.two_step_schedule(), y0=single(0.0),
            max_iters=50,
        )
        res = run_core(prob_a, cfg)
        assert res.status is CoreStatus.TERMINATED
        assert res.iterations == 2
        assert res.x[0] == pytest.approx(-0.1, abs=2e-3)
        branches = [row.branch for row in res.trace.rows]
        assert branches == ["violation", "terminated"]

    def test_instance_b_superset_mode(self, prob_b):
        cfg = CoreConfig(
            eps=0.5, rho=np.inf, schedule=self.two_step_schedule(),
            y0=single(0.5), max_iters=10,
        )
        res = run_core(prob_b, cfg)
        assert res.status is CoreStatus.TERMINATED
        assert res.iterations <= 3
        assert np.allclose(res.x, [-1.5, -1.5], atol=5e-3)

    def test_terminated_point_is_sip_feasible(self, prob_a):
        from sipsolve.lower_level import certified_max
        from sipsolve.problem import FEASTOL, feasibility_margin

        cfg = CoreConfig(
            eps=0.1, rho=0.0, schedule=self.two_step_schedule(), y0=single(0.0)
        )
        res = run_core(prob_a, cfg)
        cm = certified_max(prob_a.constraints, res.x, 1e-9)
        assert cm.value + cm.gap <= 1e-9
        lip = prob_a.constraints[0].lipschitz_in_y
        assert feasibility_margin(prob_a, res.x, 1e-4) <= FEASTOL * (1 + lip)

    def test_infeasible_subproblem_is_first_class(self, prob_a):
        cfg = CoreConfig(
            eps=4.0, rho=0.0, schedule=self.two_step_schedule(), y0=single(1.0)
        )
        res = run_core(prob_a, cfg)
        assert res.status is CoreStatus.INFEASIBLE_SUBPROBLEM
        assert res.trace.rows[-1].branch == "infeasible"

    def test_budget_outcome(self, prob_a):
        cfg = CoreConfig(
            eps=0.0, rho=0.0, schedule=self.two_step_schedule(), y0=single(0.0),
            max_iters=3,
        )
        res = run_core(prob_a, cfg)
        assert res.status is CoreStatus.BUDGET
        assert res.iterations == 3

    def test_vanishing_aux_tol_is_budget_stop(self, prob_a):
        # aux_tol(k) = 0: the gap request is floored at AUX_DELTA_FLOOR, so
        # the run ends on its iteration budget instead of rejecting a zero
        # gap request as an input error
        sched = ToleranceSchedule(0.0, 0.0, 0.5, zero_from=0)
        cfg = CoreConfig(
            eps=0.0, rho=0.0, schedule=sched, y0=single(0.0), max_iters=6
        )
        res = run_core(prob_a, cfg)
        assert res.status is CoreStatus.BUDGET
        assert [row.branch for row in res.trace.rows] == ["violation"] * 6

    def test_superset_rule_under_infinite_rho(self, prob_a):
        cfg = CoreConfig(
            eps=0.0, rho=np.inf, schedule=eventually_zero_schedule(0),
            y0=single(0.0), max_iters=12,
        )
        res = run_core(prob_a, cfg)
        cards = [row.card_y for row in res.trace.rows]
        assert all(b >= a for a, b in zip(cards, cards[1:]))

    def test_monotone_objective_at_floor(self, prob_a, prob_b):
        for prob, y0 in ((prob_a, 0.0), (prob_b, 0.5)):
            for rho in (0.0, 0.5, np.inf):
                cfg = CoreConfig(
                    eps=0.0, rho=rho, schedule=eventually_zero_schedule(0),
                    y0=single(y0), max_iters=40,
                )
                res = run_core(prob, cfg)
                fs = [r.f_x for r in res.trace.rows if np.isfinite(r.f_x)]
                for a, b in zip(fs, fs[1:]):
                    assert b >= a - 1e-11


class TestStream:
    """A stream's step keeps its latest point and its cut pool in step with
    its solves and its points."""

    def test_latest_point_is_the_last_solve_with_a_point(self, prob_a, monkeypatch):
        sched = eventually_zero_schedule(0)
        stream = Stream(prob_a, 0.1, single(0.0))
        first = stream.step(sched, 0)
        assert first.solve.status is SolveStatus.FEASIBLE
        assert stream.x is first.x
        hints = []

        def solve_to(result):
            def solve(dp, tol, x_hint=None, pool=None):
                hints.append(x_hint)
                return result

            return solve

        # an undecided solve without a point leaves the latest point alone
        no_point = DiscretizedSolveResult(SolveStatus.UNDECIDED, None, np.inf, -np.inf, 0.0)
        monkeypatch.setattr(core_loop, "solve_discretized", solve_to(no_point))
        step = stream.step(sched, 1)
        assert step.x is None and step.cert is None
        assert stream.x is first.x
        # an undecided solve with a point makes it the latest
        x = np.array([-0.5])
        undecided = DiscretizedSolveResult(SolveStatus.UNDECIDED, x, 0.25, 0.0, 0.0)
        monkeypatch.setattr(core_loop, "solve_discretized", solve_to(undecided))
        step = stream.step(sched, 2)
        assert step.cert is None
        assert stream.x is x
        assert len(hints) == 2 and all(h is first.x for h in hints)

    def test_unchanged_solve_is_reused_at_no_cost(self, prob_a, monkeypatch):
        sched = eventually_zero_schedule(0)
        stream = Stream(prob_a, 0.0, single(1.0))
        first = stream.solve(sched, 0)
        assert first.solve.status is SolveStatus.FEASIBLE and first.cert is None
        calls = []
        solve = core_loop.solve_discretized

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(core_loop, "solve_discretized", counted)
        # same eps and points, and the last gap meets obj_tol(1) = 0 up to
        # its floor: the earlier result answers, counting no work
        again = stream.solve(sched, 1, last=first)
        assert not calls
        assert again.x is first.x and again.solve.upper == first.solve.upper
        assert again.solve.lp_iters == again.solve.evals == again.evals == 0
        assert again.aux_delta == sched.aux_tol(1)
        stream.certify(again)
        assert again.cert is not None and again.evals == again.cert.evals
        # a gap wider than this iteration's, a new restriction or new points
        # each solve again
        wide = replace(first, solve=replace(first.solve, lower=first.solve.upper - 1.0))
        stream.solve(sched, 2, last=wide)
        stream.eps = 0.5
        stream.solve(sched, 3, last=first)
        stream.eps, stream.points = 0.0, single(0.5)
        stream.solve(sched, 4, last=first)
        assert len(calls) == 3

    @pytest.mark.parametrize("k", [0, 3, 12])
    @pytest.mark.parametrize("eps", [0.0, 1e-3, 0.05, 1.0])
    def test_certificate_gap_fits_the_restriction(self, prob_a, eps, k):
        # at most aux_tol(k) and, restricted, at most eps/2; at eps = 0 (the
        # simultaneous driver's check stream) exactly aux_tol(k)
        sched = eventually_zero_schedule(0)
        step = Stream(prob_a, eps, single(1.0)).step(sched, k)
        if eps == 0:
            assert step.aux_delta == sched.aux_tol(k)
        else:
            assert step.aux_delta <= eps / 2
            assert step.aux_delta == min(sched.aux_tol(k), eps / 2)

    def test_point_at_its_restriction_terminates_at_once(self, prob_a):
        # at eps = 0.01 the solve's point x = -0.01 has maximum -eps; the
        # gap aux_tol(0) = 0.1 alone could not prove it feasible
        step = Stream(prob_a, 0.01, single(1.0)).step(eventually_zero_schedule(0), 0)
        assert step.x[0] == pytest.approx(-0.01)
        assert step.cert.value > -eventually_zero_schedule(0).aux_tol(0)
        assert step.terminated

    def test_pool_drops_cuts_of_points_that_left(self, prob_a):
        sched = eventually_zero_schedule(0)
        stream = Stream(prob_a, 0.1, Discretization(np.array([[0.0], [0.5]])))
        step = stream.step(sched, 0)
        keyed = {key[1] for key in stream.pool.constraint}
        assert keyed == {np.array([y]).tobytes() for y in (0.0, 0.5)}
        # at x = 0 both points lie below -eps - rho, so refining drops them;
        # the step's row counts the 2 evaluations that decide it
        trace = RunTrace()
        step.record(trace, "violation")
        stream.refine(step, 0.0, trace)
        assert stream.points.cardinality == 1
        assert trace.total_evals == step.evals + 2
        stream.step(sched, 1)
        kept = {p.tobytes() for p in stream.points.points}
        assert stream.pool.constraint
        assert {key[1] for key in stream.pool.constraint} <= kept
        assert not keyed & kept


class TestRunTrace:
    def test_empty_trace(self):
        t = RunTrace()
        assert t.total_evals == 0
        assert t.to_csv() == "k,eps,card_Y,f_x,max_violation,branch,lp_iters,oracle_evals\n"

    def test_csv_shape(self, prob_a):
        cfg = CoreConfig(
            eps=0.1, rho=0.0, schedule=eventually_zero_schedule(0), y0=single(0.0)
        )
        res = run_core(prob_a, cfg)
        lines = res.trace.to_csv().strip().split("\n")
        assert lines[0] == "k,eps,card_Y,f_x,max_violation,branch,lp_iters,oracle_evals"
        assert len(lines) == len(res.trace.rows) + 1
