"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Expected values come from analytic optima of the built-in instances
or from independent oracles (brute-force grids, the active-set QP); nothing
is read back from the solver path under test.
"""

import numpy as np
import pytest

from sipsolve.core_loop import (
    CoreConfig,
    CoreStatus,
    Discretization,
    ToleranceSchedule,
    eventually_zero_schedule,
    geometric_schedule,
    run_core,
)
from sipsolve.drivers import (
    OutcomeStatus,
    SequentialConfig,
    SimultaneousConfig,
    compute_termination_index,
    run_sequential,
    run_simultaneous,
)
from sipsolve.errors import ConfigError
from sipsolve.finite_solver import DiscretizedProblem, SolveStatus, solve_discretized
from sipsolve.instances import (
    instance_a,
    instance_b,
    quasiconvex_gap,
    random_affine_instance,
    regression_r_spec,
)
from sipsolve.lower_level import certified_max
from sipsolve.problem import BoxDomain
from sipsolve.qp import solve_qp
from sipsolve.regression import (
    RegressionSpec,
    assemble_loss,
    build_problem,
    constraint_coefficient_polys,
    monotone_increasing,
)

DELTAS = (1e-1, 1e-2, 1e-3)
ANALYTIC = {"instance_A": (instance_a, 0.0), "instance_B": (instance_b, 2.0)}


def single(y):
    return Discretization(np.array([[y]]))


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


# --------------------------------------------------------------------------
# shared expensive runs (criteria 4-7 reuse them)
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def random_core_runs():
    """Criterion 4 runs: floor-level obj schedules so criterion 6 can reuse
    the traces."""
    runs = []
    for seed in range(50):
        prob = random_affine_instance(seed)
        for eps in (0.5, 0.1):
            for rho in (0.0, np.inf):
                cfg = CoreConfig(
                    eps=eps, rho=rho, schedule=eventually_zero_schedule(0),
                    y0=single_center(prob), max_iters=10_000,
                )
                runs.append(run_core(prob, cfg))
    return runs


@pytest.fixture(scope="module")
def convergence_runs():
    """Criterion 5 runs: 200 iterations at zero restriction."""
    out = {}
    for name, (build, _) in ANALYTIC.items():
        prob = build()
        y0 = 0.0 if name == "instance_A" else 0.5
        cfg = CoreConfig(
            eps=0.0, rho=0.0, schedule=eventually_zero_schedule(0),
            y0=single(y0), max_iters=200,
        )
        out[name] = run_core(prob, cfg)
    return out


def single_center(problem):
    return Discretization(problem.y_domain.center().reshape(1, -1))


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------


def test_c01_sequential_delta_approximation():
    for name, (build, f_star) in ANALYTIC.items():
        prob = build()
        for delta in DELTAS:
            cfg = SequentialConfig(
                delta=delta, r=2.0, eps00=1.0, schedule=geometric_schedule(0.5),
                rho=0.5, y0=single_center(prob),
            )
            out = run_sequential(prob, cfg)
            assert out.status is OutcomeStatus.DELTA_APPROXIMATE, (name, delta)
            assert out.f_value <= f_star + delta, (name, delta, out.f_value)
            lip = max(f.lipschitz_in_y for f in prob.constraints)
            assert out.feasibility_margin <= 1e-6 + lip * 1e-3, (name, delta)
    report(1, "run_sequential delta-approximate on A and B for all deltas")


def test_c02_simultaneous_delta_approximation():
    for name, (build, f_star) in ANALYTIC.items():
        prob = build()
        for delta in DELTAS:
            sched = ToleranceSchedule(delta / 4, 0.1, 0.5)
            cfg = SimultaneousConfig(
                delta=delta, r=2.0, eps0=1.0, schedule=sched, rho=0.5,
                y0_check=single_center(prob), y0_hat=single_center(prob),
            )
            out = run_simultaneous(prob, cfg)
            assert out.status is OutcomeStatus.DELTA_APPROXIMATE, (name, delta)
            assert out.f_value <= f_star + delta, (name, delta, out.f_value)
    # construction-time rejection of sup obj_tol >= delta/2
    with pytest.raises(ConfigError):
        SimultaneousConfig(
            delta=0.1, r=2.0, eps0=1.0,
            schedule=ToleranceSchedule(0.05, 0.1, 0.5),
            rho=0.5, y0_check=single(0.0), y0_hat=single(0.0),
        )
    report(2, "run_simultaneous delta-approximate on A and B; gate rejects")


def test_c03_restricted_value_rate():
    prob = instance_a()
    grid = np.linspace(0.0, 1.0, 1001).reshape(-1, 1)
    for eps in (1.0, 0.5, 0.1, 0.01):
        res = solve_discretized(DiscretizedProblem(prob, eps, grid), 1e-9)
        assert res.status is SolveStatus.FEASIBLE
        assert abs(res.upper - eps**2) <= 1e-8, (eps, res.upper)
        # linear value bound with L* = 4, diam X = 4, eps* = 2
        assert res.upper <= 0.0 + 4.0 * (4.0 / 2.0) * eps + 1e-9
    report(3, "restricted minima equal eps^2 and obey the 8 eps bound")


def test_c04_core_termination_eps_positive(random_core_runs):
    assert len(random_core_runs) == 200
    for run in random_core_runs:
        assert run.status is CoreStatus.TERMINATED
        assert run.iterations <= 10_000
    report(4, "200/200 randomized runs terminated (50 instances x 2 eps x 2 rho)")


def test_c05_core_convergence_eps_zero(convergence_runs):
    targets = {"instance_A": np.array([0.0]), "instance_B": np.array([-1.0, -1.0])}
    for name, run in convergence_runs.items():
        dist = float(np.max(np.abs(run.x - targets[name])))
        assert dist <= 1e-3, (name, dist)
    report(5, "x^200 within 1e-3 of the analytic solution on A and B")


def test_c06_monotone_objective(random_core_runs, convergence_runs):
    worst = 0.0
    pairs = 0
    for run in list(random_core_runs) + list(convergence_runs.values()):
        fs = [r.f_x for r in run.trace.rows if np.isfinite(r.f_x)]
        for a, b in zip(fs, fs[1:]):
            worst = min(worst, b - a)
            pairs += 1
            assert b >= a - 1e-10, (a, b)
    assert pairs > 300
    report(6, f"f never drops more than 1e-10 across {pairs} pairs (worst {worst:.2e})")


def test_c07_discretization_size_advantage(tmp_path, capsys):
    prob = instance_a()
    cards = {}
    for rho in (0.0, np.inf):
        cfg = CoreConfig(
            eps=0.0, rho=rho, schedule=eventually_zero_schedule(0),
            y0=single(0.0), max_iters=30,
        )
        cards[rho] = [row.card_y for row in run_core(prob, cfg).trace.rows]
    assert max(cards[0.0]) <= 3, cards[0.0]
    growth = cards[np.inf]
    assert growth[-1] >= len(growth) - 2  # one new point per iteration
    assert all(b >= a for a, b in zip(growth, growth[1:]))
    # the bench subcommand emits the same comparison as a table
    from sipsolve.cli import main

    table = tmp_path / "table.csv"
    code = main(
        ["bench", "--problem", "builtin:instance_A", "--max-iters", "12",
         "--table-out", str(table)]
    )
    assert code == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "k,card_rho0,card_rhoinf"
    assert len(lines) == 13
    capsys.readouterr()
    report(7, f"rho=0 max |Y|={max(cards[0.0])}, rho=inf grows to {growth[-1]} in {len(growth)} iters")


def test_c08_termination_index_formula():
    # eps* = 2, L = 4
    m = compute_termination_index(0.1, 2.0, 4.0, 4.0, 1.0, 2.0, lambda k: 0.0)
    assert m == 8
    deltas = np.logspace(-3, 1, 10)
    ms = [
        compute_termination_index(d, 2.0, 4.0, 4.0, 1.0, 2.0, lambda k: 0.0)
        for d in deltas
    ]
    assert all(b <= a for a, b in zip(ms, ms[1:]))
    report(8, f"m* = 8 reproduced; m*(delta) nonincreasing over {len(ms)}-point sweep")


def test_c09_quasiconvex_gap_fixture():
    prob = quasiconvex_gap()
    xs = np.linspace(-2.0, 2.0, 100_001)
    f_vals = (xs - 2.0) ** 2
    g_vals = np.where(np.abs(xs) <= 1.0, xs**2 - 1.0, 0.0)
    min_f0 = float(f_vals[g_vals <= 0.0].min())
    for eps in (0.5, 0.1, 0.01):
        min_feps = float(f_vals[g_vals <= -eps].min())
        gap = min_feps - min_f0
        assert gap >= 1.0, (eps, gap)
    # sanity: the fixture is loadable but flagged non-convex by validation
    from sipsolve.problem import validate_problem

    assert not validate_problem(prob).ok
    report(9, "restriction gap >= 1 for eps in {0.5, 0.1, 0.01} by grid minimization")


def test_c10_shape_constrained_regression():
    # part 1: instance R against the active-set QP oracle
    spec = regression_r_spec()
    prob = build_problem(spec)
    loss = assemble_loss(spec)
    oracle = solve_qp(loss.Q, loss.c, [[0.0, -1.0]], [0.0], d=loss.d)
    cfg = SequentialConfig(
        delta=1e-3, r=2.0, eps00=1.0, schedule=geometric_schedule(0.5),
        rho=0.5, y0=single(0.5),
    )
    out = run_sequential(prob, cfg)
    assert out.status is OutcomeStatus.DELTA_APPROXIMATE
    assert abs(out.f_value - oracle.objective) <= 1e-3
    assert np.max(np.abs(out.x_star - oracle.x)) <= 5e-3
    assert out.x_star[1] >= -1e-9
    us = np.linspace(0.0, 1.0, 10_000).reshape(-1, 1)
    assert np.max(prob.constraints[0].eval_grid(out.x_star, us)) <= 1e-9

    # part 2: degree-3 monotone fit on noisy cubic data
    rng = np.random.default_rng(42)
    u = rng.uniform(0.0, 1.0, 20)
    t = u**3 + 0.05 * rng.normal(size=20)
    spec3 = RegressionSpec(
        data=np.column_stack([u, t]),
        degree=3,
        coeff_box=BoxDomain([-10.0] * 4, [10.0] * 4),
        u_domain=BoxDomain([0.0], [1.0]),
        ridge=1e-6,
        shape_constraints=(monotone_increasing(dim=1),),
        slater_point=np.array([0.0, 1.0, 0.0, 0.0]),
    )
    prob3 = build_problem(spec3)
    loss3 = assemble_loss(spec3)
    # oracle: finely discretized problem, 1000 constraint points
    u_grid = np.linspace(0.0, 1.0, 1000)
    polys, offset = constraint_coefficient_polys(spec3, spec3.shape_constraints[0])
    G = np.stack([[p(np.array([ug])) for p in polys] for ug in u_grid])
    h = np.full(len(u_grid), -offset)
    oracle3 = solve_qp(loss3.Q, loss3.c, G, h, x0=np.array([0.0, 1.0, 0.0, 0.0]),
                       d=loss3.d)
    cfg3 = SequentialConfig(
        delta=1e-2, r=2.0, eps00=0.5, schedule=geometric_schedule(0.5),
        rho=0.5, y0=single(0.5),
    )
    out3 = run_sequential(prob3, cfg3)
    assert out3.status is OutcomeStatus.DELTA_APPROXIMATE
    assert abs(out3.f_value - oracle3.objective) <= 1e-2
    grid = np.linspace(0.0, 1.0, 10_000).reshape(-1, 1)
    assert np.max(prob3.constraints[0].eval_grid(out3.x_star, grid)) <= 1e-9
    report(10, "instance R matches the QP oracle; degree-3 monotone fit feasible "
               f"(objective diff {abs(out3.f_value - oracle3.objective):.2e})")


def test_c11_certificate_soundness():
    # finite-solver sandwich on 100 randomized instances with p <= 2
    seeds = []
    seed = 0
    while len(seeds) < 100:
        if random_affine_instance(seed).x_domain.dim <= 2:
            seeds.append(seed)
        seed += 1
    checked = 0
    for sd in seeds:
        prob = random_affine_instance(sd)
        pts = prob.y_domain.grid(prob.y_domain.diameter() / 2 + 1e-9)[:3]
        res = solve_discretized(DiscretizedProblem(prob, 0.2, pts), 1e-6)
        if res.status is not SolveStatus.FEASIBLE:
            continue
        assert res.upper - res.lower <= 1e-6 + res.gap_floor + 1e-12
        n = 2001 if prob.x_domain.dim == 1 else 201
        axes = [
            np.linspace(prob.x_domain.lower[j], prob.x_domain.upper[j], n)
            for j in range(prob.x_domain.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        X = np.stack([m.ravel() for m in mesh], axis=-1)
        feas = np.ones(len(X), dtype=bool)
        origin = np.zeros(prob.x_domain.dim)
        for fam in prob.constraints:
            for y in pts:
                a = fam.subgradient_x(origin, y)
                b = fam.value(origin, y)
                feas &= X @ a + b <= -0.2 + 1e-9
        if not feas.any():
            continue
        # reconstruct the quadratic form from oracle calls so the grid scan
        # vectorizes; exact for these instances
        p = prob.x_domain.dim
        f = prob.objective.value
        d0 = f(origin)
        cvec, Q = np.zeros(p), np.zeros((p, p))
        for i in range(p):
            e = np.zeros(p)
            e[i] = 1.0
            up, down = f(e), f(-e)
            cvec[i] = (up - down) / 2.0
            Q[i, i] = (up + down) / 2.0 - d0
        for i in range(p):
            for j in range(i + 1, p):
                e = np.zeros(p)
                e[i] = e[j] = 1.0
                Q[i, j] = Q[j, i] = (
                    f(e) - d0 - cvec[i] - cvec[j] - Q[i, i] - Q[j, j]
                ) / 2.0
        sub = X[feas]
        vals = np.einsum("ij,jk,ik->i", sub, Q, sub) + sub @ cvec + d0
        brute = float(vals.min())
        h = max(float(a[1] - a[0]) for a in axes)
        assert res.lower <= brute + 1e-8, sd
        assert brute <= res.upper + prob.objective.lipschitz_constant * h + 1e-8, sd
        checked += 1
    assert checked >= 80

    # lower-level certificate against a grid 10x finer than the certificate
    # resolution delta / L on 100 instances
    for sd in range(100):
        prob = random_affine_instance(sd)
        fam = prob.constraints[0]
        q = fam.y_domain.dim
        delta = 1e-3 if q == 1 else 0.25
        x = prob.x_domain.clip(prob.x_domain.center() + 0.2 * prob.x_domain.widths)
        cm = certified_max([fam], x, delta)
        assert cm.gap <= delta
        lip = max(fam.local_lipschitz_in_y(x), 1e-9)
        ys = fam.y_domain.grid(max(delta / lip / 10.0, 1e-6))
        finer = float(np.max(fam.eval_grid(x, ys)))
        assert cm.value + delta >= finer - 1e-12, sd
    report(11, f"sandwich held on {checked} finite solves; lower-level certificate "
               "covered the 10x-finer grid on 100 instances")
