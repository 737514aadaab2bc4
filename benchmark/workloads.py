"""The benchmark's workloads: fixed sets of solves and the checks on their
outcomes.

Every solve goes through a module attribute (``core_loop.run_core``,
``drivers.run_sequential``, ``cli.main``, ...) so that a traced run sees the
wrapped functions.  Checks run after the last pass, outside the timed
region and with tracing off: the first pass's outcomes are checked in full,
and every later pass must reproduce them exactly (the solvers are
deterministic).

The instance sets are fixed; the seed fixes the order in which a pass runs
them.  README.md gives the reasons for both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from sipsolve import cli, core_loop, drivers, instances, problem, qp, regression
from sipsolve.core_loop import CoreStatus, Discretization, eventually_zero_schedule
from sipsolve.drivers import OutcomeStatus

TIGHT_DELTA = drivers.POST_HOC_DELTA


class CheckFailed(Exception):
    """A solve returned, but its outcome is wrong."""


@dataclass
class Job:
    """One solve of a workload: a timed call and the checks on its result."""

    name: str
    solve: Callable[[], object]
    check: Callable[[object], None]
    # (loop iterations, largest discretization) of a finished solve
    loop_stats: Callable[[object], tuple[int, int]]
    # untimed, right after the pass: what the check needs before the next
    # pass overwrites it
    finish: Callable[[object], object] = lambda res: res
    # what a later pass must reproduce exactly, compared with ==
    fingerprint: Callable[[object], object] = lambda res: res


@dataclass
class Workload:
    jobs: list[Job]
    out_dir: Path | None = None
    # sha256 of the two files each CLI job wrote
    digests: dict[str, tuple[str, str]] = field(default_factory=dict)
    # one more operation after the checks, counted as attempted
    final_check: Callable[[], None] | None = None

    def bytes_per_pass(self) -> int:
        """Size of the files one pass writes (every pass writes the same)."""
        if self.out_dir is None:
            return 0
        return sum(
            Path(f"{self.out_dir / stem}{ext}").stat().st_size
            for stem in self.digests for ext in CLI_FILES
        )


def ordered(jobs: list[Job], seed: int) -> list[Job]:
    order = list(jobs)
    random.Random(seed).shuffle(order)
    return order


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _core_stats(result) -> tuple[int, int]:
    rows = result.trace.rows
    return len(rows), max((r.card_y for r in rows), default=0)


def _core_fingerprint(res) -> tuple:
    return res.status.value, None if res.x is None else res.x.tobytes()


def _outcome_fingerprint(res) -> tuple:
    x = None if res.x_star is None else res.x_star.tobytes()
    return res.status.value, x, res.f_value, res.certified_bound


# --------------------------------------------------------------------------
# random_core: run_core on randomized affine instances
# --------------------------------------------------------------------------

RANDOM_CORE_SEEDS = {"full": range(6), "smoke": range(1)}


def random_core(size: str, out_root: Path) -> Workload:
    """c04's grid (eps in {0.5, 0.1} x rho in {0, inf}) on the first
    instances of c04's seed block."""
    jobs = []
    for s in RANDOM_CORE_SEEDS[size]:
        prob = instances.random_affine_instance(s)
        y0 = instances.default_y0(prob)
        for eps in (0.5, 0.1):
            for rho in (0.0, np.inf):
                cfg = core_loop.CoreConfig(
                    eps=eps, rho=rho, schedule=eventually_zero_schedule(0),
                    y0=y0, max_iters=10_000,
                )
                jobs.append(Job(
                    name=f"random_affine_instance({s}) eps={eps} rho={rho}",
                    solve=lambda prob=prob, cfg=cfg: core_loop.run_core(prob, cfg),
                    check=lambda res, prob=prob: _check_core(prob, res),
                    loop_stats=_core_stats,
                    fingerprint=_core_fingerprint,
                ))
    return Workload(jobs)


def _check_core(prob, res) -> None:
    _require(res.status is CoreStatus.TERMINATED, f"status {res.status.value}")
    margin = problem.feasibility_margin(
        prob, res.x, problem.default_margin_resolution(prob)
    )
    _require(margin <= 0.0, f"grid margin {margin:.3e} > 0")


# --------------------------------------------------------------------------
# tight_cert: solves whose cost is the 1e-9 post-hoc certification
# --------------------------------------------------------------------------

# Both solves run with every constraint family multiplied by CONSTRAINT_SCALE.
# That leaves the feasible set and the optimum unchanged, while the absolute
# 1e-9 post-hoc gap asks for less: one pass takes about 12 s instead of 75 s,
# so that a run holds several, and the 1e-9 certification is still most of
# each solve (README.md).
CONSTRAINT_SCALE = 0.01
FIT_DELTA = 1e-1
Q2_SEED = 45
Q2_DELTA = 1e-1
# f of run_simultaneous on the unscaled random_affine_instance(45) at delta
# 1e-2, recorded when the benchmark was written.  Feasible delta-approximate
# values lie in [f*, f* + delta], so this one and a Q2_DELTA-approximate one
# differ by at most Q2_DELTA >= 1e-2.
Q2_F_RECORDED = -0.2973645139578228


def scaled_constraints(prob: problem.SipProblem, c: float) -> problem.SipProblem:
    """The same program with g_i replaced by c * g_i, c > 0."""
    families = tuple(
        problem.ConstraintFamily(
            index=f.index,
            value=lambda x, y, f=f: c * f.value(x, y),
            subgradient_x=lambda x, y, f=f: c * f.subgradient_x(x, y),
            lipschitz_in_y=c * f.lipschitz_in_y,
            y_domain=f.y_domain,
            batch_eval=lambda x, ys, f=f: c * f.batch_eval(x, ys),
            lipschitz_in_y_at=lambda x, f=f: c * f.lipschitz_in_y_at(x),
        )
        for f in prob.constraints
    )
    return problem.SipProblem(
        x_domain=prob.x_domain, y_domain=prob.y_domain, objective=prob.objective,
        constraints=families, slater_point=prob.slater_point,
    )


def fit_spec() -> regression.RegressionSpec:
    """c10's degree-3 monotone fit on noisy cubic data."""
    rng = np.random.default_rng(42)
    u = rng.uniform(0.0, 1.0, 20)
    t = u**3 + 0.05 * rng.normal(size=20)
    return regression.RegressionSpec(
        data=np.column_stack([u, t]),
        degree=3,
        coeff_box=problem.BoxDomain([-10.0] * 4, [10.0] * 4),
        u_domain=problem.BoxDomain([0.0], [1.0]),
        ridge=1e-6,
        shape_constraints=(regression.monotone_increasing(dim=1),),
        slater_point=np.array([0.0, 1.0, 0.0, 0.0]),
    )


def fit_oracle_value(spec: regression.RegressionSpec) -> float:
    """c10's independent oracle: the active-set QP on 1000 constraint points."""
    loss = regression.assemble_loss(spec)
    polys, offset = regression.constraint_coefficient_polys(
        spec, spec.shape_constraints[0]
    )
    G = np.stack([[p(np.array([u])) for p in polys] for u in np.linspace(0.0, 1.0, 1000)])
    h = np.full(len(G), -offset)
    return qp.solve_qp(loss.Q, loss.c, G, h, x0=spec.slater_point, d=loss.d).objective


def tight_cert(size: str, out_root: Path) -> Workload:
    spec = fit_spec()
    fit = scaled_constraints(regression.build_problem(spec), CONSTRAINT_SCALE)
    fit_cfg = drivers.SequentialConfig(
        delta=FIT_DELTA, r=2.0, eps00=0.5, schedule=core_loop.geometric_schedule(0.5),
        rho=0.5, y0=Discretization(np.array([[0.5]])),
    )
    oracle: list[float] = []

    def fit_objective(res) -> None:
        if not oracle:
            oracle.append(fit_oracle_value(spec))
        _require(abs(res.f_value - oracle[0]) <= FIT_DELTA,
                 f"f {res.f_value!r} not within {FIT_DELTA} of the QP oracle {oracle[0]!r}")

    jobs = [Job(
        name="degree-3 monotone fit, run_sequential",
        solve=lambda: drivers.run_sequential(fit, fit_cfg),
        check=lambda res: (_check_certificate(fit, res), fit_objective(res)),
        loop_stats=_core_stats,
        fingerprint=_outcome_fingerprint,
    )]
    if size == "full":
        q2 = scaled_constraints(instances.random_affine_instance(Q2_SEED), CONSTRAINT_SCALE)
        y0 = instances.default_y0(q2)
        q2_cfg = drivers.SimultaneousConfig(
            delta=Q2_DELTA, r=2.0, eps0=1.0, schedule=eventually_zero_schedule(0),
            rho=0.0, y0_check=y0, y0_hat=y0,
        )

        def q2_objective(res) -> None:
            _require(abs(res.f_value - Q2_F_RECORDED) <= Q2_DELTA,
                     f"f {res.f_value!r} not within {Q2_DELTA} of {Q2_F_RECORDED!r}")

        jobs.append(Job(
            name=f"random_affine_instance({Q2_SEED}) q=2, run_simultaneous",
            solve=lambda: drivers.run_simultaneous(q2, q2_cfg),
            check=lambda res: (_check_certificate(q2, res), q2_objective(res)),
            loop_stats=_core_stats,
            fingerprint=_outcome_fingerprint,
        ))
    return Workload(jobs)


def _check_certificate(prob, res) -> None:
    """The tight certificate is sound and no looser than the post-hoc gap
    plus the grid's own resolution."""
    _require(res.status is OutcomeStatus.DELTA_APPROXIMATE, f"status {res.status.value}")
    bound = res.certified_bound
    _require(bound <= 0.0, f"certified bound {bound:.3e} > 0")
    h = problem.default_margin_resolution(prob)
    margin = problem.feasibility_margin(prob, res.x_star, h)
    _require(margin <= bound, f"grid margin {margin!r} above certified bound {bound!r}")
    lip = max(fam.local_lipschitz_in_y(res.x_star) for fam in prob.constraints)
    slack = TIGHT_DELTA + lip * h
    _require(bound - margin <= slack,
             f"certified bound {bound!r} more than {slack:.3e} above grid margin {margin!r}")


# --------------------------------------------------------------------------
# cli_builtins: the solve subcommand in process, writing its files
# --------------------------------------------------------------------------

CLI_OPTIMA = {
    "instance_A": 0.0,
    "instance_B": 2.0,
    "regression_R": 1.0 - 1.0 / (2.0 + 1e-6),
}
CLI_GRID = {
    "full": [(n, a, d) for n in CLI_OPTIMA
             for a in ("sequential", "simultaneous")
             for d in ("1e-1", "1e-3")],
    "smoke": [("instance_A", a, "1e-1") for a in ("sequential", "simultaneous")],
}
CLI_FILES = (".trace.csv", ".outcome.json")
# the cheapest invocation, repeated once per run for the byte comparison
CLI_REPEAT = ("instance_A", "simultaneous", "1e-1")


def cli_argv(name: str, algorithm: str, delta: str, stem: Path) -> list[str]:
    return [
        "solve", "--problem", f"builtin:{name}", "--algorithm", algorithm,
        "--delta", delta, "--trace-out", f"{stem}.trace.csv",
        "--outcome-out", f"{stem}.outcome.json",
    ]


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def file_digests(stem: Path) -> tuple[str, str]:
    return tuple(
        hashlib.sha256(Path(f"{stem}{ext}").read_bytes()).hexdigest()
        for ext in CLI_FILES
    )


def cli_builtins(size: str, out_root: Path) -> Workload:
    out_dir = out_root / "cli"
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Workload([], out_dir=out_dir)
    for name, algorithm, delta in CLI_GRID[size]:
        stem = out_dir / f"{name}-{algorithm}-{delta}"
        argv = cli_argv(name, algorithm, delta, stem)
        work.jobs.append(Job(
            name=f"{name} {algorithm} {delta}",
            solve=lambda argv=argv: run_cli(argv),
            check=lambda res, stem=stem, n=name, d=float(delta): _check_cli(work, stem, n, d, res),
            loop_stats=lambda res, stem=stem: _csv_stats(stem),
            finish=lambda code, stem=stem: (code, file_digests(stem)),
        ))
    work.final_check = lambda: repeat_check(work)
    return work


def _check_cli(work: Workload, stem: Path, name: str, delta: float, res) -> None:
    code, digests = res
    _require(code == 0, f"exit code {code}")
    outcome = json.loads(Path(f"{stem}.outcome.json").read_text())
    _require(outcome["status"] == OutcomeStatus.DELTA_APPROXIMATE.value,
             f"status {outcome['status']}")
    f_star = CLI_OPTIMA[name]
    _require(outcome["f"] <= f_star + delta, f"f {outcome['f']!r} > f* + delta")
    work.digests[stem.name] = digests


def _csv_stats(stem: Path) -> tuple[int, int]:
    lines = Path(f"{stem}.trace.csv").read_text().splitlines()[1:]
    return len(lines), max((int(line.split(",")[2]) for line in lines), default=0)


def repeat_check(work: Workload) -> None:
    """Run the cheapest CLI invocation again into other files and compare
    their bytes with the pass's own."""
    name, algorithm, delta = CLI_REPEAT
    stem = work.out_dir / f"{name}-{algorithm}-{delta}"
    again = work.out_dir / f"repeat-{name}-{algorithm}-{delta}"
    code = run_cli(cli_argv(name, algorithm, delta, again))
    _require(code == 0, f"repeat exit code {code}")
    for ext in CLI_FILES:
        _require(Path(f"{stem}{ext}").read_bytes() == Path(f"{again}{ext}").read_bytes(),
                 f"repeat of {stem.name}{ext} differs byte-wise")


BUILDERS = {
    "random_core": random_core,
    "tight_cert": tight_cert,
    "cli_builtins": cli_builtins,
}
