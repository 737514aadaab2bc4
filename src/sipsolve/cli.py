"""Command-line shell: solve, check and bench subcommands.

solve runs one of the three algorithms on a problem file (or builtin
instance) and writes an outcome JSON plus a trace CSV; --max-iters is the
run's one limit, in discretization steps.  Exit code 0 means a certified
result (DeltaApproximate, or Feasible for the core loop, which ignores
--delta), 2 a budget-limited partial result or an exhausted certification
cell budget (after the post-hoc certification, with both files written),
1 an input error, a non-finite number, a malformed command line or an
output file that cannot be written (checked before the run).
check validates a problem file including its Slater certificate.  bench
compares discretization growth between the minimal (rho = 0) and monotone
(rho = inf) pruning policies on the same instance.
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys

import numpy as np

from .core_loop import (
    CoreConfig,
    CoreStatus,
    eventually_zero_schedule,
    geometric_schedule,
    run_core,
)
from .drivers import (
    OutcomeStatus,
    SequentialConfig,
    SimultaneousConfig,
    SolveOutcome,
    budget_outcome,
    post_hoc_outcome,
    run_sequential,
    run_simultaneous,
)
from .errors import CertificationError, ConfigError, InputError
from .instances import default_y0
from .problem import validate_problem
from .serialization import fmt17, load_problem, write_outcome_json, write_trace_csv

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_BUDGET = 2


def parse_schedule(text: str):
    m = re.fullmatch(r"geometric\(([^,)]+)(?:,([^,)]+))?\)", text)
    if m:
        try:
            ratio = float(m.group(1))
            scale = 0.1 if m.group(2) is None else float(m.group(2))
        except ValueError:
            raise InputError(f"non-numeric argument in schedule {text!r}") from None
        return geometric_schedule(ratio=ratio, scale=scale)
    m = re.fullmatch(r"eventually_zero\((\d+)\)", text)
    if m:
        return eventually_zero_schedule(zero_from=int(m.group(1)))
    raise InputError(
        f"unknown schedule {text!r}; use geometric(q), geometric(q, scale) "
        "or eventually_zero(k0)"
    )


def parse_rho(text: str) -> float:
    value = float(text)  # also reads "inf" and "infinity", in any case
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"need rho >= 0 or inf, got {text!r}")
    return value


def parse_finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


def parse_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"need a count >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sipsolve",
        description="Certified adaptive-discretization solver for convex "
        "semi-infinite programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a driver and write outcome/trace")
    solve.add_argument("--problem", required=True, help="JSON path or builtin:NAME")
    solve.add_argument(
        "--algorithm",
        choices=("core", "sequential", "simultaneous"),
        default="sequential",
    )
    solve.add_argument("--delta", type=parse_finite, default=1e-2)
    solve.add_argument("--rho", type=parse_rho, default=0.0)
    solve.add_argument("--r", type=parse_finite, default=2.0)
    solve.add_argument("--eps0", type=parse_finite, default=1.0)
    solve.add_argument("--schedule", default="eventually_zero(0)")
    solve.add_argument("--max-iters", type=parse_count, default=10_000)
    solve.add_argument("--trace-out", default="trace.csv")
    solve.add_argument("--outcome-out", default="outcome.json")

    check = sub.add_parser("check", help="validate a problem file")
    check.add_argument("--problem", required=True)

    bench = sub.add_parser(
        "bench", help="discretization-size comparison between rho=0 and rho=inf"
    )
    bench.add_argument("--problem", required=True)
    bench.add_argument("--eps", type=float, default=0.0)
    bench.add_argument("--max-iters", type=parse_count, default=30)
    bench.add_argument(
        "--schedule",
        default="eventually_zero(0)",
        help="eventually_zero(k0) only: the rho = 0 run rejects a summable schedule",
    )
    bench.add_argument("--table-out", default=None)
    return parser


def check_output_paths(*paths) -> None:
    """Raise, before any run, the OSError that writing a path would raise
    when its directory is missing or not writable or it is itself a
    directory; creates no file.  None stands for no file."""
    for path in filter(None, paths):
        parent = os.path.dirname(os.path.abspath(path))
        for failed, code in ((os.path.isdir(path), errno.EISDIR),
                             (not os.path.exists(parent), errno.ENOENT),
                             (not os.path.isdir(parent), errno.ENOTDIR),
                             (not os.access(parent, os.W_OK), errno.EACCES)):
            if failed:
                raise OSError(code, os.strerror(code), path)


def _core_outcome(problem, result, eps0: float) -> SolveOutcome:
    """Wrap a core-loop result so the same writers apply.  The core loop
    runs at the one restriction eps0, so an infeasible restricted problem
    means eps0 is too large, an input error rather than a budget stop.  A
    terminated run is certified feasible; it makes no claim about delta."""
    if result.status is CoreStatus.INFEASIBLE_SUBPROBLEM:
        raise InputError(
            f"--eps0 {eps0:g} is too large: the problem restricted by it has "
            "no feasible point; choose a smaller eps0"
        )
    if result.status is CoreStatus.TERMINATED:
        return post_hoc_outcome(
            problem, result.x, OutcomeStatus.FEASIBLE, 1, result.trace
        )
    return budget_outcome(problem, result.x, 1, result.trace)


def cmd_solve(args) -> int:
    check_output_paths(args.trace_out, args.outcome_out)
    problem = load_problem(args.problem)
    schedule = parse_schedule(args.schedule)
    y0 = default_y0(problem)

    shared = dict(rho=args.rho, schedule=schedule, max_iters=args.max_iters)
    if args.algorithm == "core":
        result = run_core(problem, CoreConfig(eps=args.eps0, y0=y0, **shared))
        outcome = _core_outcome(problem, result, args.eps0)
    elif args.algorithm == "sequential":
        outcome = run_sequential(problem, SequentialConfig(
            delta=args.delta, r=args.r, eps00=args.eps0, y0=y0, **shared))
    else:
        outcome = run_simultaneous(problem, SimultaneousConfig(
            delta=args.delta, r=args.r, eps0=args.eps0, y0_check=y0, y0_hat=y0,
            **shared))

    write_trace_csv(args.trace_out, outcome.trace)
    write_outcome_json(args.outcome_out, outcome)
    if outcome.certification_error is not None:
        print(f"error: {outcome.certification_error}", file=sys.stderr)
    print(f"status: {outcome.status.value}")
    if outcome.x_star is not None:
        print(f"x*: [{', '.join(fmt17(v) for v in outcome.x_star)}]")
        print(f"f(x*): {fmt17(outcome.f_value)}")
        if outcome.certification_error is None:
            print(f"feasibility margin: {fmt17(outcome.feasibility_margin)}")
    print(f"trace: {args.trace_out}\noutcome: {args.outcome_out}")
    return EXIT_BUDGET if outcome.status is OutcomeStatus.BUDGET_EXCEEDED else EXIT_OK


def cmd_check(args) -> int:
    problem = load_problem(args.problem)
    report = validate_problem(problem)
    print(f"constraint families: {len(problem.constraints)}")
    print(f"x box: {problem.x_domain.dim}-dim, diameter {fmt17(problem.x_domain.diameter())}")
    print(f"y box: {problem.y_domain.dim}-dim, diameter {fmt17(problem.y_domain.diameter())}")
    if problem.slater_point is not None:
        print(f"slater certificate ok, eps* = {fmt17(problem.eps_star)}")
    else:
        print("no slater point declared, and the Slater search found none")
    if not report.ok:
        for failure in report.failures:
            print(f"oracle check FAILED: {failure}")
        return EXIT_INPUT_ERROR
    print("oracle checks passed")
    return EXIT_OK


def cmd_bench(args) -> int:
    check_output_paths(args.table_out)
    problem = load_problem(args.problem)
    schedule = parse_schedule(args.schedule)
    if schedule.zero_from is None:
        raise InputError(
            "bench's rho = 0 run needs eventually_zero(k0): a summable "
            f"schedule ({args.schedule}) requires a nonzero pruning radius"
        )
    y0 = default_y0(problem)
    cards: dict[float, list[int]] = {}
    for rho in (0.0, np.inf):
        cfg = CoreConfig(
            eps=args.eps,
            rho=rho,
            schedule=schedule,
            y0=y0,
            max_iters=args.max_iters,
        )
        result = run_core(problem, cfg)
        cards[rho] = [row.card_y for row in result.trace.rows]
    n = max(len(cards[0.0]), len(cards[np.inf]))
    lines = ["k,card_rho0,card_rhoinf"]
    for k in range(n):
        a = cards[0.0][k] if k < len(cards[0.0]) else ""
        b = cards[np.inf][k] if k < len(cards[np.inf]) else ""
        lines.append(f"{k},{a},{b}")
    table = "\n".join(lines) + "\n"
    if args.table_out:
        with open(args.table_out, "w") as fh:
            fh.write(table)
        print(f"table: {args.table_out}")
    else:
        sys.stdout.write(table)
    print(
        f"max |Y^k|: rho=0 -> {max(cards[0.0], default=0)}, "
        f"rho=inf -> {max(cards[np.inf], default=0)}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's error code 2 would read as a budget stop
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_bench(args)
    except (InputError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:  # an output file, e.g. one whose directory went away
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except CertificationError as exc:  # valid input, exhausted cell budget
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
