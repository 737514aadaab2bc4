"""sipsolve benchmark: one workload per run, one solve after another.

    python3 benchmark/run.py --workload random_core --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ./src.  A run
sets up its workload, then repeats passes over the workload's fixed set of
solves while the next pass still fits in --seconds (always at least one),
checks every outcome after the last pass, and prints each metric by name
with its unit.  The set-up is repeated between passes.  Untraced times are
reported in reference seconds, scaled by a machine-speed probe (probe.py).
The last line of standard output is one JSON object: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  A traced run first makes one
untraced pass to measure the tracing overhead against, then traced passes,
and writes its spans to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, set before numpy is first imported
os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 5

# the metrics the JSON line carries, by name and unit: end_to_end under
# --trace 0 and per_layer under --trace 1.  Every other per-layer metric is
# printed only, because on some workload its layer is never called and a
# time that reads 0.0 on every run says nothing.
SPEC_FILE = ROOT / "BENCHMARK.json"


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import sipsolve; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    from probe import SpeedProbe, scale
    from spans import Recorder, layer_metrics

    probe = SpeedProbe()

    def setup() -> tuple[float, object]:
        """Import plus construction: seconds and the workload built."""
        imp = import_seconds()
        t0 = time.perf_counter()
        built = workloads.BUILDERS[workload](size, OUT / workload)
        return imp + time.perf_counter() - t0, built

    # the first construction's workload is the one measured; the other
    # set-ups run between passes, so that they sample the run's whole span.
    # Each set-up is scaled to reference seconds with the factor of the
    # pass next to it: it runs mostly in a child interpreter, which the
    # probe cannot sample.
    first_setup, work = setup()
    setups = [first_setup]
    setup_pass = [0]
    jobs = workloads.ordered(work.jobs, seed)

    rec = Recorder()
    if trace:
        rec.install()
    pass_walls: list[float] = []
    traced_walls: list[float] = []
    # per untraced pass: its solve times and its factor to reference seconds
    pass_times: list[list[float]] = []
    pass_scales: list[float] = []
    results: list[list[object]] = []
    iteration_s: list[float] = []
    t_loop = time.perf_counter()
    try:
        while True:
            t_iter = time.perf_counter()
            n_pass = len(pass_walls) + len(traced_walls)
            traced = trace and n_pass > 0
            outcomes, times = [], []
            if not traced:
                probe.start()
            for job in jobs:
                rec.solve = f"{n_pass}:{job.name}"
                rec.enabled = traced
                spent = probe.spent
                t0 = time.perf_counter()
                try:
                    outcomes.append(job.solve())
                except Exception as exc:  # a solve that raises counts as failed
                    outcomes.append(exc)
                times.append(time.perf_counter() - t0 - (probe.spent - spent))
                rec.enabled = False
            (traced_walls if traced else pass_walls).append(sum(times))
            if not traced:
                pass_scales.append(scale(probe.stop()))
                pass_times.append(times)
            for i, (job, res) in enumerate(zip(jobs, outcomes)):
                if not isinstance(res, Exception):
                    try:
                        outcomes[i] = job.finish(res)
                    except OSError as exc:  # the solve wrote no readable files
                        outcomes[i] = exc
            results.append(outcomes)
            if len(setups) < SETUP_REPEATS:
                setups.append(setup()[0])
                setup_pass.append(n_pass)
            iteration_s.append(time.perf_counter() - t_iter)
            if (n_pass + 1 >= (2 if trace else 1)
                    and time.perf_counter() - t_loop + statistics.mean(iteration_s) > seconds):
                break
    finally:
        probe.stop()
        rec.enabled = False
        rec.uninstall()
    # before the checks, whose grid scans would raise it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_REPEATS:
        setups.append(setup()[0])
        setup_pass.append(n_pass)

    # the first pass is checked in full; a later pass must reproduce it
    attempted = failed = 0
    for n_pass, outcomes in enumerate(results):
        for job, res, first in zip(jobs, outcomes, results[0]):
            attempted += 1
            try:
                if isinstance(res, Exception):
                    raise res
                if n_pass == 0:
                    job.check(res)
                elif isinstance(first, Exception) or job.fingerprint(res) != job.fingerprint(first):
                    raise workloads.CheckFailed(f"pass {n_pass} differs from the first pass")
            except Exception as exc:
                failed += 1
                print(f"FAILED {job.name}: {type(exc).__name__}: {exc}")
    loop_iters = card_max = 0
    if trace:  # loop counts of the first traced pass
        for job, res in zip(jobs, results[1]):
            if not isinstance(res, Exception):
                it, card = job.loop_stats(res)
                loop_iters += it
                card_max = max(card_max, card)
    if work.final_check is not None:
        attempted += 1
        try:
            work.final_check()
        except Exception as exc:
            failed += 1
            print(f"FAILED final check: {type(exc).__name__}: {exc}")

    report = {
        "workload": workload, "seed": seed, "passes": len(pass_walls) + len(traced_walls),
        "solves_per_pass": len(jobs), "attempted": attempted, "failed": failed,
    }
    if work.out_dir is not None:
        report["digests"] = work.digests
    if not trace:
        ref_walls = [w * k for w, k in zip(pass_walls, pass_scales)]
        setups_ref = [t * pass_scales[i] for t, i in zip(setups, setup_pass)]
        ref_solves = [t * k for ts, k in zip(pass_times, pass_scales) for t in ts]
        metrics = {
            "setup_s": (statistics.median(setups_ref), "s"),
            "wall_s": (statistics.mean(ref_walls), "s"),
            "solve_s.p50": (statistics.median(ref_solves), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report["notes"] = {
            "setup_s": f"reference seconds, median of {SETUP_REPEATS} set-ups; "
                       f"measured median {statistics.median(setups):.4f} s",
            "wall_s": f"reference seconds, mean of {len(pass_walls)} passes of {len(jobs)} "
                      "solves; measured " + ", ".join(f"{w:.3f}" for w in pass_walls)
                      + " s, times " + ", ".join(f"{k:.3f}" for k in pass_scales),
            "solve_s.p50": f"reference seconds, {len(ref_solves)} solves",
        }
        if len(ref_solves) >= 100:
            metrics["solve_s.p90"] = (statistics.quantiles(ref_solves, n=10)[-1], "s")
            report["notes"]["solve_s.p90"] = f"reference seconds, {len(ref_solves)} solves"
        report["metrics"] = metrics
        return report

    n_traced = len(traced_walls)
    layers = layer_metrics(rec.spans, rec.linalg_solves, n_traced, workloads.TIGHT_DELTA)
    layers["core_loop.iterations"] = (loop_iters, "count")
    layers["core_loop.card_y_max"] = (card_max, "count")
    layers["serialization.bytes_written"] = (work.bytes_per_pass(), "B")
    report["metrics"] = layers
    # a mean, like the per-pass layer figures
    report["traced_wall_s"] = statistics.mean(traced_walls)
    report["untraced_wall_s"] = pass_walls[0]
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    rec.write(spans_path)
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    return report


def print_report(report: dict, trace: bool) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"passes {report['passes']}  solves per pass {report['solves_per_pass']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} solves)")
    notes = report.get("notes", {})
    for name, (value, unit) in report["metrics"].items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name}: {value:.9g} {unit}{note}")
    for stem, (trace_sha, outcome_sha) in report.get("digests", {}).items():
        print(f"sha256 {stem}.trace.csv {trace_sha}")
        print(f"sha256 {stem}.outcome.json {outcome_sha}")
    if trace:
        m = report["metrics"]
        wall = report["traced_wall_s"]
        print(f"tracing overhead: {wall - report['untraced_wall_s']:.6g} s "
              f"(traced wall_s {wall:.6g} s - untraced wall_s {report['untraced_wall_s']:.6g} s)")
        master = m["simplex.self_s"][0] + m["finite_solver.self_s"][0]
        print(f"share of traced wall_s: simplex + finite_solver self {master / wall:.1%}, "
              f"lower_level tight {m['lower_level.tight_s'][0] / wall:.1%}, "
              f"lower_level loose {m['lower_level.loose_s'][0] / wall:.1%}")
        print(f"spans: {report['spans_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("random_core", "tight_cert", "cli_builtins"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest set of each workload, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (SRC / "sipsolve" / "__init__.py").is_file():
        print(f"error: no sipsolve package under {SRC}", file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print_report(report, bool(args.trace))
    declared = json.loads(SPEC_FILE.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        value, unit = report["metrics"][m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {unit}, declared in {m['unit']}")
        metrics[m["name"]] = (value, unit)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
