"""The benchmark's own tests: each workload at its smallest size on one seed.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(capsys, workload, trace):
    code = run.main([
        "--workload", workload, "--seed", "0", "--seconds", "0",
        "--trace", str(trace), "--size", "smoke",
    ])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


def assert_printed(lines, name, unit):
    assert any(
        line.startswith(f"{name}: ") and f" {unit}" in line for line in lines
    ), (name, unit)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_its_checks_and_prints_every_metric(capsys, workload):
    lines, result = smoke(capsys, workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert_printed(lines, m["name"], m["unit"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts_and_print_every_layer(capsys, workload):
    _, first = smoke(capsys, workload, 1)
    lines, second = smoke(capsys, workload, 1)
    assert first["correct"] is True and second["correct"] is True
    assert set(second["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert second["metrics"][m["name"]]["unit"] == m["unit"]
        assert_printed(lines, m["name"], m["unit"])
        if m["unit"] != "s":
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]
    # the printed-only layer times, named as in the README's table
    for name in ("lower_level.tight_s", "drivers.post_hoc_s", "drivers.self_s",
                 "problem.derive_eps_star_s", "problem.feasibility_margin_s",
                 "serialization.load_s", "serialization.write_s", "cli.self_s"):
        assert_printed(lines, name, "s")
    assert any(line.startswith("tracing overhead: ") for line in lines)


def test_a_raising_solve_and_a_wrong_outcome_count_as_failed(monkeypatch, capsys):
    import workloads

    def broken(size, out_root):
        def boom():
            raise RuntimeError("solver blew up")

        def wrong(res):
            raise workloads.CheckFailed("wrong outcome")

        return workloads.Workload([
            workloads.Job("raises", boom, lambda res: None, lambda res: (0, 0)),
            workloads.Job("wrong", lambda: 1, wrong, lambda res: (0, 0)),
            workloads.Job("fine", lambda: 1, lambda res: None, lambda res: (1, 1)),
        ])

    monkeypatch.setitem(workloads.BUILDERS, "random_core", broken)
    report = run.run("random_core", seed=0, seconds=0, trace=False, size="smoke")
    assert (report["attempted"], report["failed"]) == (3, 2)
    out = capsys.readouterr().out
    assert "FAILED raises: RuntimeError: solver blew up" in out
    assert "FAILED wrong: CheckFailed: wrong outcome" in out


def test_probe_samples_while_started_and_restores_the_timer():
    import signal
    import time

    import probe

    handler = signal.getsignal(signal.SIGALRM)
    p = probe.SpeedProbe()
    p.start()
    end = time.perf_counter() + 3 * probe.INTERVAL_S
    while time.perf_counter() < end:
        pass
    samples = p.stop()
    assert len(samples) >= 2 and p.spent == sum(samples)
    assert probe.scale(samples) > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_self_time_subtracts_child_spans():
    tree = [
        spans.Span("a", 0.0, 10.0, -1, "s"),
        spans.Span("b", 1.0, 4.0, 0, "s"),
        spans.Span("c", 2.0, 3.0, 1, "s"),
        spans.Span("d", 5.0, 6.0, 0, "s"),
    ]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
