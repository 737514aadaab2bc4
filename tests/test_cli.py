import json

import numpy as np
import pytest

from sipsolve.cli import EXIT_BUDGET, EXIT_INPUT_ERROR, EXIT_OK, main
from sipsolve.core_loop import CSV_COLUMNS
from sipsolve.instances import builtin
from sipsolve.serialization import load_problem


def run_cli(args):
    return main(args)


class TestSolve:
    def test_sequential_success(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        outcome = tmp_path / "outcome.json"
        code = run_cli(
            [
                "solve", "--problem", "builtin:instance_A",
                "--algorithm", "sequential", "--delta", "1e-2",
                "--trace-out", str(trace), "--outcome-out", str(outcome),
            ]
        )
        assert code == EXIT_OK
        data = json.loads(outcome.read_text())
        assert data["status"] == "DeltaApproximate"
        assert data["f"] <= 1e-2
        header = trace.read_text().splitlines()[0]
        assert header == "k,eps,card_Y,f_x,max_violation,branch,lp_iters,oracle_evals"
        assert "DeltaApproximate" in capsys.readouterr().out

    def test_budget_exit_code(self, tmp_path):
        # x^2 under x + y - 1 <= 0: the first step's point x = 0 is not
        # certified strictly feasible, and it is the run's one step
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(TestCheck.quadratic_payload()))
        code = run_cli(
            [
                "solve", "--problem", str(path),
                "--algorithm", "sequential", "--delta", "1e-9",
                "--max-iters", "1",
                "--trace-out", str(tmp_path / "t.csv"),
                "--outcome-out", str(tmp_path / "o.json"),
            ]
        )
        assert code == EXIT_BUDGET

    def test_budget_stop_reports_f_at_its_point(self, tmp_path, capsys):
        # v' + v'' >= 0 on a degree-2 fit: the first step's point violates
        # the constraint away from its one index point, and it is the run's
        # one step
        path = tmp_path / "twoweights.json"
        path.write_text(json.dumps({
            "type": "regression",
            "data": [[0.0, 0.0], [0.5, 0.6], [1.0, 0.9]],
            "degree": 2,
            "u_box": {"lower": [0.0], "upper": [1.0]},
            "coeff_box": {"lower": [-10.0] * 3, "upper": [10.0] * 3},
            "ridge": 1e-6,
            "constraints": [{"weights": [[[1], -1.0], [[2], -1.0]], "offset": 0.0}],
        }))
        outcome = tmp_path / "o.json"
        code = run_cli(
            [
                "solve", "--problem", str(path),
                "--algorithm", "sequential", "--max-iters", "1",
                "--trace-out", str(tmp_path / "t.csv"),
                "--outcome-out", str(outcome),
            ]
        )
        assert code == EXIT_BUDGET
        data = json.loads(outcome.read_text())
        assert data["status"] == "BudgetExceeded" and data["x"] is not None
        objective = load_problem(str(path)).objective
        assert data["f"] == objective.value(np.array(data["x"])) > 0
        assert "nan" not in capsys.readouterr().out

    def test_core_budget_caps_iterations(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        code = run_cli(
            [
                "solve", "--problem", "builtin:instance_A",
                "--algorithm", "core", "--eps0", "0", "--max-iters", "3",
                "--trace-out", str(trace), "--outcome-out", str(tmp_path / "o.json"),
            ]
        )
        assert code == EXIT_BUDGET
        assert len(trace.read_text().splitlines()) == 1 + 3
        assert "status: BudgetExceeded\n" in capsys.readouterr().out

    def test_core_run_is_feasible_not_delta_approximate(self, tmp_path, capsys):
        # the core loop certifies feasibility at one restriction and ignores
        # --delta: at eps0 = 1 its point has f = 0.25 against the optimum 0
        outcome = tmp_path / "o.json"
        code = run_cli(
            [
                "solve", "--problem", "builtin:instance_A",
                "--algorithm", "core", "--eps0", "1", "--delta", "1e-2",
                "--trace-out", str(tmp_path / "t.csv"), "--outcome-out", str(outcome),
            ]
        )
        assert code == EXIT_OK
        data = json.loads(outcome.read_text())
        assert data["status"] == "Feasible"
        assert data["f"] > 1e-2 and data["feasibility_margin"] <= 0
        assert "status: Feasible\n" in capsys.readouterr().out

    def test_malformed_problem(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = run_cli(["solve", "--problem", str(bad)])
        assert code == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self):
        assert run_cli(["solve", "--problem", "/nope/missing.json"]) == EXIT_INPUT_ERROR

    def test_trace_determinism(self, tmp_path):
        paths = []
        for tag in ("1", "2"):
            trace = tmp_path / f"t{tag}.csv"
            outcome = tmp_path / f"o{tag}.json"
            assert (
                run_cli(
                    [
                        "solve", "--problem", "builtin:instance_A",
                        "--delta", "1e-2",
                        "--trace-out", str(trace), "--outcome-out", str(outcome),
                    ]
                )
                == EXIT_OK
            )
            paths.append((trace.read_bytes(), outcome.read_bytes()))
        assert paths[0] == paths[1]

    def test_runs_in_between_leave_no_trace(self, tmp_path):
        # the caches of one process (a form's factor, a family's last
        # weights) must not carry one run's state into another's files
        def solve(name, algorithm, tag):
            files = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
            code = run_cli(
                [
                    "solve", "--problem", f"builtin:{name}",
                    "--algorithm", algorithm, "--delta", "1e-1",
                    "--trace-out", str(files[0]), "--outcome-out", str(files[1]),
                ]
            )
            assert code == EXIT_OK
            return [f.read_bytes() for f in files]

        first = solve("instance_A", "simultaneous", "a1")
        solve("regression_R", "sequential", "r")
        assert solve("instance_A", "simultaneous", "a2") == first

    def test_core_algorithm(self, tmp_path):
        code = run_cli(
            [
                "solve", "--problem", "builtin:instance_A",
                "--algorithm", "core", "--eps0", "0.1",
                "--trace-out", str(tmp_path / "t.csv"),
                "--outcome-out", str(tmp_path / "o.json"),
            ]
        )
        assert code == EXIT_OK

    def test_core_infeasible_restriction_is_input_error(self, tmp_path, capsys):
        # x <= -4 is impossible on [-2, 2]: eps0 is too large, no budget ran out
        outcome = tmp_path / "o.json"
        code = run_cli(
            [
                "solve", "--problem", "builtin:instance_A",
                "--algorithm", "core", "--eps0", "4",
                "--trace-out", str(tmp_path / "t.csv"), "--outcome-out", str(outcome),
            ]
        )
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "eps0" in err
        assert not outcome.exists()

    def test_simultaneous_algorithm(self, tmp_path):
        code = run_cli(
            [
                "solve", "--problem", "builtin:instance_B",
                "--algorithm", "simultaneous", "--delta", "0.1",
                "--trace-out", str(tmp_path / "t.csv"),
                "--outcome-out", str(tmp_path / "o.json"),
            ]
        )
        assert code == EXIT_OK

    @staticmethod
    def simultaneous_with(tmp_path, schedule):
        return run_cli(
            [
                "solve", "--problem", "builtin:instance_A",
                "--algorithm", "simultaneous", "--delta", "1e-1", "--rho", "0.5",
                "--schedule", schedule,
                "--trace-out", str(tmp_path / "t.csv"),
                "--outcome-out", str(tmp_path / "o.json"),
            ]
        )

    def test_geometric_schedule_scale(self, tmp_path, capsys):
        # scale 0.1 leaves no room under delta / 2; scale 0.01 does
        assert self.simultaneous_with(tmp_path, "geometric(0.5)") == EXIT_INPUT_ERROR
        assert "delta/2" in capsys.readouterr().err
        assert self.simultaneous_with(tmp_path, "geometric(0.5, 0.01)") == EXIT_OK
        data = json.loads((tmp_path / "o.json").read_text())
        assert data["status"] == "DeltaApproximate"

    @pytest.mark.parametrize("schedule", ["geometric(x)", "geometric(0.5, x)", "geometric(0.5,)"])
    def test_malformed_geometric_schedule(self, tmp_path, capsys, schedule):
        assert self.simultaneous_with(tmp_path, schedule) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "builtin:instance_A", "--rho", "-1"],
            ["solve", "--problem", "builtin:instance_A", "--rho", "abc"],
            ["solve", "--problem", "builtin:instance_A", "--delta", "abc"],
            ["solve", "--problem", "builtin:instance_A", "--no-such-flag"],
            ["solve"],
            ["solve", "--problem", "builtin:instance_A", "--algorithm", "core",
             "--max-iters", "-3"],
            ["solve", "--problem", "builtin:instance_A", "--algorithm", "sequential",
             "--r", "nan"],
            ["solve", "--problem", "builtin:instance_A", "--algorithm", "simultaneous",
             "--r", "nan"],
            ["solve", "--problem", "builtin:instance_A", "--algorithm", "simultaneous",
             "--r", "inf"],
            ["solve", "--problem", "builtin:instance_A", "--algorithm", "sequential",
             "--eps0", "nan"],
            ["solve", "--problem", "builtin:instance_A", "--algorithm", "simultaneous",
             "--eps0", "nan"],
            ["solve", "--problem", "builtin:instance_A", "--algorithm", "sequential",
             "--eps0", "inf"],
            ["solve", "--problem", "builtin:instance_A", "--algorithm", "core",
             "--eps0", "nan"],
            ["solve", "--problem", "builtin:instance_A", "--delta", "nan"],
            ["solve", "--problem", "builtin:instance_A", "--budget", "1"],
        ],
        ids=["negative_rho", "text_rho", "text_delta", "unknown_flag", "no_problem",
             "negative_max_iters", "sequential_nan_r", "simultaneous_nan_r",
             "simultaneous_inf_r", "sequential_nan_eps0", "simultaneous_nan_eps0",
             "sequential_inf_eps0", "core_nan_eps0", "nan_delta", "removed_budget"],
    )
    def test_malformed_arguments_are_input_errors(self, argv, capsys):
        assert run_cli(argv) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "usage:" in err and "error:" in err

    def test_help_exits_ok(self, capsys):
        assert run_cli(["solve", "--help"]) == EXIT_OK
        assert "--problem" in capsys.readouterr().out

    def test_exhausted_certification_is_budget_exit(self, tmp_path, capsys, monkeypatch):
        from sipsolve import lower_level
        from sipsolve.errors import CertificationError

        inner = lower_level.certified_max

        def exhausted(family, x, delta, *args, **kwargs):
            if delta <= 1e-9:
                raise CertificationError("cell budget 2000000 exhausted")
            return inner(family, x, delta, *args, **kwargs)

        monkeypatch.setattr(lower_level, "certified_max", exhausted)
        trace, outcome = tmp_path / "t.csv", tmp_path / "o.json"
        code = run_cli(
            [
                "solve", "--problem", "builtin:instance_A",
                "--algorithm", "simultaneous", "--delta", "1e-1",
                "--trace-out", str(trace),
                "--outcome-out", str(outcome),
            ]
        )
        assert code == EXIT_BUDGET
        assert "error: cell budget" in capsys.readouterr().err
        # the run's point and trace survive the stop
        assert len(trace.read_text().splitlines()) > 1
        data = json.loads(outcome.read_text())
        assert data["status"] == "BudgetExceeded" and data["x"] is not None
        assert data["f"] == builtin("instance_A").objective.value(np.array(data["x"]))
        assert data["feasibility_margin"] is None

    def test_exhausted_slater_certification_is_budget_exit(
        self, tmp_path, capsys, monkeypatch
    ):
        # the sequential driver derives eps* at 1e-9 before its first stage
        from sipsolve import lower_level
        from sipsolve.errors import CertificationError

        inner = lower_level.certified_max

        def exhausted(families, x, delta, *args, **kwargs):
            if delta <= 1e-9:
                raise CertificationError("cell budget 2000000 exhausted")
            return inner(families, x, delta, *args, **kwargs)

        monkeypatch.setattr(lower_level, "certified_max", exhausted)
        trace, outcome = tmp_path / "t.csv", tmp_path / "o.json"
        code = run_cli(
            [
                "solve", "--problem", "builtin:instance_A",
                "--algorithm", "sequential", "--delta", "1e-1",
                "--trace-out", str(trace),
                "--outcome-out", str(outcome),
            ]
        )
        assert code == EXIT_BUDGET
        captured = capsys.readouterr()
        assert "error: cell budget" in captured.err
        assert "status: BudgetExceeded" in captured.out
        assert trace.read_text().splitlines() == [",".join(CSV_COLUMNS)]
        data = json.loads(outcome.read_text())
        assert data["status"] == "BudgetExceeded" and data["x"] is None

    @pytest.mark.parametrize("name", ["instance_A", "instance_B", "regression_R"])
    def test_solve_runs_no_grid_scan(self, tmp_path, monkeypatch, name):
        from sipsolve import problem

        def no_grid(*args, **kwargs):
            raise AssertionError("a solve scanned a grid")

        monkeypatch.setattr(problem, "feasibility_margin", no_grid)
        monkeypatch.setattr(problem.BoxDomain, "grid", no_grid)
        code = run_cli(
            [
                "solve", "--problem", f"builtin:{name}",
                "--trace-out", str(tmp_path / "t.csv"),
                "--outcome-out", str(tmp_path / "o.json"),
            ]
        )
        assert code == EXIT_OK
        data = json.loads((tmp_path / "o.json").read_text())
        assert data["feasibility_margin"] <= 0.0


class TestCheck:
    def test_builtin_ok(self, capsys):
        assert run_cli(["check", "--problem", "builtin:instance_B"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "slater certificate ok" in out

    def test_quasiconvex_fixture_flagged(self, capsys):
        code = run_cli(["check", "--problem", "builtin:quasiconvex_gap"])
        assert code == EXIT_INPUT_ERROR
        assert "FAILED" in capsys.readouterr().out

    @staticmethod
    def quadratic_payload():
        return {
            "x_box": {"lower": [-2.0], "upper": [2.0]},
            "y_box": {"lower": [0.0], "upper": [1.0]},
            "objective": {"Q": [[1.0]], "c": [0.0], "d": 0.0},
            "constraints": [{"a": [[[[0], 1.0]]], "b": [[[0], -1.0], [[1], 1.0]]}],
            "slater_point": [-2.0],
        }

    def test_wellformed_payload_ok(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(self.quadratic_payload()))
        assert run_cli(["check", "--problem", str(path)]) == EXIT_OK

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d["objective"].update(lipschitz="four"),
            lambda d: d["objective"].update(d="zero"),
            lambda d: d["constraints"][0]["b"][0].__setitem__(1, "one"),
            lambda d: d["objective"].update(Q=[["a"]]),
            lambda d: d["x_box"].update(lower=["a"]),
        ],
        ids=["lipschitz", "d", "term_coefficient", "Q", "box_bound"],
    )
    def test_non_numeric_field_is_input_error(self, tmp_path, capsys, corrupt):
        payload = self.quadratic_payload()
        corrupt(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["check", "--problem", str(path)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text", ["[1, 2]", "3.5", '"problem"', "null"])
    def test_non_object_file_is_input_error(self, tmp_path, capsys, text):
        path = tmp_path / "list.json"
        path.write_text(text)
        assert run_cli(["check", "--problem", str(path)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    def test_second_order_bound_below_the_truth_fails(self, capsys, monkeypatch):
        from dataclasses import replace

        from conftest import halved_second_order

        from sipsolve import cli
        from sipsolve.instances import random_affine_instance

        prob = random_affine_instance(4)
        bad = replace(prob, constraints=tuple(map(halved_second_order, prob.constraints)))
        monkeypatch.setattr(cli, "load_problem", lambda source: bad)
        assert run_cli(["check", "--problem", "random4.json"]) == EXIT_INPUT_ERROR
        assert "FAILED: second-order bound violated" in capsys.readouterr().out

    def test_slater_point_certified_once(self, tmp_path, monkeypatch):
        # load_problem certifies it at 1e-9 and check prints that
        # certificate's eps*
        deltas = slater_deltas(monkeypatch, None)
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(self.quadratic_payload()))
        assert run_cli(["check", "--problem", str(path)]) == EXIT_OK
        assert deltas == [1e-9]


def slater_deltas(monkeypatch, point):
    """The gap of every certified_max call from now on, or of the calls at
    ``point`` when it is given."""
    from sipsolve import lower_level

    deltas = []
    inner = lower_level.certified_max

    def counting(families, x, delta):
        if point is None or np.array_equal(x, point):
            deltas.append(delta)
        return inner(families, x, delta)

    monkeypatch.setattr(lower_level, "certified_max", counting)
    return deltas


class TestSlaterCertificate:
    """A problem file's Slater point is certified once, at 1e-9, when the
    file loads; a sequential run reads eps* from that certificate."""

    @pytest.mark.parametrize("algorithm", ["core", "sequential", "simultaneous"])
    def test_solve_certifies_it_once(self, tmp_path, monkeypatch, algorithm):
        deltas = slater_deltas(monkeypatch, [-2.0])
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(TestCheck.quadratic_payload()))
        code = run_cli(
            [
                "solve", "--problem", str(path), "--algorithm", algorithm,
                "--delta", "1e-1", "--trace-out", str(tmp_path / "t.csv"),
                "--outcome-out", str(tmp_path / "o.json"),
            ]
        )
        assert code == EXIT_OK
        assert deltas == [1e-9]

    def test_missing_point_is_found(self, tmp_path, capsys):
        # without slater_point the Slater search finds one as the file loads:
        # check prints its eps* and the sequential driver runs on it
        payload = TestCheck.quadratic_payload()
        del payload["slater_point"]
        path = tmp_path / "noslater.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["check", "--problem", str(path)]) == EXIT_OK
        assert "slater certificate ok, eps* = " in capsys.readouterr().out
        outcome = tmp_path / "o.json"
        code = run_cli(
            [
                "solve", "--problem", str(path), "--algorithm", "sequential",
                "--delta", "1e-3", "--trace-out", str(tmp_path / "t.csv"),
                "--outcome-out", str(outcome),
            ]
        )
        assert code == EXIT_OK
        data = json.loads(outcome.read_text())
        # f = x^2 under x <= 0: the optimum is 0
        assert data["status"] == "DeltaApproximate" and 0.0 <= data["f"] <= 1e-3

    def test_search_that_finds_none_says_so(self, tmp_path, capsys):
        # g = 1 has no strictly feasible point: the search runs as the file
        # loads and fails, and check still exits 0
        payload = TestCheck.quadratic_payload()
        del payload["slater_point"]
        payload["constraints"] = [{"a": [[[[0], 0.0]]], "b": [[[0], 1.0]]}]
        path = tmp_path / "none.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["check", "--problem", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "no slater point declared, and the Slater search found none" in out

    @pytest.mark.parametrize(
        "argv", [["check"], ["solve", "--algorithm", "simultaneous"]], ids=["check", "solve"]
    )
    def test_point_on_the_boundary_is_input_error(self, tmp_path, capsys, argv):
        # sup_y g(0, y) = 0: feasible, but not strictly
        payload = TestCheck.quadratic_payload()
        payload["slater_point"] = [0.0]
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(payload))
        # the load fails, so solve writes no file
        assert run_cli(argv + ["--problem", str(path)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "slater point" in err


class TestFileErrors:
    """A file the CLI cannot read or write ends in one error line, exit 1."""

    @staticmethod
    def assert_error(capsys, argv, match):
        assert run_cli(argv) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err

    def test_problem_is_a_directory(self, tmp_path, capsys):
        self.assert_error(
            capsys, ["check", "--problem", str(tmp_path)],
            f"cannot read problem file {tmp_path}",
        )

    def test_missing_data_csv(self, tmp_path, capsys):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps({
            "type": "regression", "data_csv": "missing.csv", "degree": 1,
            "u_box": {"lower": [0.0], "upper": [1.0]},
            "coeff_box": {"lower": [-10.0, -10.0], "upper": [10.0, 10.0]},
            "constraints": [{"weights": [[[1], -1.0]], "offset": 0.0}],
        }))
        self.assert_error(
            capsys, ["check", "--problem", str(path)],
            f"cannot read data file {tmp_path / 'missing.csv'}: ",
        )

    def test_problem_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"x_box": "\xe9"}')
        self.assert_error(
            capsys, ["check", "--problem", str(path)],
            f"cannot read problem file {path}: not UTF-8",
        )

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_output_in_a_missing_directory(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "out.csv"
        flag = "--trace-out" if command == "solve" else "--table-out"
        self.assert_error(
            capsys,
            [command, "--problem", "builtin:instance_A", flag, str(out),
             "--max-iters", "2"],
            f"cannot write {out}",
        )

    @pytest.mark.parametrize(
        "command, flag, target, reason",
        [
            ("solve", "--trace-out", "missing/t.csv", "No such file or directory"),
            ("solve", "--outcome-out", "missing/o.json", "No such file or directory"),
            ("solve", "--trace-out", "", "Is a directory"),
            ("solve", "--outcome-out", "", "Is a directory"),
            ("bench", "--table-out", "missing/table.csv", "No such file or directory"),
            ("bench", "--table-out", "", "Is a directory"),
        ],
    )
    def test_output_path_rejected_before_the_run(
        self, tmp_path, capsys, monkeypatch, command, flag, target, reason
    ):
        from sipsolve import cli

        calls = []
        for name in ("run_core", "run_sequential", "run_simultaneous"):
            wrapped = getattr(cli, name)
            monkeypatch.setattr(
                cli, name,
                lambda *a, _f=wrapped, _n=name, **k: calls.append(_n) or _f(*a, **k),
            )
        out = tmp_path / target
        argv = [command, "--problem", "builtin:regression_R", flag, str(out)]
        if command == "solve":
            # the other file is writable, and must not be written either
            other = "--outcome-out" if flag == "--trace-out" else "--trace-out"
            argv += [other, str(tmp_path / "other"), "--delta", "1e-3"]
        self.assert_error(capsys, argv, f"cannot write {out}: {reason}")
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_output_under_a_file(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "t.csv"
        self.assert_error(
            capsys,
            ["solve", "--problem", "builtin:instance_A", "--trace-out", str(out)],
            f"cannot write {out}: Not a directory",
        )
        assert [f.name for f in tmp_path.iterdir()] == ["afile"]

    def test_output_in_a_read_only_directory(self, tmp_path, capsys, monkeypatch):
        # os.access answers for the running user; a superuser may write
        # anywhere, so the denial is simulated
        from sipsolve import cli

        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        out = tmp_path / "t.csv"
        self.assert_error(
            capsys,
            ["solve", "--problem", "builtin:instance_A", "--trace-out", str(out)],
            f"cannot write {out}: Permission denied",
        )
        assert list(tmp_path.iterdir()) == []


class TestBench:
    def test_table_and_summary(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        code = run_cli(
            [
                "bench", "--problem", "builtin:instance_A",
                "--max-iters", "10", "--table-out", str(table),
            ]
        )
        assert code == EXIT_OK
        lines = table.read_text().splitlines()
        assert lines[0] == "k,card_rho0,card_rhoinf"
        assert len(lines) == 11
        assert "max |Y^k|" in capsys.readouterr().out

    def test_summable_schedule_rejected_before_any_run(self, capsys, monkeypatch):
        # the rho = 0 half rejects a summable schedule, so no bench run with
        # one could finish; the error says what bench needs
        from sipsolve import cli

        def no_run(*args, **kwargs):
            raise AssertionError("bench started a run")

        monkeypatch.setattr(cli, "run_core", no_run)
        code = run_cli(
            ["bench", "--problem", "builtin:instance_A", "--schedule", "geometric(0.5)"]
        )
        assert code == EXIT_INPUT_ERROR
        assert "needs eventually_zero(k0)" in capsys.readouterr().err

    def test_schedule_argument_rejected_when_unknown(self):
        assert (
            run_cli(
                ["bench", "--problem", "builtin:instance_A", "--schedule", "bogus"]
            )
            == EXIT_INPUT_ERROR
        )
