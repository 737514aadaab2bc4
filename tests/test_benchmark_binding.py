"""The benchmark under ``benchmark/`` reaches into the package by name: its
tracer wraps the functions listed in ``spans.TARGETS`` and its workloads
build configs by keyword.  These tests fail when a change to the package
breaks either binding, without running the benchmark itself."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmark"


def load(name):
    """Import ``benchmark/<name>.py`` under a private module name."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


spans = load("spans")
workloads = load("workloads")


@pytest.mark.parametrize("target", sorted(spans.TARGETS))
def test_trace_target_resolves(target):
    home, name = target.split(".")
    module = importlib.import_module(f"sipsolve.{home}")
    assert callable(getattr(module, name, None)), target


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_workload_builds(workload, tmp_path):
    work = workloads.BUILDERS[workload]("smoke", tmp_path)
    assert work.jobs
