"""The benchmark smoke's requirements, and the tracer its traced runs install; no benchmark runs."""

import functools
import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bench_smoke
from bench_smoke import RUNS, TRACED, rules, violations
from gtdkit.jets import Jet

ROOT = Path(__file__).resolve().parents[1]


def run_stdout(workload: str, traced: bool, **broken) -> str:
    """A run's stdout, its last line a result with each rule's metric at its floor, but `broken`."""
    values = {name: floor for name, floor, _ in rules(workload, traced)} | broken
    result = {"attempted": 100, "metrics": {"trace.overhead": {"value": 1.1, "unit": "ratio"}}}
    for name, value in values.items():
        if value is not None and name in ("correct", "failed"):
            result[name] = value
        elif value is not None:
            result["metrics"][name] = {"value": value, "unit": "count"}
    return f"env: {{}}\nscan: gtdkit scan --system {workload}\n{json.dumps(result)}\n"


def test_a_result_inside_every_bound_passes():
    for workload, traced in RUNS:
        assert violations(workload, traced, 0, run_stdout(workload, traced)) == []


@pytest.mark.parametrize("workload, traced, name, floor, ceiling", [
    (workload, traced, *rule) for workload, traced in RUNS for rule in rules(workload, traced)
])
@pytest.mark.parametrize("missing", [False, True])
def test_each_broken_requirement_is_one_violation_naming_run_and_metric(
        workload, traced, name, floor, ceiling, missing):
    value = None if missing else floor - 1 if floor else ceiling + 1
    (broken,) = violations(workload, traced, 0, run_stdout(workload, traced, **{name: value}))
    assert broken.startswith(f"{workload} --trace {int(traced)}: {name} ")


@pytest.mark.parametrize("stdout", ["", "error: some kind of operation never succeeded\n",
                                    "[9, 0]\n"])
def test_a_last_line_that_is_no_result_is_one_violation(stdout):
    (broken,) = violations("kn_curvature", True, 0, stdout)
    assert broken == "kn_curvature --trace 1: the last line of stdout is not a JSON result"


def test_a_nonzero_exit_is_one_violation():
    (broken,) = violations("rn_detg_roots", False, 1, run_stdout("rn_detg_roots", False))
    assert broken == "rn_detg_roots --trace 0: run.py exited 1"


@pytest.mark.parametrize("broken, code", [({}, 0), ({"jets.jet_allocs": 49}, 1)])
def test_main_runs_every_run_and_exits_1_naming_what_broke(monkeypatch, capsys, broken, code):
    runs = []

    def run(command, **kwargs):
        workload, traced = command[command.index("--workload") + 1], command[-1] == "1"
        runs.append((workload, traced))
        assert command[1] == str(ROOT / "perfbench" / "run.py")
        assert command[-6:-2] == ["--seed", "1", "--seconds", "5"]
        if (workload, traced) != ("vdw_closed_fit", True):
            return subprocess.CompletedProcess(command, 0, run_stdout(workload, traced))
        return subprocess.CompletedProcess(command, 0, run_stdout(workload, traced, **broken))

    monkeypatch.setattr(subprocess, "run", run)
    assert bench_smoke.main() == code
    assert runs == RUNS
    named = "vdw_closed_fit --trace 1: jets.jet_allocs is 49" in capsys.readouterr().err
    assert named == bool(code)


def test_the_smoke_runs_every_benchmark_workload_untraced_and_traced():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {workload["name"] for workload in benchmark["workloads"]}
    assert sorted(RUNS) == sorted((name, traced) for name in names for traced in (False, True))
    assert set(TRACED) == names


def test_the_benchmark_tracer_wraps_every_entry_point_and_restores_it(monkeypatch):
    # a renamed entry point, or one moved to a base class, fails here and not only in a traced run
    path = ROOT / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # its dataclasses look their module up
    exec(compile(path.read_text(), str(path), "exec"), vars(tracing))  # writes no bytecode there
    owners = [(functools.reduce(getattr, owner.split(".")[1:], importlib.import_module(
        "gtdkit." + owner.split(".")[0])), attr) for owner, attr, *_ in tracing.ENTRY_POINTS]
    owners += [(Jet, attr) for attr in ("__init__", "__mul__", "__rmul__")]
    originals = [vars(owner).get(attr) for owner, attr in owners]
    with tracing.Tracer("test"):
        wrapped = [vars(owner)[attr] for owner, attr in owners]
    assert all(new is not old for new, old in zip(wrapped, originals))
    assert all(vars(owner)[attr] is old for (owner, attr), old in zip(owners, originals))
