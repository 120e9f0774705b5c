"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest
import torsionlab as tl

from conftest import ROOT
from tracing import Tracer
from worker import measure
from workloads import WORKLOADS, Record

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: str = ROOT, seconds: str = "0.4"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_spec_lists_the_implemented_workloads():
    assert NAMES == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_declared_metrics(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def _stub_scenario_prop2():
    def stub():
        report = tl.scenarios.ScenarioReport("prop2")
        report.check("stubbed claim", False, "wrong")
        return report
    return stub


# One wrong program answer per workload, each of a kind its gate must catch.
STUBS = {
    "referee": ("oracle_equal", lambda: (lambda a, b, d: True)),
    "rewrite": ("adem_normalize", lambda: (lambda e: e)),
    "module-jobs": ("is_decomposable",
                    lambda: (lambda M, *a, **k: tl.DecompositionResult(False))),
    "proof-replay": ("scenario_prop2", _stub_scenario_prop2),
}


@pytest.mark.parametrize("workload", NAMES)
def test_wrong_answers_count_as_failures(workload, monkeypatch):
    name, make = STUBS[workload]
    monkeypatch.setattr(tl, name, make())
    w = WORKLOADS[workload](1)
    stream = w.ops()
    op = next(stream)
    first = Record(op, w.run(tl, op), False)
    result = measure(tl, w, stream, first, 20)
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_correct_program_has_no_failures():
    w = WORKLOADS["referee"](1)
    stream = w.ops()
    op = next(stream)
    first = Record(op, w.run(tl, op), False)
    result = measure(tl, w, stream, first, 20)
    assert result["ops"] == 20 and result["failed"] == 0


def test_tracer_wraps_every_binding_and_computes_self_time():
    original = tl.steenrod.adem_normalize
    tracer = Tracer()
    assert tracer.install() > 0
    try:
        # modules binds adem_normalize by name; its calls must be traced too.
        assert tl.modules.adem_normalize is tl.steenrod.adem_normalize is not original
        square = tl.tensor(tl.moore_module(2), tl.moore_module(2))
        tracer.enabled = True
        tracer.call("op", None, tl.consistency_check, square, 2)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"op", "modules.consistency_check", "steenrod.adem_normalize",
            "modules.act_element"} <= names
    summary = tracer.summary()
    name, start, end, parent, _ = tracer.spans[0]
    assert name == "op" and parent == -1
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx(end - start, rel=1e-6)
    assert all(row["self_s"] >= 0 for row in summary.values())
    assert tl.modules.adem_normalize is original


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("referee", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
