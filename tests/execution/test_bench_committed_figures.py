"""The benchmark harness, and the committed figures being what the code produces.

Every ``benchmarks/bench_*.py`` script runs here in ``--smoke`` through
``_harness.run_script``; the four quick simulated-clock scripts also run in
full, where the harness compares every leaf with the ``BENCH_*.json`` at
the repository root, so a change that moves a simulated figure fails here
and has to regenerate the file on purpose.  The timing primitive and the
gate evaluator get their unit tests on a stand-in script.
"""

import gc
import importlib
import json
import sys
import types
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load(name):
    # The scripts import their ``_harness`` sibling by bare name.
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(REPO_ROOT / "benchmarks"))
        return importlib.import_module(name)


harness = _load("_harness")


def _shape(node, path=""):
    """The key paths of a report, list positions collapsed."""
    if isinstance(node, dict):
        return set().union(*(_shape(v, f"{path}/{k}") for k, v in node.items()))
    if isinstance(node, list) and node:
        return set().union(*(_shape(v, f"{path}[]") for v in node))
    return {path}


@pytest.mark.parametrize("script", harness.scripts())
def test_smoke_run(script, tmp_path):
    module = _load(script)
    output = tmp_path / module.OUTPUT
    assert harness.run_script(script, ["--smoke", "--output", str(output)]) == 0
    report = json.loads(output.read_text())
    assert report["benchmark"] == script.removeprefix("bench_")
    assert report["smoke"] is True
    assert all(g["passed"] for g in report["gates"])
    committed = json.loads((REPO_ROOT / module.OUTPUT).read_text())
    if any(g["kind"] == harness.LANE_RATIO for g in committed["gates"]):
        # Smoke skips the speedup gates, never the gate that the lanes agree.
        assert any(g["kind"] == harness.WORK_COUNT for g in report["gates"])
    # The toy run writes the leaves the committed full run has.
    committed.pop("gates"), report.pop("gates")
    assert _shape(report) == _shape(committed)


@pytest.mark.parametrize(
    "name", ["adaptive", "data_cache", "fault_tolerance", "lakehouse_freshness"]
)
def test_full_run_reproduces_the_committed_figures(name, tmp_path):
    module = _load(f"bench_{name}")
    output = tmp_path / module.OUTPUT
    assert harness.run_script(module.__name__, ["--output", str(output)]) == 0
    report = json.loads(output.read_text())
    assert report["smoke"] is False
    assert report["gates"][-1]["description"].startswith("every leaf equals the committed")
    assert report == json.loads((REPO_ROOT / module.OUTPUT).read_text())


def test_lane_ratio_interleaves_slow_first_with_gc_off_and_returns_both_results():
    calls = []

    def lane(name):
        def run():
            calls.append((name, gc.isenabled()))
            return name.upper()

        return run

    timed = harness.lane_ratio(lane("slow"), lane("fast"), repeat=3)
    assert calls == [("slow", False), ("fast", False)] * 3
    assert gc.isenabled()
    # The caller's agreement check: each lane's own result comes back.
    assert (timed.slow_result, timed.fast_result) == ("SLOW", "FAST")
    assert timed.ratio == timed.slow_ms / timed.fast_ms > 0


@pytest.mark.parametrize("enabled_before", [True, False])
def test_lane_ratio_restores_the_collector_when_a_lane_raises(enabled_before):
    def broken():
        raise RuntimeError("lane failed")

    try:
        if not enabled_before:
            gc.disable()
        with pytest.raises(RuntimeError, match="lane failed"):
            harness.lane_ratio(broken, lambda: None)
        assert gc.isenabled() is enabled_before
    finally:
        gc.enable()


@pytest.fixture
def stand_in(monkeypatch, tmp_path):
    """A script whose one figure is 2, committed as 1 under ``tmp_path``."""
    module = types.ModuleType("bench_stand_in")
    module.__doc__ = "A stand-in figure."
    module.OUTPUT = "BENCH_stand_in.json"
    module.run = lambda smoke: {"benchmark": "stand_in", "smoke": smoke, "figure": 2}
    module.gates = lambda report: [
        harness.gate("the figure stays under two", harness.SIMULATED, report["figure"], "<", 2)
    ]
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(harness, "REPO_ROOT", tmp_path)
    committed = {"benchmark": "stand_in", "smoke": False, "figure": 1, "gates": []}
    (tmp_path / module.OUTPUT).write_text(json.dumps(committed))
    return module


def test_a_failing_gate_names_itself_and_sets_the_exit_code(stand_in, tmp_path, capsys):
    assert harness.run_script(stand_in.__name__, ["--smoke"]) == 1
    out = capsys.readouterr().out
    assert "the figure stays under two" in out and "FAIL" in out
    # A smoke run without --output leaves the committed file alone.
    assert json.loads((tmp_path / stand_in.OUTPUT).read_text())["figure"] == 1

    stand_in.gates = lambda report: []
    assert harness.run_script(stand_in.__name__, ["--smoke"]) == 0


def test_a_full_run_of_a_deterministic_script_gates_on_every_committed_leaf(
    stand_in, tmp_path, capsys
):
    stand_in.gates = lambda report: []
    assert harness.run_script(stand_in.__name__, []) == 1
    assert "moved against BENCH_stand_in.json: /figure" in capsys.readouterr().out
    # The run wrote the file it was asked to regenerate, so the next one agrees.
    assert harness.run_script(stand_in.__name__, []) == 0
    assert json.loads((tmp_path / stand_in.OUTPUT).read_text())["figure"] == 2


def test_bench_all_prints_one_committed_to_this_run_row_per_gate(
    stand_in, monkeypatch, capsys
):
    monkeypatch.setattr(harness, "scripts", lambda: [stand_in.__name__])
    assert harness.run_all(["--smoke"]) == 1
    out = capsys.readouterr().out
    assert "Trajectory" in out and "FAILED bench_stand_in: the figure stays under two" in out
