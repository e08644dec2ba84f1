"""The committed simulated figures are what the code produces.

``bench_adaptive``, ``bench_data_cache``, ``bench_fault_tolerance`` and
``bench_lakehouse_freshness`` run on the simulated clock only, so a full
run repeats to the last digit: each is run here in full mode and compared,
leaf for leaf, with the ``BENCH_*.json`` at the repository root.  A change
that moves a simulated figure fails here and has to regenerate the file on
purpose.  The qualitative shapes the two former ``--smoke`` twins checked
(retries dominate no-retry; sealed + tail = committed) ride along on the
same run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _fault_tolerance_shape(report):
    assert report["benchmark"] == "fault_tolerance"
    assert report["paper_section"].startswith("VIII/IX")
    points = report["benchmarks"]
    by_key = {(p["task_failure_rate"], p["max_task_retries"]): p for p in points}
    rates = sorted({p["task_failure_rate"] for p in points})
    assert 0.0 in rates and len(rates) >= 2
    for point in points:
        assert 0.0 <= point["success_rate"] <= 1.0
        assert point["queries"] > 0
    # Zero faults: everything succeeds, nothing retried.
    assert by_key[(0.0, 0)]["success_rate"] == 1.0
    assert by_key[(0.0, 3)]["mean_tasks_retried"] == 0.0
    # Retries never hurt, and recover real failures at nonzero rates.
    for rate in rates:
        assert by_key[(rate, 3)]["success_rate"] >= by_key[(rate, 0)]["success_rate"]
    assert any(
        by_key[(rate, 3)]["success_rate"] > by_key[(rate, 0)]["success_rate"]
        for rate in rates
        if rate > 0
    )


def _lakehouse_freshness_shape(report):
    assert report["determinism"] == "rerun reproduced rows and stats exactly"
    entries = report["benchmarks"]
    assert len(entries) >= 2
    assert [e["name"] for e in entries] == sorted(
        (e["name"] for e in entries),
        key=lambda n: int(n.removeprefix("compact_").removesuffix("ms")),
    )
    for entry in entries:
        assert entry["rows_committed"] > 0
        assert entry["rows_sealed"] + entry["tail_rows"] == entry["rows_committed"]
        assert entry["snapshots_committed"] >= 1
        assert entry["sealed_freshness_lag_ms"] >= 0
        assert entry["query_set_sim_ms"] > 0
        assert entry["query_sets_per_sim_sec"] > 0


SHAPES = {
    "adaptive": None,
    "data_cache": None,
    "fault_tolerance": _fault_tolerance_shape,
    "lakehouse_freshness": _lakehouse_freshness_shape,
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_full_run_reproduces_the_committed_figures(name, tmp_path):
    output = tmp_path / f"BENCH_{name}.json"
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    result = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / f"bench_{name}.py"),
            "--output",
            str(output),
        ],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr

    report = json.loads(output.read_text())
    assert report["smoke"] is False
    assert report == json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())
    if SHAPES[name] is not None:
        SHAPES[name](report)
