"""Smoke test for benchmarks/bench_operator_kernels.py.

Runs the operator-kernel benchmark in ``--smoke`` mode (tiny inputs, no
speedup gate) and validates the ``BENCH_operators.json`` schema so later
PRs can rely on its shape.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH = REPO_ROOT / "benchmarks" / "bench_operator_kernels.py"


def test_bench_operator_kernels_smoke(tmp_path):
    output = tmp_path / "BENCH_operators.json"
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    result = subprocess.run(
        [sys.executable, str(BENCH), "--smoke", "--output", str(output)],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr

    report = json.loads(output.read_text())
    assert report["benchmark"] == "operator_kernels"
    assert report["paper_section"].startswith("III")
    assert report["smoke"] is True

    entries = report["benchmarks"]
    assert {b["name"] for b in entries} == {"grouped_aggregation", "hash_join", "topn"}
    for entry in entries:
        assert entry["rows"] > 0
        assert entry["vectorized_ms"] > 0
        assert entry["reference_ms"] > 0
        assert entry["speedup"] > 0
        assert entry["rows_per_sec"] > 0
        # Smoke mode skips the 5x gate but never the correctness gate.
        assert entry["identical"] is True
