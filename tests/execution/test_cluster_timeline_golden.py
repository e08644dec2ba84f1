"""The cluster timeline, read from the query records, matches a golden.

``golden_storm_smoke_timeline.json`` holds ``bench_traffic_storm.py``'s
smoke storm at its three concurrency caps.  ``timeline_trace()`` and
``max_concurrent_running()`` read FINISHED/FAILED records straight out of
``cluster.queries``; their output moves only when the simulated schedule
is changed on purpose (last: one simulated account per query, where the
scan's split RPC, ``SPLIT_RPC_MS`` = 0.2 ms, charged before only to an
engine built with a clock, lands on every split's stage lane, and each
storm task's ``sim_ms``, what its own lane was charged while it ran,
grows by the RPCs of those of its splits that share that lane; query starts and ends moved by at most 2.5 ms at
cap 1, 0.7 ms at cap 4 and 0.2 ms at cap 16, and no span's order or state
changed).
"""

import importlib
import json
from pathlib import Path

import pytest

from repro.workloads.traffic_storm import build_traffic_storm

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_storm_smoke_timeline.json").read_text()
)


@pytest.fixture
def replay_storm(monkeypatch):
    # The bench imports its sibling ``_harness`` module by bare name.
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmarks"))
    return importlib.import_module("bench_traffic_storm").replay_storm


@pytest.mark.parametrize("max_running", [1, 4, 16])
def test_smoke_storm_timeline_matches_golden(replay_storm, max_running):
    storm = build_traffic_storm(queries=40, users=6, seed=11)
    report, cluster = replay_storm(storm, max_running, 120)
    golden = GOLDEN[str(max_running)]
    expected = {"spans": golden["spans"]}
    serialized = cluster.timeline_trace().to_json()
    assert json.loads(serialized) == expected  # readable diff first
    assert serialized == json.dumps(expected, sort_keys=True)  # then bytes
    assert cluster.max_concurrent_running() == golden["max_concurrent_running"]
    assert report["max_in_flight"] == golden["max_concurrent_running"]
