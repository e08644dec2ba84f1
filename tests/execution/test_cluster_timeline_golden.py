"""The cluster timeline, read from the query records, matches a golden.

``golden_storm_smoke_timeline.json`` holds ``bench_traffic_storm.py``'s
smoke storm at its three concurrency caps.  ``timeline_trace()`` and
``max_concurrent_running()`` read FINISHED/FAILED records straight out of
``cluster.queries``; their output moves only when the simulated schedule
is changed on purpose (last: source stages as wide as the rows their
splits hold, one task instead of nine for the storm's 250-row table,
which moved query starts and ends by at most 1.0 ms and no span's order
or state).
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
