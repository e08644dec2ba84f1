"""Determinism of the concurrent serving path.

The repo's core observability invariant — same seed, byte-identical
trace and metrics JSON — must survive the multi-query scheduler: per-
query traces, the cluster timeline, the metrics registry, and the
admission accounting all stamp only simulated time, so two replays of
the same concurrent workload serialize identically.  CI runs this file
as the concurrent-trace-invariant gate.
"""

from repro.execution.cluster import PrestoClusterSim
from repro.execution.faults import FaultInjector
from repro.obs.metrics import MetricsRegistry
from repro.workloads.traffic_storm import QUERY_TEMPLATES, make_storm_engine

# Three templates, one shared resource group capped at 2: one query must
# take the queued path while the other two interleave.
SQLS = [sql for _, sql in QUERY_TEMPLATES[:3]]


def run_once(seed=7, fault_rate=0.1):
    """One concurrent replay; returns every serialized artifact."""
    metrics = MetricsRegistry()
    cluster = PrestoClusterSim(
        workers=3, slots_per_worker=2, metrics=metrics, name="ci"
    )
    cluster.resource_group("ci", max_running=2)
    engine = make_storm_engine(
        rows=120,
        metrics=metrics,
        fault_injector=FaultInjector(seed=seed, task_failure_rate=fault_rate),
    )
    handles = []
    for i, sql in enumerate(SQLS):
        handles.append(engine.submit(sql))
        cluster.submit_handle(handles[-1], user=f"user{i}", resource_group="ci")
    cluster.run_until_idle()
    assert all(h.state == "finished" for h in handles)
    assert cluster.max_concurrent_running() == 2
    return {
        "traces": [h.result().trace.to_json() for h in handles],
        "rows": [repr(h.result().rows) for h in handles],
        "timeline": cluster.timeline_trace().to_json(),
        "metrics": metrics.to_json(),
    }


class TestConcurrentDeterminism:
    def test_two_runs_byte_identical(self):
        first = run_once()
        second = run_once()
        assert first["traces"] == second["traces"]
        assert first["rows"] == second["rows"]
        assert first["timeline"] == second["timeline"]
        assert first["metrics"] == second["metrics"]

    def test_different_seed_changes_fault_pattern(self):
        # Sanity: the invariant above isn't vacuous — a different fault
        # seed produces different retries, hence different traces.
        first = run_once(seed=7)
        other = run_once(seed=8)
        assert first["traces"] != other["traces"]
        # ... but identical rows: faults never change answers.
        assert first["rows"] == other["rows"]

    def test_timeline_shows_overlap_and_queueing(self):
        artifacts = run_once()
        import json

        spans = json.loads(artifacts["timeline"])["spans"]
        queries = [s for s in spans if s["name"] == "cluster.query"]
        assert len(queries) == 3
        overlapping = any(
            a["start_ms"] < b["end_ms"] and b["start_ms"] < a["end_ms"]
            for a in queries
            for b in queries
            if a is not b
        )
        assert overlapping
        assert any(s["attributes"]["queued_ms"] > 0 for s in queries)
