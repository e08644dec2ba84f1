"""Non-blocking gateway submission, admission spill, and drain/failover
with multiple queries in flight.

The drain contract under concurrency: queries already *running* on the
drained cluster finish in place, queries still sitting in its admission
queue are evicted and re-routed to the fallback, and no handle is ever
driven by two clusters (no double-publish — result rows stay equal to
the single-query oracle).
"""

import pytest

from repro.common.errors import AdmissionRejectedError
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT
from repro.execution import scheduler
from repro.execution.cluster import PrestoClusterSim, QueryState
from repro.execution.engine import PrestoEngine
from repro.federation.gateway import PrestoGateway
from repro.obs.metrics import MetricsRegistry
from repro.planner.analyzer import Session

SQL = "SELECT v, count(*) FROM t GROUP BY v ORDER BY v"


def make_engine(**kwargs):
    connector = MemoryConnector(split_size=10)
    connector.create_table("db", "t", [("v", BIGINT)], [(i % 6,) for i in range(30)])
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"), **kwargs)
    engine.register_connector("memory", connector)
    return engine


def make_gateway(metrics=None, workers=2):
    gateway = PrestoGateway(metrics=metrics)
    for name in ("dedicated-a", "dedicated-b", "shared"):
        gateway.register_cluster(
            PrestoClusterSim(workers=workers, name=name, metrics=metrics)
        )
    gateway.routing.assign_user("alice", "dedicated-a")
    gateway.routing.assign_group("analytics", "dedicated-b")
    gateway.routing.set_default("shared")
    return gateway


class TestSubmitSql:
    def test_routes_admits_and_completes(self):
        gateway = make_gateway()
        engine = make_engine()
        submission = gateway.submit_sql("alice", engine, SQL)
        assert submission.cluster_name == "dedicated-a"
        assert submission.attempts == 1
        assert submission.handle.state == "running"
        gateway.run_until_idle()
        result = submission.handle.result()
        assert result.rows == make_engine().execute(SQL).rows
        # The trace shows the whole serving path, all spans closed.
        trace = submission.handle.trace
        assert [s.name for s in trace.spans[:3]] == [
            "gateway.submit",
            "gateway.route",
            "cluster.admission",
        ]
        assert trace.find("gateway.route")[0].attributes["cluster"] == "dedicated-a"
        assert all(s.end_ms is not None for s in trace.spans)

    def test_spills_to_shallowest_queue_on_shed(self):
        metrics = MetricsRegistry()
        gateway = make_gateway(metrics=metrics)
        engine = make_engine()
        # alice's dedicated cluster sheds anything that would queue.
        gateway.clusters["dedicated-a"].resource_group(
            "alice", max_running=1, max_queued=0
        )
        first = gateway.submit_sql("alice", engine, SQL)
        second = gateway.submit_sql("alice", engine, SQL)
        assert first.cluster_name == "dedicated-a"
        assert second.cluster_name != "dedicated-a"
        assert second.attempts == 2
        assert gateway.load_sheds == 1
        assert gateway.failovers == 1
        assert metrics.total("gateway_load_shed_total", cluster="dedicated-a") == 1
        gateway.run_until_idle()
        oracle = make_engine().execute(SQL).rows
        assert first.handle.result().rows == oracle
        assert second.handle.result().rows == oracle

    def test_all_clusters_shed_propagates_rejection(self):
        gateway = make_gateway()
        engine = make_engine()
        for cluster in gateway.clusters.values():
            # One slot per cluster at the root, no queueing anywhere.
            cluster.root_group.max_running = 1
            cluster.root_group.max_queued = 0
            # Occupy the only slot everywhere.
            cluster.submit_handle(engine.submit(SQL), user="anonymous")
        with pytest.raises(AdmissionRejectedError) as rejection:
            gateway.submit_sql("bob", engine, SQL)
        assert rejection.value.retry_after_ms > 0
        assert gateway.all_sheds == 1
        gateway.run_until_idle()  # the occupying queries still complete

    def test_all_shed_raises_minimum_retry_after(self, monkeypatch):
        # Regression: the gateway used to propagate the *last* attempted
        # cluster's retry-after hint; the client should back off only as
        # long as the soonest-available cluster needs.
        metrics = MetricsRegistry()
        gateway = make_gateway(metrics=metrics)
        engine = make_engine()
        hints = {"dedicated-a": 500.0, "dedicated-b": 120.0, "shared": 900.0}
        for name, cluster in gateway.clusters.items():
            def shed(*args, _name=name, **kwargs):
                raise AdmissionRejectedError(
                    f"{_name} full", retry_after_ms=hints[_name]
                )
            monkeypatch.setattr(cluster, "submit_handle", shed)
        with pytest.raises(AdmissionRejectedError) as rejection:
            # alice routes to dedicated-a first; the spill order ends on
            # "shared" (900ms) — the old code would raise that.
            gateway.submit_sql("alice", engine, SQL)
        assert rejection.value.retry_after_ms == 120.0
        assert gateway.all_sheds == 1
        assert gateway.load_sheds == 3
        assert metrics.total("gateway_all_shed_total") == 1
        assert metrics.total("gateway_load_shed_total") == 3

    def test_queue_depths_surface_to_gauges(self):
        metrics = MetricsRegistry()
        gateway = make_gateway(metrics=metrics)
        engine = make_engine()
        gateway.clusters["shared"].resource_group("bob", max_running=1)
        gateway.submit_sql("bob", engine, SQL)
        gateway.submit_sql("bob", engine, SQL)
        depths = gateway.queue_depths()
        assert depths == {"dedicated-a": 0, "dedicated-b": 0, "shared": 1}
        assert (
            metrics.gauge("gateway_cluster_queue_depth", cluster="shared").value == 1
        )
        gateway.run_until_idle()
        assert gateway.queue_depths()["shared"] == 0


class TestDrainWithInflightQueries:
    def setup_drain(self):
        """dedicated-a serving one running and two queued alice queries."""
        gateway = make_gateway()
        engine = make_engine()
        gateway.clusters["dedicated-a"].resource_group("alice", max_running=1)
        running = gateway.submit_sql("alice", engine, SQL)
        queued = [gateway.submit_sql("alice", engine, SQL) for _ in range(2)]
        assert gateway.clusters["dedicated-a"].queued_query_count() == 2
        return gateway, engine, running, queued

    def test_running_finishes_in_place_queued_reroute(self):
        gateway, _, running, queued = self.setup_drain()
        gateway.drain_cluster("dedicated-a", "shared")
        # Queued handles moved to the fallback; the running one stayed.
        assert running.cluster_name == "dedicated-a"
        for submission in queued:
            assert submission.cluster_name == "shared"
            assert submission.attempts == 2
        assert gateway.failovers == 2
        assert gateway.clusters["dedicated-a"].queued_query_count() == 0
        gateway.run_until_idle()
        oracle = make_engine().execute(SQL).rows
        assert running.handle.result().rows == oracle
        for submission in queued:
            assert submission.handle.result().rows == oracle

    def test_no_double_publish_across_clusters(self):
        gateway, _, running, queued = self.setup_drain()
        gateway.drain_cluster("dedicated-a", "shared")
        gateway.run_until_idle()
        # The drained cluster's executions for the evicted queries never
        # dispatched a split; the fallback ran every task exactly once.
        drained = gateway.clusters["dedicated-a"]
        fallback = gateway.clusters["shared"]
        for submission in queued:
            stats = submission.handle.result().stats
            evicted = [
                q
                for q in drained.queries.values()
                if q.query_id.endswith(submission.handle.query_id)
            ]
            assert evicted and all(q.splits_total == 0 for q in evicted)
            assert submission.execution.splits_done == len(stats.task_records)
            assert submission.execution.splits_total == len(stats.task_records)
        # Each handle's row count matches the oracle exactly — a handle
        # pumped by two clusters would have duplicated result pages.
        oracle = make_engine().execute(SQL).rows
        for submission in (running, *queued):
            assert submission.handle.result().rows == oracle

    def test_eviction_marks_runs_and_new_traffic_reroutes(self):
        gateway, engine, _, _ = self.setup_drain()
        drained = gateway.clusters["dedicated-a"]
        evicted_before = [
            run for run in drained._queued_runs  # captured pre-drain
        ]
        gateway.drain_cluster("dedicated-a", "shared")
        for run in evicted_before:
            assert run.state is QueryState.EVICTED
        # New alice traffic routes straight to the fallback.
        late = gateway.submit_sql("alice", engine, SQL)
        assert late.cluster_name == "shared"
        gateway.run_until_idle()
        assert late.handle.state == "finished"

    def test_drain_keeps_gateway_span_tree_well_formed(self):
        gateway, _, running, queued = self.setup_drain()
        gateway.drain_cluster("dedicated-a", "shared")
        gateway.run_until_idle()
        for submission in (running, *queued):
            trace = submission.handle.trace
            roots = [s for s in trace.spans if s.parent_id is None]
            assert [s.name for s in roots] == ["gateway.submit"]
            assert all(s.end_ms is not None for s in trace.spans)
            # Exactly one admission span: the evicted runs never opened
            # one on the drained cluster.
            admissions = trace.find("cluster.admission")
            assert len(admissions) == 1
            expected = submission.cluster_name
            assert admissions[0].attributes["cluster"] == expected


class TestFailoverWithInflightQueries:
    """Retryable-failure failover on the one serving path.

    Seed 73 (5% task faults, task retries off) dooms exactly one of four
    concurrent alice queries — the second, on the third task of its source
    stage, with the first two splits of that stage still on workers.
    """

    @pytest.fixture(autouse=True)
    def one_split_per_source_task(self, monkeypatch):
        # A source stage of several tasks to fail in the middle of: one
        # split's rows (split_size=10) per task.
        monkeypatch.setattr(scheduler, "TARGET_PARTITION_ROWS", 10)

    def run_storm(self, **fault_options):
        from repro.execution.faults import FaultInjector

        metrics = MetricsRegistry()
        gateway = make_gateway(metrics=metrics)
        engine = make_engine(
            fault_injector=FaultInjector(
                seed=73, task_failure_rate=0.05, **fault_options
            ),
            max_task_retries=0,
        )
        return gateway, engine, metrics

    def test_one_query_fails_over_mid_stage_others_untouched(self):
        gateway, engine, metrics = self.run_storm()
        submissions = [gateway.submit_sql("alice", engine, SQL) for _ in range(4)]
        home = gateway.clusters["dedicated-a"]
        assert home.running_query_count() == 4
        doomed_execution = submissions[1].execution
        gateway.run_until_idle()

        oracle = make_engine().execute(SQL).rows
        moved = submissions[1]
        assert moved.tried == ["dedicated-a", "dedicated-b"]
        assert moved.execution.query_id.startswith("dedicated-b")
        assert moved.handle.result().rows == oracle
        # Each cluster holds its own record of its own attempt: the failed
        # one stays on dedicated-a, the submission points at dedicated-b's.
        assert home.queries[doomed_execution.query_id] is doomed_execution
        assert doomed_execution.state is QueryState.FAILED
        assert moved.execution is not doomed_execution
        away = gateway.clusters["dedicated-b"]
        assert away.queries[moved.execution.query_id] is moved.execution
        assert moved.execution.handle is moved.handle
        assert moved.execution.state is QueryState.FINISHED
        # Mid-stage: the stage had run some tasks, not all, and splits it
        # had dispatched were still out.
        failed_at = doomed_execution.handle.ctx.stats.task_records[-1]
        assert failed_at["failed"] and failed_at["task"] > 0
        assert doomed_execution.splits_done < doomed_execution.splits_total
        # One tree holds both attempts, every span closed.
        trace = moved.handle.trace
        assert [s.name for s in trace.spans if s.parent_id is None] == [
            "gateway.submit"
        ]
        assert [s.attributes["cluster"] for s in trace.find("gateway.route")] == [
            "dedicated-a",
            "dedicated-b",
        ]
        assert [s.attributes["state"] for s in trace.find("cluster.admission")] == [
            "failed",
            "finished",
        ]
        assert len(trace.find("query")) == 2
        assert all(s.end_ms is not None for s in trace.spans)
        # The failed run gave everything back on dedicated-a.
        for group in (home.resource_group("alice"), home.root_group):
            assert group.running == 0
            assert group.memory_used_mb == 0.0
        assert all(w.running == 0 for w in home.workers.values())
        assert not gateway._submissions
        # The other three never left, and ran exactly once.
        for other in (submissions[0], submissions[2], submissions[3]):
            assert other.tried == ["dedicated-a"]
            assert other.handle.result().rows == oracle
            assert len(other.handle.trace.find("gateway.route")) == 1
            assert other.execution.splits_done == other.execution.splits_total
        assert gateway.failovers == 1
        assert metrics.total("gateway_failovers_total", cluster="dedicated-a") == 1
        assert metrics.total("cluster_queries_failed_total", cluster="dedicated-a") == 1

    def test_non_retryable_failure_does_not_reroute(self):
        from repro.common.errors import ErrorCategory, InjectedFaultError

        gateway, engine, _ = self.run_storm(
            task_error_category=ErrorCategory.INSUFFICIENT_RESOURCES
        )
        submissions = [gateway.submit_sql("alice", engine, SQL) for _ in range(4)]
        gateway.run_until_idle()
        assert [s.tried for s in submissions] == [["dedicated-a"]] * 4
        with pytest.raises(InjectedFaultError):
            submissions[1].handle.result()
        assert gateway.failovers == 0
        trace = submissions[1].handle.trace
        assert all(s.end_ms is not None for s in trace.spans)
        oracle = make_engine().execute(SQL).rows
        for other in (submissions[0], submissions[2], submissions[3]):
            assert other.handle.result().rows == oracle

    def test_max_failovers_zero_does_not_reroute(self):
        from repro.common.errors import InjectedFaultError

        gateway, engine, _ = self.run_storm()
        submissions = [
            gateway.submit_sql("alice", engine, SQL, max_failovers=0)
            for _ in range(4)
        ]
        gateway.run_until_idle()
        assert [s.tried for s in submissions] == [["dedicated-a"]] * 4
        with pytest.raises(InjectedFaultError):
            submissions[1].handle.result()
        assert submissions[1].handle.error.retryable
        assert gateway.failovers == 0
        assert not gateway._submissions
