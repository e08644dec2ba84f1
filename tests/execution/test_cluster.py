"""Tests for the cluster control-plane simulation (sections III, VIII, IX)."""

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import (
    AdmissionRejectedError,
    ErrorCategory,
    InsufficientResourcesError,
)
from repro.execution.cluster import (
    CoordinatorModel,
    PrestoClusterSim,
    SyntheticQuery,
    SyntheticStep,
    WorkerState,
)


def run_query(cluster, splits):
    execution = cluster.submit_query(splits)
    cluster.run_until_idle()
    return execution


class TestScheduling:
    def test_single_query_completes(self):
        cluster = PrestoClusterSim(workers=2, slots_per_worker=2)
        execution = run_query(cluster, [100.0] * 4)
        assert execution.finished_at is not None
        assert execution.splits_done == 4

    def test_parallelism_bounds_latency(self):
        # 8 splits of 100ms on 8 slots ≈ one wave; on 2 slots ≈ four waves.
        wide = PrestoClusterSim(workers=4, slots_per_worker=2)
        narrow = PrestoClusterSim(workers=1, slots_per_worker=2)
        wide_exec = run_query(wide, [100.0] * 8)
        narrow_exec = run_query(narrow, [100.0] * 8)
        assert wide_exec.latency_ms < narrow_exec.latency_ms

    def test_splits_balance_across_workers(self):
        cluster = PrestoClusterSim(workers=4, slots_per_worker=1)
        run_query(cluster, [50.0] * 8)
        counts = [w.completed_splits for w in cluster.workers.values()]
        assert all(c == 2 for c in counts)

    def test_concurrent_queries(self):
        cluster = PrestoClusterSim(workers=2, slots_per_worker=2)
        first = cluster.submit_query([100.0] * 2)
        second = cluster.submit_query([100.0] * 2)
        cluster.run_until_idle()
        assert first.finished_at is not None
        assert second.finished_at is not None

    def test_empty_query_rejected(self):
        from repro.common.errors import ExecutionError

        with pytest.raises(ExecutionError):
            PrestoClusterSim().submit_query([])


class TestOneAdmissionPath:
    """Synthetic queries are admitted, pumped handles like any other."""

    def test_synthetic_and_engine_queries_start_at_the_same_time(self):
        # Regression: the synthetic path used to register the query and
        # then plan with running_query_count() + 1 — counting it twice
        # (50.0096 ms vs an engine handle's 50.0048 ms on 4 idle workers).
        from repro.connectors.memory import MemoryConnector
        from repro.core.types import BIGINT
        from repro.execution.engine import PrestoEngine
        from repro.planner.analyzer import Session

        connector = MemoryConnector()
        connector.create_table("db", "t", [("v", BIGINT)], [(1,)])
        engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
        engine.register_connector("memory", connector)
        synthetic = PrestoClusterSim(workers=4).submit_query([20.0])
        handle = PrestoClusterSim(workers=4).submit_handle(
            engine.submit("SELECT v FROM t")
        )
        assert synthetic.started_at == handle.started_at
        assert synthetic.started_at == CoordinatorModel().planning_cost_ms(4, 1)

    def test_synthetic_queries_show_in_timeline_and_histograms(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        cluster = PrestoClusterSim(workers=2, slots_per_worker=2, metrics=metrics)
        executions = [cluster.submit_query([100.0] * 2) for _ in range(3)]
        assert cluster.running_query_count() == 3
        cluster.run_until_idle()
        assert all(e.splits_done == e.splits_total == 2 for e in executions)
        assert all(e.running_ms > 0.0 and e.queued_ms == 0.0 for e in executions)
        assert cluster.max_concurrent_running() == 3
        spans = cluster.timeline_trace().find("cluster.query")
        assert [s.attributes["query_id"] for s in spans] == [
            e.query_id for e in executions
        ]
        for name in ("cluster_queued_ms", "cluster_running_ms"):
            assert metrics.histogram(name, cluster=cluster.name).count == 3

    def test_synthetic_queries_obey_resource_groups(self):
        # The default group is root.anonymous; capping it queues the
        # second synthetic query behind the first.
        cluster = PrestoClusterSim(workers=2)
        cluster.resource_group("anonymous", max_running=1)
        first = cluster.submit_query([100.0])
        second = cluster.submit_query([100.0])
        assert cluster.queued_query_count() == 1
        cluster.run_until_idle()
        assert second.queued_ms == pytest.approx(first.running_ms)
        assert cluster.max_concurrent_running() == 1

    @pytest.mark.parametrize("path", ["etl", "etl.nightly"])
    def test_query_over_a_memory_limit_is_refused_not_queued(self, path):
        # Regression: a query larger than its group's memory limit used to
        # queue forever: run_until_idle ran no event and the handle stayed
        # "still running".  The limit may sit on the group or an ancestor.
        cluster = PrestoClusterSim(workers=2)
        cluster.resource_group("etl", memory_limit_mb=50.0)
        handle = SyntheticQuery("big", [SyntheticStep(10.0)])
        with pytest.raises(InsufficientResourcesError) as refusal:
            cluster.submit_handle(handle, resource_group=path, memory_mb=100.0)
        error = refusal.value
        assert not isinstance(error, AdmissionRejectedError)
        assert error.category is ErrorCategory.INSUFFICIENT_RESOURCES
        assert "root.etl" in str(error)
        assert "100.0 MB" in str(error) and "50.0 MB" in str(error)
        assert not cluster.queries and cluster.queued_query_count() == 0
        # A query that fits the limit exactly is admitted and runs.
        fits = cluster.submit_handle(
            SyntheticQuery("fits", [SyntheticStep(10.0)]),
            resource_group=path,
            memory_mb=50.0,
        )
        cluster.run_until_idle()
        assert fits.finished_at is not None

    @pytest.mark.parametrize("path", ["etl", "etl.nightly"])
    def test_query_in_a_group_allowing_no_running_query_is_refused(self, path):
        # Regression: max_running=0 made the queue-wait estimate divide by
        # zero, a bare ZeroDivisionError out of submit_handle.
        cluster = PrestoClusterSim(workers=2)
        cluster.resource_group("etl", max_running=0)
        handle = SyntheticQuery("never", [SyntheticStep(10.0)])
        with pytest.raises(InsufficientResourcesError) as refusal:
            cluster.submit_handle(handle, resource_group=path)
        error = refusal.value
        assert not isinstance(error, AdmissionRejectedError)
        assert error.category is ErrorCategory.INSUFFICIENT_RESOURCES
        assert "root.etl allows 0 running queries" in str(error)
        assert not cluster.queries and cluster.queued_query_count() == 0
        # One slot admits it.
        cluster.resource_group("etl", max_running=1)
        runs = cluster.submit_handle(
            SyntheticQuery("runs", [SyntheticStep(10.0)]), resource_group=path
        )
        cluster.run_until_idle()
        assert runs.finished_at is not None


class TestWorkPerEvent:
    """The event loop's work grows with the queries in flight, not with all seen."""

    def test_admission_checks_per_query_do_not_grow_with_the_storm(self, monkeypatch):
        # A long storm keeps a deep queue; a dequeue that asked every queued
        # run whether it fits made calls per query grow with the storm's
        # length (119 per query at 500 queries, 455 at 2 000).
        from pathlib import Path

        from repro.execution.cluster import ResourceGroup
        from repro.workloads.traffic_storm import build_traffic_storm

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[2] / "benchmarks"))
        from bench_traffic_storm import replay_storm

        calls = 0
        can_admit = ResourceGroup.can_admit

        def counting(group, memory_mb):
            nonlocal calls
            calls += 1
            return can_admit(group, memory_mb)

        monkeypatch.setattr(ResourceGroup, "can_admit", counting)
        per_query = {}
        for queries in (500, 2000):
            calls = 0
            storm = build_traffic_storm(queries=queries, users=40, seed=7)
            report, _ = replay_storm(storm, max_running=8, rows=120)
            assert report["completed"] == queries
            per_query[queries] = calls / queries
        assert per_query[2000] <= 1.2 * per_query[500], per_query


class TestCoordinatorBottleneck:
    def test_planning_cost_grows_with_workers(self):
        model = CoordinatorModel()
        small = model.planning_cost_ms(workers=100, concurrent_queries=10)
        big = model.planning_cost_ms(workers=2000, concurrent_queries=10)
        assert big > 2 * small

    def test_planning_cost_grows_with_concurrency(self):
        # Section VIII: degradation with "more than 500 complex queries
        # running concurrently".
        model = CoordinatorModel()
        idle = model.planning_cost_ms(workers=100, concurrent_queries=10)
        busy = model.planning_cost_ms(workers=100, concurrent_queries=1000)
        assert busy > 5 * idle

    def test_latency_degrades_on_oversized_cluster(self):
        small = PrestoClusterSim(workers=100, slots_per_worker=1)
        large = PrestoClusterSim(workers=2500, slots_per_worker=1)
        small_latency = run_query(small, [100.0] * 10).latency_ms
        large_latency = run_query(large, [100.0] * 10).latency_ms
        assert large_latency > small_latency


class TestGracefulShutdown:
    def test_shutdown_drains_before_stopping(self):
        cluster = PrestoClusterSim(workers=2, slots_per_worker=1)
        execution = cluster.submit_query([1000.0, 1000.0])
        worker_id = next(iter(cluster.workers))
        cluster.request_graceful_shutdown(worker_id, grace_period_ms=100.0)
        cluster.run_until_idle()
        # Query finished despite the shrink; worker ended SHUT_DOWN.
        assert execution.finished_at is not None
        assert cluster.workers[worker_id].state is WorkerState.SHUT_DOWN

    def test_shutdown_waits_two_grace_periods(self):
        clock = SimulatedClock()
        cluster = PrestoClusterSim(workers=1, slots_per_worker=1, clock=clock)
        worker_id = next(iter(cluster.workers))
        cluster.request_graceful_shutdown(worker_id, grace_period_ms=1000.0)
        cluster.run_until_idle()
        worker = cluster.workers[worker_id]
        # Idle worker: grace + grace = 2000ms minimum before SHUT_DOWN.
        assert worker.shut_down_at >= 2000.0

    def test_no_new_tasks_after_coordinator_aware(self):
        cluster = PrestoClusterSim(workers=2, slots_per_worker=4)
        worker_id = next(iter(cluster.workers))
        cluster.request_graceful_shutdown(worker_id, grace_period_ms=10.0)
        cluster.run_until_idle()  # grace elapses; coordinator is aware
        execution = cluster.submit_query([50.0] * 8)
        cluster.run_until_idle()
        assert execution.finished_at is not None
        assert cluster.workers[worker_id].completed_splits == 0

    def test_expansion_adds_capacity(self):
        cluster = PrestoClusterSim(workers=1, slots_per_worker=1)
        before = run_query(cluster, [100.0] * 8).latency_ms
        for _ in range(7):
            cluster.add_worker()
        after = run_query(cluster, [100.0] * 8).latency_ms
        assert after < before

    def test_double_shutdown_request_is_idempotent(self):
        cluster = PrestoClusterSim(workers=1)
        worker_id = next(iter(cluster.workers))
        cluster.request_graceful_shutdown(worker_id, 10.0)
        cluster.request_graceful_shutdown(worker_id, 10.0)
        cluster.run_until_idle()
        assert cluster.workers[worker_id].state is WorkerState.SHUT_DOWN
