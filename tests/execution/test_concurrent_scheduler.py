"""Concurrent multi-query serving: steppable scheduler + admission control.

Covers the run-to-completion → incremental refactor end to end: the
steppable :class:`QueryScheduler` state machine, the engine's
non-blocking submit handle, resource-group quotas and nesting, per-user
admission queues with priority/fair-share dequeue, queue-time
accounting, load shedding, interleaved execution on the cluster event
loop, and fault tolerance (crash requeue) across in-flight queries.
"""

import pytest

from repro.common.errors import (
    AdmissionRejectedError,
    ErrorCategory,
    ExecutionError,
    InjectedFaultError,
    PrestoError,
)
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT
from repro.execution import scheduler
from repro.execution.cluster import (
    PrestoClusterSim,
    QueryState,
    ResourceGroup,
    WorkerState,
)
from repro.execution.engine import PrestoEngine
from repro.obs.metrics import MetricsRegistry
from repro.planner.analyzer import Session
from tests.obs.helpers import assert_query_observable

SQL = "SELECT b, count(*), sum(a) FROM t GROUP BY b ORDER BY b"


def make_engine(rows=60, split_size=7, **kwargs):
    connector = MemoryConnector(split_size=split_size)
    connector.create_table(
        "db", "t", [("a", BIGINT), ("b", BIGINT)], [(i, i % 3) for i in range(rows)]
    )
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"), **kwargs)
    engine.register_connector("memory", connector)
    return engine


def submit(cluster, engine, sql, **admission):
    """Plan on the engine, admit on the cluster: (handle, execution)."""
    handle = engine.submit(sql)
    return handle, cluster.submit_handle(handle, **admission)


class TestQuerySchedulerStateMachine:
    def test_stepping_matches_blocking_run(self):
        stepped_engine = make_engine()
        blocking_engine = make_engine()
        handle = stepped_engine.submit(SQL)
        steps, done_after, frontier_after = [], [], []
        while not handle.done:
            steps.append(handle.step())
            done_after.append(handle.done)
            frontier_after.append(handle.peek_stage())
        oracle = blocking_engine.execute(SQL)
        result = handle.result()
        assert result.rows == oracle.rows
        assert result.stats.task_records == oracle.stats.task_records
        assert result.stats.simulated_ms == oracle.stats.simulated_ms
        # One step per task, each returning the record it just appended.
        assert len(steps) == result.stats.tasks_total
        assert [step.as_dict() for step in steps] == result.stats.task_records
        # The query is done after the last step and no earlier, and that
        # step also closed its stage: the frontier has moved off it.
        assert done_after == [False] * (len(steps) - 1) + [True]
        assert frontier_after[-1] is None
        # A stage closes exactly when the frontier leaves the step's stage.
        stage_closings = [
            step.stage != after for step, after in zip(steps, frontier_after)
        ]
        assert sum(stage_closings) == result.stats.stages_total

    def test_stepped_trace_is_byte_identical_to_blocking(self):
        handle = make_engine().submit(SQL)
        while not handle.done:
            handle.step()
        blocking = make_engine().execute(SQL)
        assert handle.result().trace.to_json() == blocking.trace.to_json()

    def test_peek_stage_tracks_frontier(self):
        handle = make_engine().submit(SQL)
        seen = []
        while not handle.done:
            peeked = handle.peek_stage()
            step = handle.step()
            assert step.stage == peeked
            seen.append(step.stage)
        assert handle.peek_stage() is None
        # Stages execute in topological order: grouped, never revisited.
        boundaries = [s for i, s in enumerate(seen) if i == 0 or seen[i - 1] != s]
        assert len(boundaries) == len(set(boundaries))

    def test_step_after_done_returns_none(self):
        handle = make_engine().submit(SQL)
        handle.run_to_completion()
        assert handle.step() is None
        assert handle.state == "finished"

    def test_finished_query_keeps_rows_not_intermediates(self, monkeypatch):
        # One split's rows per source task, so the first step leaves the
        # stage open with pages buffered.
        monkeypatch.setattr(scheduler, "TARGET_PARTITION_ROWS", 7)
        handle = make_engine().submit(SQL)
        machine = handle._machine
        handle.step()
        assert machine.buffers and machine._tasks  # live: pages buffered
        result = handle.run_to_completion()
        assert result.rows == make_engine().execute(SQL).rows
        assert result.stats.rows_exchanged > 0  # summed before the drop
        assert machine.buffers == {} and machine._out_buffers == []
        assert machine._tasks is None

    def test_result_before_done_raises(self):
        handle = make_engine().submit(SQL)
        with pytest.raises(ExecutionError, match="still running"):
            handle.result()

    def test_metadata_statement_completes_immediately(self):
        handle = make_engine().submit("SHOW TABLES FROM memory.db")
        assert handle.done
        assert handle.result().rows == [("t",)]

    def test_terminal_failure_is_recorded_and_raised(self):
        from repro.execution.faults import FaultInjector

        engine = make_engine(
            fault_injector=FaultInjector(seed=3, task_failure_rate=1.0),
            max_task_retries=1,
        )
        handle = engine.submit(SQL)
        with pytest.raises(InjectedFaultError):
            while not handle.done:
                handle.step()
        assert handle.state == "failed"
        with pytest.raises(InjectedFaultError):
            handle.result()
        # The trace is still well formed: every span closed.
        assert all(s.end_ms is not None for s in handle.trace.spans)


class TestResourceGroups:
    def test_nested_limits_aggregate_up(self):
        root = ResourceGroup("root", max_running=3)
        team = root.child("team", max_running=2)
        alice = team.child("alice", max_running=1)
        bob = team.child("bob")
        assert alice.path == "root.team.alice"
        assert alice.can_admit(0.0)
        alice.acquire(10.0)
        assert not alice.can_admit(0.0)  # own cap
        assert bob.can_admit(0.0)
        bob.acquire(10.0)
        assert not bob.can_admit(0.0)  # team cap of 2
        assert root.running == 2 and root.memory_used_mb == 20.0
        bob.release(10.0)
        assert bob.can_admit(0.0)

    def test_memory_limit_enforced_from_ancestors(self):
        root = ResourceGroup("root", memory_limit_mb=100.0)
        leaf = root.child("leaf")
        assert leaf.can_admit(100.0)
        assert not leaf.can_admit(100.1)
        leaf.acquire(60.0)
        assert not leaf.can_admit(50.0)
        assert leaf.can_admit(40.0)

    def test_cluster_resource_group_by_dotted_path(self):
        cluster = PrestoClusterSim(workers=1)
        group = cluster.resource_group("etl.nightly", max_running=2)
        assert group.path == "root.etl.nightly"
        assert cluster.resource_group("etl.nightly") is group
        assert group.parent is cluster.resource_group("etl")

    @pytest.mark.parametrize(
        "name", ["running", "queued", "memory_used_mb", "queries_completed", "parent"]
    )
    def test_only_limits_are_settable(self, name):
        cluster = PrestoClusterSim(workers=1)
        group = cluster.resource_group("etl")
        with pytest.raises(ExecutionError, match="unknown resource-group limit"):
            cluster.resource_group("etl", **{name: 5})
        assert (group.running, group.queued, group.memory_used_mb) == (0, 0, 0.0)
        assert group.queries_completed == 0 and group.parent is cluster.root_group
        cluster.resource_group("etl", max_running=5)
        assert group.can_admit(0.0)


class TestAdmissionControl:
    def make_cluster(self, **kwargs):
        metrics = MetricsRegistry()
        cluster = PrestoClusterSim(
            workers=4, slots_per_worker=2, metrics=metrics, **kwargs
        )
        return cluster, metrics

    def test_quota_queues_and_accounts_queue_time(self):
        cluster, metrics = self.make_cluster()
        cluster.resource_group("g", max_running=1)
        engine = make_engine()
        first, ex1 = submit(cluster, engine, SQL, resource_group="g")
        second, ex2 = submit(cluster, engine, SQL, resource_group="g")
        assert cluster.running_query_count() == 1
        assert cluster.queued_query_count() == 1
        cluster.run_until_idle()
        assert first.state == "finished" and second.state == "finished"
        assert ex1.queued_ms == 0.0
        assert ex2.queued_ms > 0.0
        assert ex2.running_ms > 0.0
        assert ex2.latency_ms == pytest.approx(ex2.queued_ms + ex2.running_ms)
        # queued_ms lands in the admission span and the histogram.
        admission = second.trace.find("cluster.admission")[0]
        assert admission.attributes["queued_ms"] == ex2.queued_ms
        assert metrics.total("cluster_queries_queued_total", cluster=cluster.name) == 1

    def test_load_shedding_rejects_with_retry_after(self):
        cluster, _ = self.make_cluster()
        cluster.resource_group("g", max_running=1, max_queued=1)
        engine = make_engine()
        submit(cluster, engine, SQL, resource_group="g")
        submit(cluster, engine, SQL, resource_group="g")
        with pytest.raises(AdmissionRejectedError) as rejection:
            submit(cluster, engine, SQL, resource_group="g")
        assert rejection.value.retry_after_ms > 0
        assert rejection.value.category is ErrorCategory.INSUFFICIENT_RESOURCES
        assert not rejection.value.retryable
        assert cluster.queries_shed == 1
        # The shed query holds nothing: the other two still complete.
        cluster.run_until_idle()
        assert cluster.running_query_count() == 0

    def test_queue_slo_shedding(self):
        cluster, _ = self.make_cluster()
        # SLO below one average wait: any queueing at all is over budget.
        cluster.resource_group("g", max_running=1, queue_slo_ms=1.0)
        engine = make_engine()
        submit(cluster, engine, SQL, resource_group="g")
        with pytest.raises(AdmissionRejectedError, match="over SLO"):
            submit(cluster, engine, SQL, resource_group="g")

    def test_fair_share_dequeue_prefers_starved_user(self):
        cluster, _ = self.make_cluster()
        cluster.resource_group("g", max_running=2)
        engine = make_engine()
        # alice fills the group, then queues a third; bob queues one last.
        submit(cluster, engine, SQL, user="alice", resource_group="g")
        submit(cluster, engine, SQL, user="alice", resource_group="g")
        a3, a3_ex = submit(
            cluster, engine, SQL, user="alice", resource_group="g"
        )
        b1, b1_ex = submit(
            cluster, engine, SQL, user="bob", resource_group="g"
        )
        assert [run.handle for run in cluster._queued_runs] == [a3, b1]
        cluster.run_until_idle()
        assert a3.state == b1.state == "finished"
        # Fair share: when the first slot freed, bob (0 running) beat
        # alice's third query (1 still running) despite arriving later.
        assert b1_ex.admitted_at < a3_ex.admitted_at

    def test_priority_beats_fair_share(self):
        cluster, _ = self.make_cluster()
        cluster.resource_group("g", max_running=1)
        engine = make_engine()
        submit(cluster, engine, SQL, user="alice", resource_group="g")
        low, low_ex = submit(
            cluster, engine, SQL, user="bob", resource_group="g", priority=0
        )
        high, high_ex = submit(
            cluster, engine, SQL, user="carol", resource_group="g", priority=5
        )
        cluster.run_until_idle()
        assert high.state == low.state == "finished"
        assert high_ex.finished_at < low_ex.finished_at

    def test_gauges_track_state_transitions(self):
        cluster, metrics = self.make_cluster()
        cluster.resource_group("g", max_running=1)
        engine = make_engine()
        submit(cluster, engine, SQL, resource_group="g")
        submit(cluster, engine, SQL, resource_group="g")
        name = cluster.name
        assert metrics.gauge("cluster_queries_running", cluster=name).value == 1
        assert metrics.gauge("cluster_queries_queued", cluster=name).value == 1
        assert (
            metrics.gauge(
                "resource_group_running", cluster=name, group="root.g"
            ).value
            == 1
        )
        assert (
            metrics.gauge("resource_group_queued", cluster=name, group="root.g").value
            == 1
        )
        cluster.run_until_idle()
        assert metrics.gauge("cluster_queries_running", cluster=name).value == 0
        assert metrics.gauge("cluster_queries_queued", cluster=name).value == 0
        assert (
            metrics.gauge(
                "resource_group_running", cluster=name, group="root.g"
            ).value
            == 0
        )

    def test_planning_cost_sees_real_concurrency(self):
        calls = []

        class SpyCoordinator:
            planning_base_ms = 50.0

            def planning_cost_ms(self, workers, concurrent_queries):
                calls.append(concurrent_queries)
                return 1.0

        cluster = PrestoClusterSim(workers=4, coordinator=SpyCoordinator())
        engine = make_engine()
        for _ in range(3):
            submit(cluster, engine, SQL)
        assert calls == [1, 2, 3]


class TestInterleavedExecution:
    def test_queries_overlap_on_the_simulated_clock(self):
        metrics = MetricsRegistry()
        cluster = PrestoClusterSim(workers=4, slots_per_worker=2, metrics=metrics)
        engine = make_engine()
        handles = [submit(cluster, engine, SQL)[0] for _ in range(3)]
        assert cluster.running_query_count() == 3
        cluster.run_until_idle()
        assert all(h.state == "finished" for h in handles)
        assert cluster.max_concurrent_running() > 1
        timeline = cluster.timeline_trace()
        spans = timeline.find("cluster.query")
        assert len(spans) == 3
        overlaps = [
            (a, b)
            for a in spans
            for b in spans
            if a is not b and a.start_ms < b.end_ms and b.start_ms < a.end_ms
        ]
        assert overlaps, "no overlapping query spans in the cluster timeline"

    def test_interleaved_results_equal_sequential_execution(self):
        concurrent_engine = make_engine()
        cluster = PrestoClusterSim(workers=2, slots_per_worker=1)
        sqls = [SQL, "SELECT count(*) FROM t WHERE a < 30", SQL]
        handles = [submit(cluster, concurrent_engine, s)[0] for s in sqls]
        cluster.run_until_idle()
        sequential_engine = make_engine()
        for handle, sql in zip(handles, sqls):
            assert handle.result().rows == sequential_engine.execute(sql).rows

    def test_concurrent_queries_reconcile_with_observability(self):
        metrics = MetricsRegistry()
        cluster = PrestoClusterSim(workers=4, metrics=metrics)
        engine = make_engine(metrics=metrics)
        handles = [submit(cluster, engine, SQL)[0] for _ in range(2)]
        cluster.run_until_idle()
        for handle in handles:
            assert_query_observable(handle.result(), metrics)

    def test_stage_barrier_no_downstream_task_before_upstream_drains(self):
        cluster = PrestoClusterSim(workers=1, slots_per_worker=1)
        engine = make_engine()
        handle, execution = submit(cluster, engine, SQL)
        cluster.run_until_idle()
        # Replay the split completion order recorded by the cluster: all
        # of stage N's splits must complete before stage N+1 dispatches.
        records = handle.result().stats.task_records
        stages = [r["stage"] for r in records]
        boundaries = [
            s for i, s in enumerate(stages) if i == 0 or stages[i - 1] != s
        ]
        assert len(boundaries) == len(set(boundaries))
        assert execution.splits_done == execution.splits_total == len(records)


class TestCrashRecoveryAcrossQueries:
    def test_crash_requeues_splits_of_all_inflight_queries(self, monkeypatch):
        # One split's rows per source task: 24 tasks per query to crash under.
        monkeypatch.setattr(scheduler, "TARGET_PARTITION_ROWS", 5)
        cluster = PrestoClusterSim(workers=2, slots_per_worker=2)
        engine = make_engine(rows=120, split_size=5)
        handles = [submit(cluster, engine, SQL)[0] for _ in range(3)]
        victim = next(iter(cluster.workers))
        # Admission planning costs ~50ms, so splits are in flight shortly
        # after; crash while all three queries have work on the workers.
        cluster.crash_worker_at(55.0, victim)
        cluster.run_until_idle()
        requeued = sum(q.splits_requeued for q in cluster.queries.values())
        assert requeued > 0
        # Splits from more than one query were in flight on the victim.
        assert all(h.state == "finished" for h in handles)
        oracle = make_engine(rows=120, split_size=5)
        expected = oracle.execute(SQL).rows
        for handle in handles:
            assert handle.result().rows == expected
        for execution in cluster.queries.values():
            assert execution.splits_done == execution.splits_total

    def test_crash_does_not_block_other_queries_progress(self):
        cluster = PrestoClusterSim(workers=3, slots_per_worker=1)
        engine = make_engine(rows=90, split_size=6)
        handles = [submit(cluster, engine, SQL)[0] for _ in range(2)]
        victim = list(cluster.workers)[0]
        cluster.crash_worker_at(55.0, victim)
        cluster.run_until_idle()
        assert all(h.state == "finished" for h in handles)
        assert cluster.workers[victim].state is WorkerState.CRASHED
        # Surviving workers absorbed everything.
        survivors_completed = sum(
            w.completed_splits
            for w in cluster.workers.values()
            if w.worker_id != victim
        )
        total_done = sum(q.splits_done for q in cluster.queries.values())
        assert survivors_completed + cluster.workers[victim].completed_splits
        assert total_done == sum(q.splits_total for q in cluster.queries.values())


class TestDrainEviction:
    def test_evict_queued_returns_unstarted_runs(self):
        cluster = PrestoClusterSim(workers=2)
        cluster.resource_group("g", max_running=1)
        engine = make_engine()
        running, _ = submit(cluster, engine, SQL, resource_group="g")
        queued, queued_ex = submit(
            cluster, engine, SQL, resource_group="g"
        )
        evicted = cluster.evict_queued()
        assert [run.handle for run in evicted] == [queued]
        assert evicted[0].state is QueryState.EVICTED
        assert queued_ex.finished_at is not None
        assert cluster.queued_query_count() == 0
        # The evicted handle never ran a task: zero splits dispatched.
        assert queued_ex.splits_total == 0
        cluster.run_until_idle()
        assert running.state == "finished"


class TestOneRecordPerQuery:
    """``submit_handle``'s return value is the query's only cluster record."""

    def test_same_object_from_queue_to_finish(self):
        cluster = PrestoClusterSim(workers=2)
        cluster.resource_group("g", max_running=1)
        engine = make_engine()
        finished = []
        first, first_ex = submit(
            cluster, engine, SQL, resource_group="g", on_finish=finished.append
        )
        second, second_ex = submit(
            cluster, engine, SQL, resource_group="g", on_finish=finished.append
        )
        assert cluster.queries[first_ex.query_id] is first_ex
        assert cluster.queries[second_ex.query_id] is second_ex
        assert list(cluster.queries.values()) == [first_ex, second_ex]
        assert (first_ex.handle, second_ex.handle) == (first, second)
        assert first_ex.state is QueryState.RUNNING
        assert second_ex.state is QueryState.QUEUED
        assert cluster._queued_runs == [second_ex]
        cluster.run_until_idle()
        # Queue → admit → finish happened to the very same two objects.
        assert finished[0] is first_ex and finished[1] is second_ex
        assert cluster.queries[second_ex.query_id] is second_ex
        assert first_ex.state is second_ex.state is QueryState.FINISHED
        assert second_ex.admitted_at == first_ex.finished_at
        assert second_ex.queued_ms == second_ex.admitted_at - second_ex.submitted_at
        assert second_ex.group is cluster.resource_group("g")

    def test_evicted_record_stays_but_is_not_running(self):
        cluster = PrestoClusterSim(workers=2)
        cluster.resource_group("g", max_running=1)
        engine = make_engine()
        _, running_ex = submit(cluster, engine, SQL, resource_group="g")
        _, queued_ex = submit(cluster, engine, SQL, resource_group="g")
        assert cluster.evict_queued() == [queued_ex]
        assert queued_ex.state is QueryState.EVICTED
        assert cluster.queries[queued_ex.query_id] is queued_ex
        assert cluster.running_query_count() == 1
        assert cluster.queued_query_count() == 0
        cluster.run_until_idle()
        assert cluster.running_query_count() == 0
        # Never admitted, so never on the timeline.
        timeline = cluster.timeline_trace().find("cluster.query")
        assert [s.attributes["query_id"] for s in timeline] == [running_ex.query_id]
        assert cluster.max_concurrent_running() == 1


class TestRawExceptionDoesNotKillTheCluster:
    """A raw ``ZeroDivisionError`` used to escape ``run_until_idle``, leave
    its query RUNNING with the group's only slot, and starve the queue."""

    @pytest.mark.parametrize(
        "bad_sql",
        [
            "SELECT a / 0 FROM t",
            "SELECT CAST('x' AS bigint) FROM t",
            "SELECT -9223372036854775808 - 1 FROM t",
        ],
    )
    def test_bad_query_fails_alone_and_frees_its_slot(self, bad_sql):
        cluster = PrestoClusterSim(workers=2)
        group = cluster.resource_group("g", max_running=1)
        engine = make_engine()
        bad, bad_ex = submit(cluster, engine, bad_sql, resource_group="g")
        good, good_ex = submit(cluster, engine, SQL, resource_group="g")
        assert cluster.queued_query_count() == 1
        cluster.run_until_idle()
        assert bad.state == "failed"
        assert isinstance(bad.error, PrestoError)
        assert bad.error.category is ErrorCategory.USER_ERROR
        assert not bad.error.retryable
        assert bad_ex.state is QueryState.FAILED
        assert group.running == 0 and group.memory_used_mb == 0.0
        assert cluster.running_query_count() == cluster.queued_query_count() == 0
        assert all(w.running == 0 for w in cluster.workers.values())
        assert good_ex.state is QueryState.FINISHED
        assert good.result().rows == make_engine().execute(SQL).rows
        # Every span of the failed query's trace is closed.
        assert all(s.end_ms is not None for s in bad.trace.spans)
