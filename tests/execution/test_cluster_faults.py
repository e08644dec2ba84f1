"""Cluster failure handling: worker crashes, FIFO scheduling, the
affinity-ring fix, and the graceful-shutdown drain path under load.

These pin the scheduling bugs the fault-tolerance work exposed: dead
workers polluting the affinity ring (keys could never re-home), LIFO
split scheduling (completion order reversed relative to submission), and
the crash/drain interactions.
"""

import pytest

from repro.common.clock import SimulatedClock
from repro.common.ring import ConsistentHashRing
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, VARCHAR
from repro.execution.cluster import PrestoClusterSim, WorkerState
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session


class TestWorkerCrash:
    def test_crash_requeues_in_flight_splits(self):
        cluster = PrestoClusterSim(workers=2, slots_per_worker=2, clock=SimulatedClock())
        execution = cluster.submit_query([100.0] * 8)
        victim = next(iter(cluster.workers))
        # Let work start, then kill the worker mid-flight.
        cluster.crash_worker_at(120.0, victim)
        cluster.run_until_idle()
        assert execution.finished_at is not None
        assert execution.splits_done == 8
        assert execution.splits_requeued > 0
        assert cluster.workers[victim].state is WorkerState.CRASHED

    def test_crashed_worker_never_scheduled_again(self):
        cluster = PrestoClusterSim(workers=2, slots_per_worker=2, clock=SimulatedClock())
        victim = next(iter(cluster.workers))
        cluster.crash_worker(victim)
        execution = cluster.submit_query([50.0] * 6)
        cluster.run_until_idle()
        assert execution.finished_at is not None
        assert cluster.workers[victim].completed_splits == 0
        assert cluster.workers[victim].state is WorkerState.CRASHED

    def test_crash_loses_worker_cache(self):
        cluster = PrestoClusterSim(
            workers=2, slots_per_worker=2, clock=SimulatedClock(), affinity_scheduling=True
        )
        cluster.submit_query([10.0] * 4, split_keys=["a", "b", "c", "d"])
        cluster.run_until_idle()
        crashed = [w for w in cluster.workers.values() if len(w.data_cache) > 0]
        assert crashed
        cluster.crash_worker(crashed[0].worker_id)
        # Both tiers are gone: a restarted worker starts cold.
        assert len(crashed[0].data_cache) == 0
        assert crashed[0].data_cache.keys() == set()

    def test_stale_completion_event_ignored_after_crash(self):
        # The split's completion event fires after the crash requeued it;
        # it must not double-count the split.
        cluster = PrestoClusterSim(workers=2, slots_per_worker=1, clock=SimulatedClock())
        execution = cluster.submit_query([100.0, 100.0])
        victim = next(iter(cluster.workers))
        cluster.crash_worker_at(60.0, victim)
        cluster.run_until_idle()
        assert execution.splits_done == execution.splits_total == 2
        assert execution.finished_at is not None

    def test_crash_all_workers_then_expand_recovers(self):
        cluster = PrestoClusterSim(workers=1, slots_per_worker=1, clock=SimulatedClock())
        execution = cluster.submit_query([100.0] * 3)
        only = next(iter(cluster.workers))
        cluster.crash_worker_at(150.0, only)
        # New worker registers and picks up the orphaned work.
        cluster.call_at(200.0, cluster.add_worker)
        cluster.run_until_idle()
        assert execution.finished_at is not None
        assert execution.splits_done == 3

    def test_crash_is_idempotent(self):
        cluster = PrestoClusterSim(workers=2)
        victim = next(iter(cluster.workers))
        cluster.crash_worker(victim)
        assert cluster.crash_worker(victim) == []

    def test_engine_query_survives_crash(self):
        connector = MemoryConnector(split_size=5)
        connector.create_table(
            "db", "events", [("k", VARCHAR), ("v", BIGINT)],
            [(f"key-{i % 7}", i) for i in range(40)],
        )
        engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
        engine.register_connector("memory", connector)
        cluster = PrestoClusterSim(workers=2, slots_per_worker=1, clock=SimulatedClock())
        handle = engine.submit("SELECT k, count(*) FROM events GROUP BY k")
        execution = cluster.submit_handle(handle)
        victim = next(iter(cluster.workers))
        cluster.crash_worker_at(60.0, victim)
        cluster.run_until_idle()
        assert handle.result().rows  # engine result intact
        assert execution.finished_at is not None
        assert execution.splits_done == execution.splits_total


class TestFifoScheduling:
    def test_splits_run_in_submission_order(self):
        # One slot: splits must complete 0, 1, 2, ... not reversed.
        cluster = PrestoClusterSim(workers=1, slots_per_worker=1, clock=SimulatedClock())
        keys = [f"split-{i}" for i in range(6)]
        cluster.submit_query([10.0] * 6, split_keys=keys)
        order = []
        original = cluster._on_split_done

        def spy(assignment_id):
            assignment = cluster._assignments.get(assignment_id)
            if assignment is not None:
                order.append(assignment[2].data_key)
            original(assignment_id)

        cluster._on_split_done = spy
        cluster.run_until_idle()
        assert order == keys

    def test_cache_warms_in_submission_order(self):
        # The first-submitted split's key is cached first: with one slot
        # the first key seen again is a hit before later keys.
        cluster = PrestoClusterSim(workers=1, slots_per_worker=1, clock=SimulatedClock())
        cluster.submit_query([10.0, 10.0], split_keys=["first", "second"])
        cluster.run_until_idle()
        worker = next(iter(cluster.workers.values()))
        assert worker.data_cache.keys() == {"first", "second"}
        assert worker.data_cache.tier_of("first") == "hot"


class TestAffinityRingRehoming:
    def test_ring_excludes_non_active_workers(self):
        # Regression: the ring was built from sorted(self.workers)
        # including SHUTTING_DOWN/SHUT_DOWN workers, so keys hashing to a
        # dead worker permanently lost affinity and never re-warmed.
        cluster = PrestoClusterSim(
            workers=3, slots_per_worker=4, clock=SimulatedClock(), affinity_scheduling=True
        )
        all_ids = sorted(cluster.workers)
        # A key that prefers the worker we are about to shut down.
        key = next(
            f"part-{i}"
            for i in range(1000)
            if cluster.affinity_ring.lookup(f"part-{i}") == all_ids[0]
        )
        cluster.request_graceful_shutdown(all_ids[0], grace_period_ms=1.0)
        cluster.run_until_idle()  # coordinator now aware; worker drained
        survivors = [
            w_id for w_id, w in cluster.workers.items()
            if w.state is WorkerState.ACTIVE
        ]
        # Placement after the drain matches a ring built from survivors
        # alone — the drained worker's points are gone, nothing else moved.
        expected_home = ConsistentHashRing(sorted(survivors)).lookup(key)
        # Repeat rounds of the key: all land on the new home, and from the
        # second round on they hit its cache.
        for _ in range(3):
            cluster.submit_query([10.0], split_keys=[key])
            cluster.run_until_idle()
        new_home = cluster.workers[expected_home]
        assert new_home.completed_splits == 3
        assert new_home.cache_hits == 2

    def test_rehoming_after_crash(self):
        cluster = PrestoClusterSim(
            workers=3, slots_per_worker=4, clock=SimulatedClock(), affinity_scheduling=True
        )
        all_ids = sorted(cluster.workers)
        key = next(
            f"part-{i}"
            for i in range(1000)
            if cluster.affinity_ring.lookup(f"part-{i}") == all_ids[1]
        )
        cluster.submit_query([10.0], split_keys=[key])
        cluster.run_until_idle()
        assert cluster.workers[all_ids[1]].completed_splits == 1
        cluster.crash_worker(all_ids[1])
        survivors = [
            w_id for w_id, w in cluster.workers.items()
            if w.state is WorkerState.ACTIVE
        ]
        expected_home = ConsistentHashRing(sorted(survivors)).lookup(key)
        for _ in range(2):
            cluster.submit_query([10.0], split_keys=[key])
            cluster.run_until_idle()
        assert cluster.workers[expected_home].completed_splits == 2
        assert cluster.workers[expected_home].cache_hits == 1

    def test_single_crash_remaps_few_keys(self):
        # The headline fix: with modulo placement a single crash remapped
        # nearly every key; on the ring only the crashed worker's ~1/N
        # share moves.  Bound the remap fraction at 2/N.
        cluster = PrestoClusterSim(
            workers=8, slots_per_worker=4, clock=SimulatedClock(), affinity_scheduling=True
        )
        keys = [f"part-{i}" for i in range(2000)]
        before = {key: cluster.affinity_ring.lookup(key) for key in keys}
        victim = sorted(cluster.workers)[3]
        cluster.crash_worker(victim)
        moved = 0
        for key in keys:
            after = cluster.affinity_ring.lookup(key)
            if after != before[key]:
                # Only keys homed on the victim may move, and they must
                # land on a survivor.
                assert before[key] == victim
                assert after != victim
                moved += 1
        assert moved == sum(1 for home in before.values() if home == victim)
        assert moved / len(keys) <= 2 / len(cluster.workers)


class TestGracefulShutdownUnderLoad:
    def test_drain_shuts_down_one_grace_period_after_last_split(self):
        # Worker has in-flight work when the shutdown becomes visible: it
        # drains, _on_split_done re-checks, and SHUT_DOWN lands exactly
        # one grace period after the last split completes.
        clock = SimulatedClock()
        cluster = PrestoClusterSim(workers=1, slots_per_worker=2, clock=clock)
        worker_id = next(iter(cluster.workers))
        execution = cluster.submit_query([500.0, 500.0])
        grace = 100.0
        cluster.request_graceful_shutdown(worker_id, grace_period_ms=grace)
        cluster.run_until_idle()
        worker = cluster.workers[worker_id]
        assert execution.finished_at is not None
        assert worker.state is WorkerState.SHUT_DOWN
        # Visibility landed mid-flight (grace < total work), so the drain
        # path went through _on_split_done's re-check.
        assert worker.shut_down_at == pytest.approx(execution.finished_at + grace)

    def test_drained_worker_takes_no_tasks_after_visibility(self):
        clock = SimulatedClock()
        cluster = PrestoClusterSim(workers=2, slots_per_worker=2, clock=clock)
        worker_id = next(iter(cluster.workers))
        cluster.submit_query([300.0] * 4)
        cluster.request_graceful_shutdown(worker_id, grace_period_ms=50.0)
        cluster.run_until_idle()
        completed_at_drain = cluster.workers[worker_id].completed_splits
        late = cluster.submit_query([50.0] * 4)
        cluster.run_until_idle()
        assert late.finished_at is not None
        assert cluster.workers[worker_id].completed_splits == completed_at_drain

    def test_crash_during_shutting_down_preempts_drain(self):
        clock = SimulatedClock()
        cluster = PrestoClusterSim(workers=2, slots_per_worker=1, clock=clock)
        execution = cluster.submit_query([1000.0] * 4)
        victim = next(iter(cluster.workers))
        cluster.request_graceful_shutdown(victim, grace_period_ms=100.0)
        # Crash while still draining its in-flight split.
        cluster.crash_worker_at(500.0, victim)
        cluster.run_until_idle()
        worker = cluster.workers[victim]
        assert worker.state is WorkerState.CRASHED  # not SHUT_DOWN
        assert execution.finished_at is not None
        assert execution.splits_done == 4
        assert execution.splits_requeued > 0


class TestCrashCacheConsistency:
    def run_once(self):
        """Affinity workload with a mid-flight crash; serialized artifacts."""
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        cluster = PrestoClusterSim(
            workers=3,
            slots_per_worker=2,
            clock=SimulatedClock(),
            affinity_scheduling=True,
            metrics=metrics,
            name="faulty",
        )
        keys = [f"part-{i % 5}" for i in range(20)]
        cluster.submit_query([25.0] * len(keys), split_keys=keys)
        victim = sorted(cluster.workers)[1]
        cluster.crash_worker_at(80.0, victim)
        cluster.run_until_idle()
        cluster.submit_query([25.0] * len(keys), split_keys=keys)
        cluster.run_until_idle()
        return cluster, victim, {
            "timeline": cluster.timeline_trace().to_json(),
            "metrics": metrics.to_json(),
        }

    def test_crashed_tiers_empty_and_replay_deterministic(self):
        first_cluster, victim, first = self.run_once()
        # The crashed worker's cache is empty — both tiers dropped.
        assert len(first_cluster.workers[victim].data_cache) == 0
        # Survivors re-warmed: the second round hit their caches.
        assert any(
            w.cache_hits > 0
            for w_id, w in first_cluster.workers.items()
            if w_id != victim
        )
        # Same seedless-deterministic workload, byte-identical artifacts:
        # the cache charges only simulated time and hashes with crc32.
        _, _, second = self.run_once()
        assert first["timeline"] == second["timeline"]
        assert first["metrics"] == second["metrics"]


class TestQueryIdThreading:
    def test_engine_query_id_reaches_cluster_records(self):
        connector = MemoryConnector(split_size=10)
        connector.create_table(
            "db", "t", [("v", BIGINT)], [(i,) for i in range(30)]
        )
        engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
        engine.register_connector("memory", connector)
        cluster = PrestoClusterSim(workers=2, clock=SimulatedClock(), name="adhoc")
        handle = engine.submit("SELECT sum(v) FROM t")
        execution = cluster.submit_handle(handle)
        cluster.run_until_idle()
        engine_id = handle.result().stats.query_id
        assert engine_id
        assert execution.query_id == f"adhoc-{engine_id}"
        assert execution.query_id in cluster.queries

    def test_resubmitting_same_engine_query_gets_unique_cluster_id(self):
        cluster = PrestoClusterSim(workers=1, clock=SimulatedClock())
        first = cluster.submit_query([1.0], query_id="dup")
        second = cluster.submit_query([1.0], query_id="dup")
        assert first.query_id == "cluster-dup"
        assert second.query_id != first.query_id
        assert len(cluster.queries) == 2
