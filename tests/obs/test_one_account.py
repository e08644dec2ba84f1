"""One simulated account per query.

Every simulated charge of a query lands on its account, its own clock,
through ``ExecutionContext.charge``, and advances the engine's clock, if
it has one: the engine clock's advance over the query, its trace root's
duration and the sum of its per-kind charges are one number, however the
query is driven.  A substrate on a clock the engine does not run on keeps
its time there.
"""

import pytest

from repro.common.clock import CHARGE_KINDS, SimulatedClock
from repro.connectors.memory import MemoryConnector
from repro.connectors.olap.druid import DruidConnector
from repro.core.types import BIGINT
from repro.execution.cluster import PrestoClusterSim
from repro.execution.engine import COORDINATOR_OVERHEAD_MS, PrestoEngine
from repro.execution.faults import FaultInjector
from repro.execution.operators.scan import SPLIT_RPC_MS
from repro.federation.gateway import PrestoGateway
from tests.obs.helpers import assert_trace_reconciles
from repro.planner.analyzer import Session
from repro.workloads.druid_queries import build_druid_workload

GROUP_BY = "SELECT b, count(*) FROM t GROUP BY b"


def make_engine(clock=None, **kwargs):
    """5 000 rows in five splits."""
    connector = MemoryConnector(split_size=1000)
    connector.create_table(
        "db", "t", [("a", BIGINT), ("b", BIGINT)], [(i, i % 7) for i in range(5000)]
    )
    engine = PrestoEngine(
        session=Session(catalog="memory", schema="db"), clock=clock, **kwargs
    )
    engine.register_connector("memory", connector)
    return engine


def assert_one_account(delta_ms, trace, charged):
    assert set(charged) == set(CHARGE_KINDS)
    assert trace.root.duration_ms == pytest.approx(delta_ms, abs=1e-9)
    assert sum(charged.values()) == pytest.approx(delta_ms, abs=1e-9)
    assert trace.critical_path_ms() == pytest.approx(delta_ms, abs=1e-9)


class TestOneAccount:
    def test_standalone_clock_trace_and_kinds_agree(self):
        clock = SimulatedClock()
        engine = make_engine(clock, tracing=True)
        start = clock.now_ms()
        result = engine.execute(GROUP_BY)
        assert_one_account(clock.now_ms() - start, result.trace, result.stats.charged_ms)
        charged = result.stats.charged_ms
        assert charged["coordinator"] == COORDINATOR_OVERHEAD_MS
        # The five splits are one task's, each on a lane of its own: the
        # source stage waits for the task's lane, its work and one split.
        assert result.stats.splits_scanned == 5
        assert charged["split_rpc"] == pytest.approx(SPLIT_RPC_MS)
        assert charged["task"] > 0

    def test_an_engine_without_a_clock_charges_all_but_the_coordinator(self):
        clocked = make_engine(SimulatedClock()).execute(GROUP_BY)
        own = make_engine().execute(GROUP_BY)
        assert own.stats.charged_ms == {**clocked.stats.charged_ms, "coordinator": 0.0}
        assert own.trace.root.duration_ms == pytest.approx(own.stats.simulated_ms)

    def test_a_substrate_on_its_own_clock_keeps_its_time(self):
        from repro.connectors.hive import HiveConnector
        from repro.metastore.metastore import HiveMetastore
        from repro.storage.hdfs import HdfsFileSystem
        from repro.workloads.trips import load_trips_table

        metastore = HiveMetastore()
        fs = HdfsFileSystem()
        load_trips_table(metastore, fs, ["2017-03-01"], rows_per_date=60, table="trips")
        results = {}
        for shared in (False, True):
            engine = PrestoEngine(
                session=Session(catalog="hive", schema="rawdata"),
                clock=fs.clock if shared else SimulatedClock(),
            )
            engine.register_connector("hive", HiveConnector(metastore, fs))
            start = fs.clock.now_ms()
            results[shared] = engine.execute("SELECT count(*) FROM trips")
            storage_ms = fs.clock.now_ms() - start
            assert storage_ms > 0
        # The file system advanced its clock by the same round trips
        # either way; they are the query's only when that is its clock.
        assert results[False].stats.charged_ms["storage"] == 0.0
        assert results[True].stats.charged_ms["storage"] > 0.0
        assert results[True].stats.charged_ms["task"] == results[False].stats.charged_ms["task"]

    def test_cluster_submitted_queries_keep_their_own_accounts(self):
        # Two traced queries on one clocked engine interleave their stages
        # on the engine's clock; each trace still reads its own account.
        clock = SimulatedClock()
        engine = make_engine(clock)
        cluster = PrestoClusterSim(workers=2, slots_per_worker=2)
        start = clock.now_ms()
        handles = [engine.submit(GROUP_BY), engine.submit("SELECT a, b FROM t WHERE b = 3")]
        for handle in handles:
            cluster.submit_handle(handle)
        cluster.run_until_idle()
        results = [handle.result() for handle in handles]
        for result in results:
            assert_trace_reconciles(result)
            assert_one_account(result.stats.simulated_ms, result.trace, result.stats.charged_ms)
        assert sum(r.stats.simulated_ms for r in results) == pytest.approx(clock.now_ms() - start)
        # The cluster placed each task by the sim_ms it charged on its own
        # lane, on the cluster's own event clock.
        result = results[0]
        longest = {}
        for record in result.stats.task_records:
            longest[record["stage"]] = max(longest.get(record["stage"], 0.0), record["sim_ms"])
        assert result.stats.simulated_ms == pytest.approx(
            COORDINATOR_OVERHEAD_MS + sum(longest.values())
        )
        assert cluster.clock is not clock

    def test_gateway_failover_keeps_one_account(self):
        # Seed 18 dooms the run on dedicated-a and passes the rerun on
        # dedicated-b (the gateway suite's deterministic failover).
        clock = SimulatedClock()
        gateway = PrestoGateway()
        clusters = [PrestoClusterSim(workers=2, name=name) for name in ("dedicated-a", "dedicated-b")]
        for cluster in clusters:
            gateway.register_cluster(cluster)
        gateway.routing.assign_user("alice", "dedicated-a")
        connector = MemoryConnector(split_size=10)
        connector.create_table("db", "t", [("v", BIGINT)], [(i,) for i in range(30)])
        engine = PrestoEngine(
            session=Session(catalog="memory", schema="db"),
            clock=clock,
            fault_injector=FaultInjector(seed=18, task_failure_rate=0.05),
            max_task_retries=0,
        )
        engine.register_connector("memory", connector)
        start = clock.now_ms()
        submission = gateway.submit_sql("alice", engine, "SELECT sum(v) FROM t")
        gateway.run_until_idle()
        assert gateway.failovers == 1
        result = submission.handle.result()
        attempts = [run.handle for cluster in clusters for run in cluster.queries.values()]
        assert len(attempts) == 2 and attempts[0].error is not None
        charged = dict.fromkeys(CHARGE_KINDS, 0.0)
        for handle in attempts:
            for kind, ms in handle.stats.charged_ms.items():
                charged[kind] += ms
        assert result.trace.root.name == "gateway.submit"
        assert_one_account(clock.now_ms() - start, result.trace, charged)
        assert charged["coordinator"] == 2 * COORDINATOR_OVERHEAD_MS

    def test_simulated_latency_is_observed_untraced(self):
        engine = make_engine(tracing=False)
        result = engine.execute(GROUP_BY)
        assert result.trace is None
        histogram = engine.metrics.histogram("query_simulated_ms")
        assert histogram.count == 1
        assert histogram.sum == pytest.approx(result.stats.simulated_ms)
        assert result.stats.simulated_ms > 0

    def test_a_stage_is_charged_its_most_loaded_lane(self):
        # 100 000 rows in 1 000-row splits: the source stage's 100 splits
        # run on 100 lanes, split s on lane s, and its tasks' own work on
        # lanes 0 and 1.
        connector = MemoryConnector(split_size=1000)
        connector.create_table(
            "db", "t", [("a", BIGINT), ("b", BIGINT)], [(i, i % 7) for i in range(100_000)]
        )
        engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
        engine.register_connector("memory", connector)
        result = engine.execute(GROUP_BY)
        assert result.stats.splits_scanned == 100
        # The query waited for one split's RPC, not a task's run of them.
        assert result.stats.charged_ms["split_rpc"] == pytest.approx(SPLIT_RPC_MS)
        source = result.stats.stage_summaries[0]
        (stage,) = [
            s for s in result.trace.find("stage")
            if s.attributes["stage"] == source["stage"]
        ]
        tasks = [s for s in result.trace.children(stage) if s.name == "task"]
        assert len(tasks) == source["tasks"] == 2
        # Task 0 starts with the stage; task 1 on lane 1, after the RPC of
        # split 1, which task 0 read.  The stage lasts until the later ends.
        assert [t.start_ms - stage.start_ms for t in tasks] == pytest.approx([0.0, SPLIT_RPC_MS])
        assert stage.end_ms == max(t.end_ms for t in tasks)
        assert stage.duration_ms == pytest.approx(source["sim_ms"])


class TestFigure16Account:
    def test_every_query_latency_is_its_trace_root(self):
        """Smoke-size Fig 16: the simulated part of each Presto-Druid
        latency the figure reads (what the store clock advanced) is the
        query's trace root duration and its charges' sum."""
        workload = build_druid_workload(
            segments=4, rows_per_segment=1_000, nodes=100, clock=SimulatedClock()
        )
        clock = workload.cluster.clock
        engine = PrestoEngine(session=Session(catalog="druid", schema="druid"), clock=clock)
        engine.register_connector("druid", DruidConnector(workload.cluster))
        assert len(workload.queries) == 20
        for query in workload.queries:
            start = clock.now_ms()
            result = engine.execute(query.sql)
            assert_one_account(clock.now_ms() - start, result.trace, result.stats.charged_ms)
            assert result.stats.charged_ms["store"] > 0, query.query_id
