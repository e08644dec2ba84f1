"""Staged execution: stages, tasks, exchanges, EXPLAIN ANALYZE, and the
bridge into the cluster simulation (section III + section VIII)."""

from itertools import accumulate

import pytest

from repro.common.clock import SimulatedClock
from repro.common.hashing import stable_hash
from repro.common.ring import ConsistentHashRing
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, VARCHAR
from repro.execution import scheduler
from repro.execution.cluster import PrestoClusterSim
from repro.execution.engine import PrestoEngine
from repro.execution.scheduler import TARGET_PARTITION_ROWS
from repro.federation.gateway import PrestoGateway
from repro.planner.analyzer import Session
from tests.connectors.test_pushdown_differential import engine  # noqa: F401 (a fixture)
from tests.reference.pipeline import execute_direct


def make_engine(split_size=5, **kwargs):
    connector = MemoryConnector(split_size=split_size)
    rows = [(f"key-{i % 7}", i) for i in range(40)]
    connector.create_table("db", "events", [("k", VARCHAR), ("v", BIGINT)], rows)
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"), **kwargs)
    engine.register_connector("memory", connector)
    return engine


FAN_OUT_SQL = "SELECT level, count(*) FROM {t} GROUP BY level"
# The 30 rows of the pushdown suite behind each connector: (table,
# splits_scanned, rows_scanned) of FAN_OUT_SQL, as they were when every
# split ran as its own task.  Druid pushes the partial aggregation down,
# so its splits stream 14 group rows.
FAN_OUT_TABLES = {
    "memory": ("memory.db.t", 6, 30),
    "druid": ("druid.druid.t", 2, 14),
    "iceberg": ("iceberg.lake.t", 2, 30),
    "hybrid": ("hybrid.rt.t", 4, 30),
    "hive": ("hive.db.t", 2, 30),
}


class TestStagedStats:
    @pytest.mark.parametrize("target", [TARGET_PARTITION_ROWS, 10])
    @pytest.mark.parametrize("connector", sorted(FAN_OUT_TABLES))
    def test_source_stage_follows_the_fan_out_rule(
        self, engine, monkeypatch, connector, target
    ):
        monkeypatch.setattr(scheduler, "TARGET_PARTITION_ROWS", target)
        table, splits_scanned, rows_scanned = FAN_OUT_TABLES[connector]
        sql = FAN_OUT_SQL.format(t=table)
        result = engine.execute(sql)
        catalog, schema_name, table_name = table.split(".")
        spi = engine.catalog.connector(catalog)
        splits = spi.split_manager().get_splits(
            spi.get_table_handle(schema_name, table_name)
        )
        if connector == "hive":  # counting would need a footer read
            assert all(split.rows is None for split in splits)
            width = len(splits)
        else:
            rows = sum(split.rows for split in splits)
            width = min(len(splits), max(1, -(-rows // target)))
        (leaf,) = [s for s in result.stats.stage_summaries if s["distribution"] == "source"]
        assert leaf["tasks"] == width
        # Each task takes the next contiguous run of splits and is keyed
        # by the first of them.
        records = [r for r in result.stats.task_records if r["stage"] == leaf["stage"]]
        starts = list(accumulate([0] + [r["splits"] for r in records]))
        assert starts[-1] == len(splits)
        assert [r["data_key"] for r in records] == [splits[i].split_id for i in starts[:-1]]
        stats = result.stats
        assert (stats.splits_scanned, stats.rows_scanned) == (splits_scanned, rows_scanned)
        direct = execute_direct(engine, sql)
        assert sorted(map(repr, result.rows)) == sorted(map(repr, direct.rows))

    def test_empty_table_runs_one_source_task(self):
        engine = make_engine()
        engine.catalog.connector("memory").create_table(
            "db", "empty", [("k", VARCHAR), ("v", BIGINT)], []
        )
        result = engine.execute("SELECT count(*) FROM empty")
        assert result.rows == [(0,)]
        leaf = result.stats.stage_summaries[0]
        assert (leaf["distribution"], leaf["tasks"]) == ("source", 1)

    def test_scan_emptied_by_a_dynamic_filter_runs_one_task(self):
        engine = make_engine()  # 40 rows → 8 splits
        result = engine.execute(
            "SELECT count(*) FROM events e "
            "JOIN (SELECT k FROM events WHERE v < 0) n ON e.k = n.k"
        )
        assert result.rows == [(0,)]
        assert result.stats.dynamic_filter_splits_skipped == 8
        (probe,) = [
            r for r in result.stats.task_records
            if r["splits"] == 0 and r["data_key"].endswith(".task0")
            and any(
                s["stage"] == r["stage"] and s["distribution"] == "source"
                for s in result.stats.stage_summaries
            )
        ]
        (stage,) = [s for s in result.stats.stage_summaries if s["stage"] == probe["stage"]]
        assert stage["tasks"] == 1

    def test_hash_stage_runs_one_task_per_partition(self):
        engine = make_engine(hash_partitions=3)
        result = engine.execute("SELECT k, sum(v) FROM events GROUP BY k")
        (stage,) = [
            s for s in result.stats.stage_summaries if s["distribution"] == "hash"
        ]
        chosen = min(3, max(1, -(-stage["rows_in"] // TARGET_PARTITION_ROWS)))
        assert stage["tasks"] == chosen
        assert [
            r["data_key"]
            for r in result.stats.task_records
            if r["stage"] == stage["stage"]
        ] == [f"stage{stage['stage']}.part{p}" for p in range(chosen)]

    def test_rows_exchanged_counted(self):
        engine = make_engine()
        result = engine.execute("SELECT k, count(*) FROM events GROUP BY k")
        # 8 partial tasks × up to 7 groups flow through the repartition,
        # then 7 final rows gather to the output stage.
        assert result.stats.rows_exchanged > 7
        assert result.stats.tasks_total >= result.stats.stages_total

    def test_simulated_time_deterministic(self):
        first = make_engine().execute("SELECT k, sum(v) FROM events GROUP BY k").stats
        second = make_engine().execute("SELECT k, sum(v) FROM events GROUP BY k").stats
        assert first.simulated_ms == second.simulated_ms
        assert first.task_records == second.task_records

    def test_task_records_carry_split_data_keys(self):
        engine = make_engine()
        result = engine.execute("SELECT sum(v) FROM events")
        leaf_keys = [r["data_key"] for r in result.stats.task_records if r["splits"]]
        assert leaf_keys and all(key.startswith("memory:db.events:") for key in leaf_keys)

    def test_stats_appear_in_as_dict(self):
        engine = make_engine()
        stats = engine.execute("SELECT count(*) FROM events").stats.as_dict()
        assert stats["stages_total"] >= 2
        assert stats["tasks_total"] >= stats["stages_total"]
        assert isinstance(stats["stage_summaries"], list)


class TestExplainAnalyze:
    def test_reports_stages_tasks_and_rows(self):
        engine = make_engine()
        result = engine.execute("EXPLAIN ANALYZE SELECT k, count(*) FROM events GROUP BY k")
        text = "\n".join(row[0] for row in result.rows)
        assert "stages" in text and "tasks" in text
        assert "rows exchanged" in text
        assert "simulated ms" in text
        assert "Stage 0" in text
        assert "0 row-at-a-time" in text

    def test_analyze_not_swallowed_by_plain_explain(self):
        engine = make_engine()
        analyzed = engine.execute("explain analyze SELECT count(*) FROM events")
        plain = engine.execute("EXPLAIN SELECT count(*) FROM events")
        assert any("simulated ms" in row[0] for row in analyzed.rows)
        assert not any("simulated ms" in row[0] for row in plain.rows)


class TestDirectOracle:
    def test_execute_direct_runs_single_pipeline(self):
        engine = make_engine()
        result = execute_direct(engine, "SELECT k, count(*) FROM events GROUP BY k")
        assert result.stats.stages_total == 0
        assert result.stats.task_records == []

    def test_execute_direct_does_not_stage(self):
        engine = make_engine()
        result = execute_direct(engine, "SELECT count(*) FROM events")
        assert result.stats.stages_total == 0
        assert result.rows == [(40,)]
        # execute() has no such switch: it always stages.
        assert engine.execute("SELECT count(*) FROM events").stats.stages_total > 0


class TestClusterBridge:
    def test_engine_handle_schedules_real_tasks(self):
        engine = make_engine()
        cluster = PrestoClusterSim(workers=3, clock=SimulatedClock())
        handle = engine.submit("SELECT k, sum(v) FROM events GROUP BY k")
        execution = cluster.submit_handle(handle)
        cluster.run_until_idle()
        assert execution.finished_at is not None
        # One cluster task per staged-execution task, not a synthetic count.
        assert execution.splits_total == handle.result().stats.tasks_total

    def test_engine_queries_warm_affinity_caches(self, monkeypatch):
        # One split's rows per source task: 8 tasks, each with its own key.
        monkeypatch.setattr(scheduler, "TARGET_PARTITION_ROWS", 5)
        engine = make_engine()
        cluster = PrestoClusterSim(
            workers=4, clock=SimulatedClock(), affinity_scheduling=True
        )
        for _ in range(3):
            cluster.submit_handle(engine.submit("SELECT sum(v) FROM events"))
            cluster.run_until_idle()
        # The split data keys repeat across queries, so repeat scans hit
        # the preferred workers' caches.
        assert sum(w.cache_hits for w in cluster.workers.values()) >= 8

    def test_graceful_shutdown_drains_engine_tasks(self):
        engine = make_engine()
        cluster = PrestoClusterSim(workers=2, clock=SimulatedClock())
        execution = cluster.submit_handle(
            engine.submit("SELECT k, count(*) FROM events GROUP BY k")
        )
        victim = next(iter(cluster.workers))
        cluster.request_graceful_shutdown(victim, grace_period_ms=1.0)
        cluster.run_until_idle()
        assert execution.finished_at is not None
        from repro.execution.cluster import WorkerState

        assert cluster.workers[victim].state is WorkerState.SHUT_DOWN

    def test_gateway_routes_sql_to_cluster(self):
        engine = make_engine()
        gateway = PrestoGateway()
        adhoc = PrestoClusterSim(workers=2, clock=SimulatedClock(), name="adhoc")
        gateway.register_cluster(adhoc)
        gateway.routing.set_default("adhoc")
        submission = gateway.submit_sql("alice", engine, "SELECT count(*) FROM events")
        gateway.run_until_idle()
        assert submission.handle.result().rows == [(40,)]
        assert submission.execution.finished_at is not None
        assert submission.execution.query_id.startswith("adhoc-")


class TestStableAffinityHash:
    def test_preferred_worker_is_hashseed_independent(self):
        # crc32, not hash(): the preferred worker for a data key must not
        # change across interpreter runs (PYTHONHASHSEED).
        assert stable_hash("warehouse/part-0.parquet") == 953814315
        assert stable_hash(b"abc") == 891568578

    def test_affinity_placement_matches_consistent_hash_ring(self):
        cluster = PrestoClusterSim(
            workers=4, slots_per_worker=4, clock=SimulatedClock(), affinity_scheduling=True
        )
        key = "events-split-3"
        cluster.submit_query([5.0], split_keys=[key])
        cluster.run_until_idle()
        # Placement matches an independently built ring over the same
        # membership — pure CRC32, so stable across interpreter runs.
        expected = ConsistentHashRing(sorted(cluster.workers)).lookup(key)
        assert cluster.workers[expected].completed_splits == 1
