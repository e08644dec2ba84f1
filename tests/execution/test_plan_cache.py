"""The engine plans a query text once and reuses the plan while nothing it
depends on moves: the session's namespace and properties, the catalog's
registrations and every connector's ``plan_version()``.

Each invalidation test runs a text until its plan is cached, changes one
cause, and checks that the plan the next run gets (its stages' text) and
its rows are what an engine that never saw the text produces.
"""

import copy
import gc

import pytest

from repro.common.errors import SemanticError
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution import engine as engine_module
from repro.execution.cluster import PrestoClusterSim
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from repro.planner.plan import JoinNode
from repro.realtime import StreamingLakehouse
from repro.workloads.traffic_storm import build_traffic_storm
from tests.execution.test_cluster_timeline_golden import replay_storm  # noqa: F401 (a fixture)
from tests.execution.test_fragment_result_cache_integration import _hive_connector
from tests.obs.helpers import assert_cache_metrics_reconcile

THREE_WAY = (
    "SELECT count(*), sum(b.v) FROM small s "
    "JOIN mid m ON s.k = m.k JOIN big b ON m.k = b.k"
)
GROUPED = "SELECT k, count(*), sum(v) FROM big GROUP BY k ORDER BY k"


def memory_connector(value_column="v"):
    connector = MemoryConnector(split_size=100)
    connector.create_table(
        "db", "big", [("k", BIGINT), (value_column, BIGINT)], [(i % 40, i) for i in range(1000)]
    )
    connector.create_table(
        "db", "mid", [("k", BIGINT), ("label", VARCHAR)], [(i, f"m{i}") for i in range(100)]
    )
    connector.create_table("db", "small", [("k", BIGINT)], [(i,) for i in range(10)])
    return connector


def make_engine():
    connector = memory_connector()
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    return engine, connector


def hits(engine) -> float:
    return engine.metrics.total("cache_hits_total", cache="plan")


def misses(engine) -> float:
    return engine.metrics.total("cache_misses_total", cache="plan")


def run(engine, sql):
    """The stages a run of ``sql`` executes (as EXPLAIN prints them) and its rows."""
    handle = engine.submit(sql)
    return handle._machine.fragmented.describe(), handle.run_to_completion().rows


def fresh_twin(engine):
    """An engine over the same catalog that has planned nothing yet."""
    return PrestoEngine(catalog=engine.catalog, session=copy.deepcopy(engine.session))


def run_like_a_fresh_engine(engine, sql):
    text, rows = run(engine, sql)
    fresh = fresh_twin(engine)
    assert text == fresh.explain_distributed(sql)
    assert rows == fresh.execute(sql).rows
    return text, rows


class TestReuse:
    def test_a_repeated_text_is_planned_once(self):
        engine, _ = make_engine()
        first = engine.submit(GROUPED)
        second = engine.submit(GROUPED)
        assert second._machine.fragmented is first._machine.fragmented
        assert (hits(engine), misses(engine)) == (1, 1)
        assert first.run_to_completion().rows == second.run_to_completion().rows

    def test_execute_submit_and_direct_share_one_entry(self):
        engine, _ = make_engine()
        staged = engine.execute(GROUPED).rows
        assert engine.execute_direct(GROUPED).rows == staged
        assert engine.submit(GROUPED).run_to_completion().rows == staged
        assert (hits(engine), misses(engine)) == (2, 1)
        assert len(engine._plans) == 1

    def test_the_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(engine_module, "PLAN_CACHE_SIZE", 4)
        engine, _ = make_engine()
        for n in range(7):
            engine.execute(f"SELECT {n} FROM small LIMIT 1")
        assert len(engine._plans) == 4
        assert engine._plans.stats.evictions == 3
        engine.execute("SELECT 6 FROM small LIMIT 1")
        engine.execute("SELECT 0 FROM small LIMIT 1")
        assert (hits(engine), misses(engine)) == (1, 8)

    def test_series_reconcile_with_the_cache_counters(self):
        engine, _ = make_engine()
        for sql in [GROUPED, THREE_WAY, GROUPED, "SHOW TABLES", "EXPLAIN " + GROUPED]:
            engine.execute(sql)
        engine.execute_direct(THREE_WAY)
        assert_cache_metrics_reconcile(engine.metrics, "plan", engine._plans.stats)
        # Metadata statements and EXPLAIN look up and miss; only queries are kept.
        assert (hits(engine), misses(engine), len(engine._plans)) == (2, 4, 2)

    @pytest.mark.parametrize("engine_kind", ["memory", "hive"])
    def test_a_query_leaves_nothing_for_the_cyclic_collector(self, engine_kind):
        """New texts and plan-cache hits free every object they make by
        reference counting: no plan, trace or closure waits for the
        cyclic collector."""
        from repro.cli import build_demo_engine

        texts = {
            "memory": [
                GROUPED,
                THREE_WAY,
                "SELECT k, label FROM mid WHERE k > 3 ORDER BY k LIMIT 5",
                "SELECT count(DISTINCT k) FROM big WHERE v % 3 = 0",
            ],
            "hive": [
                "SELECT base.city_id, count(*) FROM trips WHERE base.city_id = 12 GROUP BY 1",
                "SELECT fare_usd FROM trips WHERE fare_usd > 10 ORDER BY 1 DESC LIMIT 3",
            ],
        }[engine_kind]

        def build():
            return make_engine()[0] if engine_kind == "memory" else build_demo_engine()

        warm = build()
        for sql in texts:  # first-use imports are not a query's garbage
            warm.execute(sql)
        engine = build()
        gc.collect()
        gc.disable()
        try:
            for sql in texts + texts:
                engine.execute(sql)
                assert gc.collect() == 0, sql
        finally:
            gc.enable()
        if engine_kind == "memory":
            assert (hits(engine), misses(engine)) == (len(texts), len(texts))


class TestInvalidation:
    def test_analyze(self):
        engine, _ = make_engine()
        unanalyzed, _ = run_like_a_fresh_engine(engine, THREE_WAY)
        run(engine, THREE_WAY)
        assert hits(engine) == 1
        for table in ("big", "mid", "small"):
            engine.execute(f"ANALYZE TABLE {table}")
        analyzed, _ = run_like_a_fresh_engine(engine, THREE_WAY)
        assert analyzed != unanalyzed  # the CBO reordered the joins
        assert hits(engine) == 1

    def test_insert_makes_statistics_stale(self):
        engine, connector = make_engine()
        for table in ("big", "mid", "small"):
            engine.execute(f"ANALYZE TABLE {table}")
        analyzed, rows = run_like_a_fresh_engine(engine, THREE_WAY)
        assert run(engine, THREE_WAY) == (analyzed, rows)
        connector.insert("db", "big", [(1, 5000)])
        stale, new_rows = run_like_a_fresh_engine(engine, THREE_WAY)
        assert stale != analyzed  # big's statistics are dropped: no reorder
        assert new_rows != rows

    def test_create_table_replacing_column_types(self):
        engine, connector = make_engine()
        sql = "SELECT k, count(*) FROM small GROUP BY k ORDER BY k"
        run(engine, sql)
        run(engine, sql)
        connector.create_table(
            "db", "small", [("k", VARCHAR)], [(f"s{i % 2}",) for i in range(10)]
        )
        _, rows = run_like_a_fresh_engine(engine, sql)
        assert rows == [("s0", 5), ("s1", 5)]

    def test_join_distribution_type_session_property(self):
        engine, _ = make_engine()
        sql = "SELECT count(*) FROM small a JOIN small b ON a.k = b.k"

        def distribution():
            handle = engine.submit(sql)
            joins = [n for n in handle._plan.walk() if isinstance(n, JoinNode)]
            handle.run_to_completion()
            return joins[0].distribution

        assert distribution() == "partitioned"
        engine.session.properties["join_distribution_type"] = "broadcast"
        assert distribution() == "broadcast"
        run_like_a_fresh_engine(engine, sql)
        del engine.session.properties["join_distribution_type"]
        assert distribution() == "partitioned"
        # The two property sets keep their own entries.
        assert (hits(engine), misses(engine)) == (2, 2)

    def test_register_connector(self):
        engine, original = make_engine()
        _, rows = run_like_a_fresh_engine(engine, GROUPED)
        # Built by the same three calls, so it answers the same
        # plan_version(): only the registration tells the two apart.
        replacement = memory_connector(value_column="w")
        assert replacement.plan_version() == original.plan_version()
        engine.register_connector("memory", replacement)
        for planned in (engine, fresh_twin(engine)):
            with pytest.raises(SemanticError, match="'v'"):
                planned.execute(GROUPED)
        engine.register_connector("memory", original)
        assert run_like_a_fresh_engine(engine, GROUPED)[1] == rows
        assert hits(engine) == 0


class TestNeverCached:
    """A connector whose ``plan_version()`` is ``None`` turns the cache off
    for the whole engine: no lookup, so no hit and no miss."""

    def test_an_engine_with_a_hive_catalog(self):
        engine, _ = make_engine()
        catalog, _, hive = _hive_connector()
        engine.register_connector(catalog, hive)
        for _ in range(3):
            assert engine.execute(GROUPED).rows == engine.execute_direct(GROUPED).rows
            assert engine.execute("SELECT count(*), sum(v) FROM hive.db.t").rows == [(10, 45.0)]
        assert (hits(engine), misses(engine), len(engine._plans)) == (0, 0, 0)

    def test_a_hybrid_table_across_a_watermark_advance(self):
        lakehouse = StreamingLakehouse(
            fields=[("v", DOUBLE)], topic="t", poll_interval_ms=100, compaction_interval_ms=400
        )
        engine = lakehouse.make_engine()
        engine.register_connector("memory", memory_connector())
        sql = "SELECT count(*), sum(v) FROM t"
        seen = []
        for wave in range(3):
            for i in range(4):
                lakehouse.produce((float(wave * 4 + i),))
            lakehouse.pipeline.run_for(1000)
            seen.append(engine.execute(sql).rows)
            engine.execute(sql)
        assert seen == [[(4, 6.0)], [(8, 28.0)], [(12, 66.0)]]
        assert (hits(engine), misses(engine)) == (0, 0)


class TestSharing:
    def test_a_failing_statement_fails_every_time_and_leaves_no_entry(self):
        engine, _ = make_engine()
        for _ in range(3):
            with pytest.raises(SemanticError):
                engine.execute("SELECT nosuch FROM big")
        assert len(engine._plans) == 0
        assert (hits(engine), misses(engine)) == (0, 3)

    def test_runs_leave_the_shared_plan_as_it_was(self):
        engine, _ = make_engine()
        first = engine.submit(THREE_WAY)
        fragmented = first._machine.fragmented
        text, pretty = fragmented.describe(), first._plan.pretty()
        expected = first.run_to_completion().rows
        assert engine.execute(THREE_WAY).rows == expected
        assert engine.execute_direct(THREE_WAY).rows == expected

        cluster = PrestoClusterSim(workers=2, slots_per_worker=2)
        cluster.resource_group("g", max_running=3)
        handles = [engine.submit(THREE_WAY) for _ in range(4)]
        for handle in handles:
            cluster.submit_handle(handle, resource_group="g")
        cluster.run_until_idle()
        assert cluster.max_concurrent_running() > 1
        assert [h.result().rows for h in handles] == [expected] * 4

        again = engine.submit(THREE_WAY)
        assert again._machine.fragmented is fragmented
        assert (fragmented.describe(), again._plan.pretty()) == (text, pretty)

    def test_a_storm_replays_as_it_does_without_the_cache(self, replay_storm, monkeypatch):
        storm = build_traffic_storm(queries=40, users=6, seed=11)

        def replay():
            report, cluster = replay_storm(storm, 4, 120)
            runs = [
                (
                    record.state,
                    record.handle.state == "finished" and record.handle.result().rows,
                    record.handle.stats.as_dict(),
                )
                for record in cluster.queries.values()
            ]
            return report, runs, cluster.timeline_trace().to_json(), cluster.metrics

        report, runs, timeline, metrics = replay()
        templates = len({query.template for query in storm.queries})
        assert metrics.total("cache_hits_total", cache="plan") == len(storm) - templates

        monkeypatch.setattr(MemoryConnector, "plan_version", lambda self: None)
        uncached = replay()
        assert uncached[3].total("cache_hits_total", cache="plan") == 0
        assert (report, runs, timeline) == uncached[:3]
