"""Tests for Presto-on-Spark translation and fallback (section XII.C)."""

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import InsufficientResourcesError
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from repro.spark import BatchSqlEngine, FallbackQueryRunner, QueryTranslator
from repro.spark import batch_engine
from repro.sql import parse_sql
from repro.sql.formatter import PRESTO, SPARK, format_query


def make_catalog_engine(max_build_rows=10_000_000, clock=None):
    connector = MemoryConnector()
    connector.create_table(
        "db",
        "facts",
        [("k", BIGINT), ("v", DOUBLE)],
        [(i % 50, float(i)) for i in range(2_000)],
    )
    connector.create_table(
        "db",
        "dim",
        [("k", BIGINT), ("label", VARCHAR)],
        [(i, f"label{i}") for i in range(50)],
    )
    engine = PrestoEngine(
        session=Session(catalog="memory", schema="db"),
        max_build_rows=max_build_rows,
        clock=clock,
    )
    engine.register_connector("memory", connector)
    return engine


class TestFormatter:
    def round_trip(self, sql):
        rendered = format_query(parse_sql(sql), PRESTO)
        assert parse_sql(rendered) == parse_sql(sql)
        return rendered

    def test_select_round_trip(self):
        self.round_trip("SELECT a, b AS x FROM t WHERE a > 1 ORDER BY b DESC LIMIT 3")

    def test_join_round_trip(self):
        self.round_trip(
            "SELECT count(*) FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id"
        )

    def test_aggregate_round_trip(self):
        self.round_trip(
            "SELECT k, count(DISTINCT v), sum(v) FROM t GROUP BY k HAVING count(*) > 2"
        )

    def test_predicates_round_trip(self):
        self.round_trip(
            "SELECT * FROM t WHERE a IN (1, 2) AND b NOT BETWEEN 1 AND 5 "
            "AND c LIKE 'x%' AND d IS NOT NULL AND NOT e"
        )

    def test_case_cast_round_trip(self):
        self.round_trip(
            "SELECT CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END, CAST(a AS double) FROM t"
        )

    def test_string_escaping(self):
        rendered = self.round_trip("SELECT 'it''s' FROM t")
        assert "it''s" in rendered

    def test_subquery_round_trip(self):
        self.round_trip("SELECT x FROM (SELECT a AS x FROM t WHERE a > 1) s WHERE x < 9")


class TestTranslator:
    def test_function_renames(self):
        translator = QueryTranslator()
        spark_sql = translator.translate("SELECT approx_distinct(k) FROM facts")
        assert "approx_count_distinct(k)" in spark_sql
        assert translator.translated == 1

    def test_plain_queries_pass_through(self):
        translator = QueryTranslator()
        spark_sql = translator.translate("SELECT k, sum(v) FROM facts GROUP BY k")
        assert parse_sql(spark_sql) == parse_sql("SELECT k, sum(v) FROM facts GROUP BY k")


class TestBatchEngine:
    def test_same_results_as_presto(self):
        presto = make_catalog_engine()
        batch = BatchSqlEngine(presto.catalog, presto.session)
        sql = "SELECT k, sum(v) FROM facts GROUP BY k ORDER BY k LIMIT 5"
        assert batch.execute(sql).rows == presto.execute(sql).rows

    def test_batch_is_slower_on_simulated_clock(self):
        clock = SimulatedClock()
        presto = make_catalog_engine(clock=clock)
        batch = BatchSqlEngine(presto.catalog, presto.session, clock=clock)
        sql = "SELECT count(*) FROM facts"
        start = clock.now_ms()
        presto.execute(sql)
        presto_ms = clock.now_ms() - start
        start = clock.now_ms()
        batch.execute(sql)
        batch_ms = clock.now_ms() - start
        # Section XI: batch startup/shuffle latency makes it a poor fit for
        # interactive queries.
        assert batch_ms > 3 * presto_ms

    def test_big_join_succeeds_with_spill(self, monkeypatch):
        monkeypatch.setattr(batch_engine, "MEMORY_BUDGET_ROWS", 100)
        presto = make_catalog_engine()
        batch = BatchSqlEngine(presto.catalog, presto.session)
        result = batch.execute(
            "SELECT count(*) FROM facts a JOIN facts b ON a.k = b.k"
        )
        assert result.rows[0][0] > 0
        assert batch.spilled_rows > 0  # build side exceeded memory → spill

    def test_understands_spark_function_names(self):
        presto = make_catalog_engine()
        batch = BatchSqlEngine(presto.catalog, presto.session)
        result = batch.execute("SELECT approx_count_distinct(k) FROM facts")
        assert result.rows == [(50,)]


class TestFallbackRunner:
    def test_small_query_stays_on_presto(self):
        presto = make_catalog_engine()
        batch = BatchSqlEngine(presto.catalog, presto.session)
        runner = FallbackQueryRunner(presto, batch)
        routed = runner.execute("SELECT count(*) FROM facts")
        assert routed.engine == "presto"
        assert routed.result.rows == [(2000,)]
        assert runner.fallbacks == 0

    def test_big_join_falls_back_to_spark(self):
        # Presto's memory limit makes the self-join fail; the runner
        # translates and reruns on the batch engine automatically.
        presto = make_catalog_engine(max_build_rows=500)
        with pytest.raises(InsufficientResourcesError):
            presto.execute("SELECT count(*) FROM facts a JOIN facts b ON a.k = b.k")

        batch = BatchSqlEngine(presto.catalog, presto.session)
        runner = FallbackQueryRunner(presto, batch)
        routed = runner.execute(
            "SELECT count(*) FROM facts a JOIN facts b ON a.k = b.k"
        )
        assert routed.engine == "spark"
        assert routed.result.rows[0][0] == 2_000 * 40  # 50 keys x 40x40 matches
        assert routed.translated_sql  # the translated text is surfaced
        assert runner.fallbacks == 1

    def test_fallback_result_matches_unlimited_presto(self):
        sql = "SELECT a.k, count(*) FROM facts a JOIN facts b ON a.k = b.k GROUP BY a.k"
        reference = make_catalog_engine().execute(sql)
        presto = make_catalog_engine(max_build_rows=500)
        runner = FallbackQueryRunner(
            presto, BatchSqlEngine(presto.catalog, presto.session)
        )
        routed = runner.execute(sql)
        assert routed.engine == "spark"
        assert sorted(routed.result.rows) == sorted(reference.rows)
