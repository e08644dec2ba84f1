"""Fragment result cache wired into the engine's scan path (section VII)."""

import dataclasses

import pytest

from repro.cache.fragment_result_cache import FragmentResultCache
from repro.connectors.hive import HiveConnector, write_hive_partition
from repro.connectors.memory import MemoryConnector
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.context import ExecutionContext
from repro.execution.engine import PrestoEngine
from repro.execution.operators.scan import execute_table_scan
from repro.metastore.metastore import HiveMetastore
from repro.planner.analyzer import Session
from repro.planner.plan import TableScanNode
from repro.storage.hdfs import HdfsFileSystem


def memory_engine():
    connector = MemoryConnector(split_size=5)
    connector.create_table(
        "db", "t", [("k", BIGINT), ("v", DOUBLE)], [(i % 3, float(i)) for i in range(20)]
    )
    engine = PrestoEngine(
        session=Session(catalog="memory", schema="db"),
        fragment_result_cache=FragmentResultCache(),
    )
    engine.register_connector("memory", connector)
    return engine, connector


class TestDashboardQueries:
    def test_repeat_query_served_from_cache(self):
        engine, _ = memory_engine()
        first = engine.execute("SELECT k, sum(v) FROM t GROUP BY k")
        assert first.stats.fragment_cache_hits == 0
        second = engine.execute("SELECT k, sum(v) FROM t GROUP BY k")
        assert second.stats.fragment_cache_hits == 4  # all splits cached
        assert sorted(first.rows) == sorted(second.rows)

    def test_different_query_shares_scan_fragments(self):
        engine, _ = memory_engine()
        engine.execute("SELECT k, sum(v) FROM t GROUP BY k")
        # A different aggregation over the same scan fragment (same pruned
        # columns k, v) still hits: the cache key is the scan fragment,
        # not the whole query.
        result = engine.execute("SELECT k, max(v) FROM t GROUP BY k")
        assert result.stats.fragment_cache_hits == 4

    def test_insert_invalidates_via_data_version(self):
        engine, connector = memory_engine()
        engine.execute("SELECT count(*) FROM t")
        connector.insert("db", "t", [(9, 99.0)])
        result = engine.execute("SELECT count(*) FROM t")
        assert result.rows == [(21,)]  # fresh data, no stale cache hit
        assert result.stats.fragment_cache_hits == 0

    def test_replaced_table_with_as_many_rows_is_not_served_stale(self):
        # As many rows as before: a data_version taken from the row count
        # would serve all four splits' old sums.
        engine, connector = memory_engine()
        engine.execute("SELECT k, sum(v) FROM t GROUP BY k")
        connector.create_table(
            "db", "t", [("k", BIGINT), ("v", DOUBLE)], [(i % 3, float(100 + i)) for i in range(20)]
        )
        result = engine.execute("SELECT k, sum(v) FROM t GROUP BY k")
        assert sorted(result.rows) == [(0, 763.0), (1, 770.0), (2, 657.0)]
        assert result.stats.fragment_cache_hits == 0

    def test_analyze_keeps_the_cached_pages(self):
        engine, _ = memory_engine()
        first = engine.execute("SELECT k, sum(v) FROM t GROUP BY k")
        engine.execute("ANALYZE TABLE t")
        result = engine.execute("SELECT k, sum(v) FROM t GROUP BY k")
        assert result.stats.fragment_cache_hits == 4  # statistics are not data
        assert sorted(result.rows) == sorted(first.rows)

    def test_projection_changes_miss(self):
        engine, _ = memory_engine()
        engine.execute("SELECT sum(v) FROM t")
        result = engine.execute("SELECT count(DISTINCT k) FROM t")
        # Different required columns → different fragment → miss.
        assert result.rows == [(3,)]


class TestHiveDataVersion:
    def test_rewritten_partition_not_served_stale(self):
        metastore = HiveMetastore()
        fs = HdfsFileSystem()
        metastore.create_table(
            "db", "t", [("v", DOUBLE)], partition_keys=[("ds", VARCHAR)]
        )
        write_hive_partition(
            metastore, fs, "db", "t", ["d1"],
            [Page.from_rows([DOUBLE], [(1.0,), (2.0,)])],
        )
        engine = PrestoEngine(
            session=Session(catalog="hive", schema="db"),
            fragment_result_cache=FragmentResultCache(),
        )
        engine.register_connector("hive", HiveConnector(metastore, fs))
        assert engine.execute("SELECT sum(v) FROM t").rows == [(3.0,)]

        # Rewrite the partition file with new contents and a newer mtime.
        partition = metastore.get_partition("db", "t", ["d1"])
        from repro.formats.parquet.schema import ParquetSchema
        from repro.formats.parquet.writer_native import NativeParquetWriter

        fs.clock.advance(1_000)
        blob = NativeParquetWriter(ParquetSchema([("v", DOUBLE)])).write_pages(
            [Page.from_rows([DOUBLE], [(10.0,)])]
        )
        fs.create(f"{partition.location}/part-00000.parquet", blob)
        result = engine.execute("SELECT sum(v) FROM t")
        assert result.rows == [(10.0,)]
        assert result.stats.fragment_cache_hits == 0


ROWS = [(float(i),) for i in range(10)]


def _hive_connector():
    metastore = HiveMetastore()
    fs = HdfsFileSystem()
    metastore.create_table("db", "t", [("v", DOUBLE)], partition_keys=[("ds", VARCHAR)])
    for index, rows in enumerate([ROWS[:5], ROWS[5:]]):
        write_hive_partition(
            metastore, fs, "db", "t", [f"d{index}"], [Page.from_rows([DOUBLE], rows)]
        )
    return "hive", "db", HiveConnector(metastore, fs)


def _iceberg_connector():
    from repro.connectors.lakehouse import IcebergConnector, IcebergTable

    table = IcebergTable(HdfsFileSystem(), "/lake/t", [("v", DOUBLE)])
    table.append(ROWS[:5])
    table.append(ROWS[5:])
    connector = IcebergConnector()
    connector.register_table("t", table)
    return "iceberg", "lake", connector


def _hybrid_connector():
    from repro.realtime import StreamingLakehouse

    lakehouse = StreamingLakehouse(
        fields=[("v", DOUBLE)], topic="t", poll_interval_ms=100, compaction_interval_ms=400
    )
    for wave in (ROWS[:4], ROWS[4:8]):
        lakehouse.produce(wave)
        lakehouse.pipeline.run_for(1000)  # sealed: lake splits carry a data_version
    lakehouse.produce(ROWS[8:])
    lakehouse.pipeline.run_for(150)  # tail rows ride pinned in their splits
    return "hybrid", "rt", lakehouse.connector


@pytest.mark.parametrize(
    "make_connector", [_hive_connector, _iceberg_connector, _hybrid_connector]
)
class TestPushdownsAreInTheCacheKey:
    """Two scans that differ only in what was pushed into the handle must
    not share cached pages (the key used to say just ``pushed-filter``)."""

    QUERIES = [
        "SELECT count(*), sum(v) FROM t WHERE v < 3",
        "SELECT count(*), sum(v) FROM t WHERE v < 7",
        "SELECT count(*), sum(v) FROM t WHERE v >= 2 AND v < 7",
        "SELECT count(*), sum(v) FROM t WHERE v IN (1.0, 8.0)",
        "SELECT count(*), sum(v) FROM t WHERE v IN (1.0, 9.0)",
        "SELECT count(*), sum(v) FROM t",
    ]

    def _engines(self, make_connector):
        catalog, schema, connector = make_connector()
        engines = []
        for cache in (FragmentResultCache(), None):
            engine = PrestoEngine(
                session=Session(catalog=catalog, schema=schema),
                fragment_result_cache=cache,
            )
            engine.register_connector(catalog, connector)
            engines.append(engine)
        return engines

    def test_changed_predicate_misses_and_matches_the_uncached_engine(
        self, make_connector
    ):
        cached, uncached = self._engines(make_connector)
        assert cached.execute(self.QUERIES[0]).rows == [(3, 3.0)]
        second = cached.execute(self.QUERIES[1])
        assert second.rows == [(7, 21.0)]
        assert second.stats.fragment_cache_hits == 0
        for sql in self.QUERIES * 2:
            assert cached.execute(sql).rows == uncached.execute(sql).rows, sql

    def test_each_new_predicate_misses_and_its_repeat_hits_every_split(
        self, make_connector
    ):
        cached, _ = self._engines(make_connector)
        for sql in self.QUERIES:
            first = cached.execute(sql)
            assert first.stats.fragment_cache_hits == 0, sql
            scan = next(
                n for n in cached.plan(sql).walk() if isinstance(n, TableScanNode)
            )
            splits = (
                cached.catalog.connector(scan.catalog)
                .split_manager()
                .get_splits(scan.handle)
            )
            versioned = [s for s in splits if "data_version" in s.info_dict()]
            assert len(versioned) >= 2
            repeat = cached.execute(sql)
            assert repeat.stats.fragment_cache_hits == len(versioned), sql
            assert repeat.rows == first.rows

    def test_pushed_limit_is_part_of_the_key(self, make_connector):
        # No versioned connector absorbs a limit through the optimizer, so
        # the pair is built on the handle and run through the scan operator.
        cached, _ = self._engines(make_connector)
        scan = next(
            n
            for n in cached.plan("SELECT v FROM t").walk()
            if isinstance(n, TableScanNode)
        )

        def run(limit, cache=cached.fragment_result_cache):
            ctx = ExecutionContext(catalog=cached.catalog, fragment_cache=cache)
            node = dataclasses.replace(scan, handle=scan.handle.with_limit(limit))
            rows = [r for page in execute_table_scan(node, ctx) for r in page.rows()]
            return sorted(rows), ctx.stats.fragment_cache_hits

        assert run(3) == run(3, cache=None)
        assert run(5) == run(5, cache=None)  # 0 hits: differs only in the limit
        assert run(5)[1] >= 2
