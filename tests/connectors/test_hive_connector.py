"""End-to-end tests for the Hive connector: SQL over Parquet on HDFS."""

import pytest

from repro.cache.file_list_cache import FileListCache
from repro.cache.footer_cache import FileHandleAndFooterCache
from repro.connectors.hive import HiveConnector, write_hive_partition
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, RowType, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.formats.parquet.options import ReaderOptions
from repro.metastore.metastore import HiveMetastore
from repro.planner.analyzer import Session
from repro.storage.hdfs import HdfsFileSystem

BASE_TYPE = RowType.of(
    ("city_id", BIGINT), ("driver_uuid", VARCHAR), ("status", VARCHAR)
)


def make_environment(reader="new", reader_options=None, caches=False, data_cache=None):
    metastore = HiveMetastore()
    fs = HdfsFileSystem()
    metastore.create_table(
        "rawdata",
        "trips",
        [("base", BASE_TYPE), ("fare", DOUBLE)],
        partition_keys=[("datestr", VARCHAR)],
    )
    for date, start in [("2017-03-02", 0), ("2017-03-03", 100)]:
        rows = [
            (
                {
                    "city_id": (start + i) % 20,
                    "driver_uuid": f"driver-{start + i}",
                    "status": "completed" if i % 4 else "cancelled",
                },
                float(start + i),
            )
            for i in range(100)
        ]
        write_hive_partition(
            metastore,
            fs,
            "rawdata",
            "trips",
            [date],
            [Page.from_rows([BASE_TYPE, DOUBLE], rows)],
            files=2,
            row_group_size=25,
        )
    connector = HiveConnector(
        metastore,
        fs,
        reader=reader,
        reader_options=reader_options,
        file_list_cache=FileListCache(fs) if caches else None,
        footer_cache=FileHandleAndFooterCache(fs) if caches else None,
        data_cache=data_cache,
    )
    engine = PrestoEngine(session=Session(catalog="hive", schema="rawdata"))
    engine.register_connector("hive", connector)
    return engine, connector, metastore, fs


class TestHiveQueries:
    def test_full_scan_count(self):
        engine, *_ = make_environment()
        assert engine.execute("SELECT count(*) FROM trips").rows == [(200,)]

    def test_paper_query_shape(self):
        # Section V.C: SELECT base.driver_uuid ... WHERE datestr = ... AND
        # base.city_id in (12)
        engine, *_ = make_environment()
        result = engine.execute(
            "SELECT base.driver_uuid FROM trips "
            "WHERE datestr = '2017-03-02' AND base.city_id IN (12)"
        )
        assert sorted(r[0] for r in result.rows) == ["driver-12", "driver-32", "driver-52", "driver-72", "driver-92"]

    def test_partition_pruning_reduces_splits(self):
        engine, *_ = make_environment()
        full = engine.execute("SELECT count(*) FROM trips")
        pruned = engine.execute(
            "SELECT count(*) FROM trips WHERE datestr = '2017-03-02'"
        )
        assert pruned.rows == [(100,)]
        assert pruned.stats.splits_scanned < full.stats.splits_scanned

    def test_group_by_nested_field(self):
        engine, *_ = make_environment()
        result = engine.execute(
            "SELECT base.status, count(*) FROM trips GROUP BY base.status ORDER BY 1"
        )
        assert result.rows == [("cancelled", 50), ("completed", 150)]

    def test_aggregate_over_fare(self):
        engine, *_ = make_environment()
        result = engine.execute("SELECT sum(fare) FROM trips WHERE datestr = '2017-03-03'")
        assert result.rows[0][0] == sum(float(100 + i) for i in range(100))

    def test_partition_column_in_projection(self):
        engine, *_ = make_environment()
        result = engine.execute(
            "SELECT DISTINCT datestr FROM trips ORDER BY datestr"
        )
        assert result.rows == [("2017-03-02",), ("2017-03-03",)]

    def test_old_reader_same_results(self):
        new_engine, *_ = make_environment(reader="new")
        old_engine, *_ = make_environment(reader="old")
        sql = (
            "SELECT base.driver_uuid FROM trips "
            "WHERE datestr = '2017-03-02' AND base.city_id IN (12) "
            "ORDER BY base.driver_uuid"
        )
        assert new_engine.execute(sql).rows == old_engine.execute(sql).rows

    @pytest.mark.parametrize(
        "options",
        [
            ReaderOptions.all_disabled(),
            ReaderOptions(predicate_pushdown=False),
            ReaderOptions(columnar_reads=False, vectorized=False),
        ],
    )
    def test_reader_ablation_same_results(self, options):
        engine, *_ = make_environment(reader="new", reader_options=options)
        reference, *_ = make_environment(reader="new")
        sql = "SELECT base.city_id, count(*) FROM trips GROUP BY 1 ORDER BY 1"
        assert engine.execute(sql).rows == reference.execute(sql).rows


class TestHivePushdownEffects:
    def test_new_reader_scans_fewer_rows_with_predicate(self):
        engine, *_ = make_environment(reader="new")
        result = engine.execute(
            "SELECT base.driver_uuid FROM trips WHERE base.city_id = 5"
        )
        # Reader-side filtering: engine sees only matching rows.
        assert result.stats.rows_scanned < 200
        assert len(result.rows) == 10

    def test_old_reader_scans_everything(self):
        engine, *_ = make_environment(reader="old")
        result = engine.execute(
            "SELECT base.driver_uuid FROM trips WHERE base.city_id = 5"
        )
        assert result.stats.rows_scanned == 200
        assert len(result.rows) == 10


class TestHiveCaches:
    def test_file_list_cache_reduces_listfiles(self):
        engine, connector, _, fs = make_environment(caches=True)
        engine.execute("SELECT count(*) FROM trips")
        calls_after_first = fs.namenode.stats.list_files_calls
        engine.execute("SELECT count(*) FROM trips")
        engine.execute("SELECT count(*) FROM trips")
        assert fs.namenode.stats.list_files_calls == calls_after_first

    def test_footer_cache_reduces_getfileinfo(self):
        engine, connector, _, fs = make_environment(caches=True)
        engine.execute("SELECT count(*) FROM trips")
        calls_after_first = fs.namenode.stats.get_file_info_calls
        engine.execute("SELECT count(*) FROM trips")
        assert fs.namenode.stats.get_file_info_calls == calls_after_first

    def test_data_cache_serves_repeat_scans(self):
        from repro.cache.data_cache import DataCacheConfig, TieredDataCache

        cache = TieredDataCache(DataCacheConfig())
        engine, *_ = make_environment(caches=True, data_cache=cache)
        first = engine.execute("SELECT count(*) FROM trips")
        assert first.rows == [(200,)]
        misses_after_first = cache.stats.misses
        assert misses_after_first > 0
        assert cache.stats.hits == 0
        # The repeat scan reads every segment out of the data cache.
        second = engine.execute("SELECT count(*) FROM trips")
        assert second.rows == [(200,)]
        assert cache.stats.misses == misses_after_first
        assert cache.stats.hits >= misses_after_first

    def test_open_partition_stays_fresh(self):
        engine, connector, metastore, fs = make_environment(caches=True)
        # New open partition receives streaming ingestion.
        rows = [({"city_id": 1, "driver_uuid": "d", "status": "s"}, 1.0)]
        write_hive_partition(
            metastore,
            fs,
            "rawdata",
            "trips",
            ["2017-03-04"],
            [Page.from_rows([BASE_TYPE, DOUBLE], rows)],
            sealed=False,
        )
        first = engine.execute(
            "SELECT count(*) FROM trips WHERE datestr = '2017-03-04'"
        )
        assert first.rows == [(1,)]
        # Micro-batch ingestion adds another file to the open partition.
        partition = metastore.get_partition("rawdata", "trips", ["2017-03-04"])
        from repro.formats.parquet.schema import ParquetSchema
        from repro.formats.parquet.writer_native import NativeParquetWriter

        schema = ParquetSchema([("base", BASE_TYPE), ("fare", DOUBLE)])
        blob = NativeParquetWriter(schema).write_pages(
            [Page.from_rows([BASE_TYPE, DOUBLE], rows)]
        )
        fs.create(f"{partition.location}/part-99999.parquet", blob)
        second = engine.execute(
            "SELECT count(*) FROM trips WHERE datestr = '2017-03-04'"
        )
        assert second.rows == [(2,)]  # fresh data visible despite the cache


class TestSchemaEvolutionThroughHive:
    def test_added_struct_field_reads_null_on_old_files(self):
        engine, connector, metastore, fs = make_environment()
        evolved = RowType.of(
            ("city_id", BIGINT),
            ("driver_uuid", VARCHAR),
            ("status", VARCHAR),
            ("surge", DOUBLE),  # added after the files were written
        )
        metastore.update_table_columns(
            "rawdata", "trips", [("base", evolved), ("fare", DOUBLE)]
        )
        result = engine.execute(
            "SELECT base.surge FROM trips WHERE datestr = '2017-03-02' LIMIT 5"
        )
        assert all(row == (None,) for row in result.rows)

    def test_added_top_level_column_reads_null(self):
        engine, connector, metastore, fs = make_environment()
        metastore.update_table_columns(
            "rawdata",
            "trips",
            [("base", BASE_TYPE), ("fare", DOUBLE), ("tip", DOUBLE)],
        )
        result = engine.execute("SELECT tip FROM trips LIMIT 3")
        assert all(row == (None,) for row in result.rows)

    def test_filter_on_added_field_matches_nothing(self):
        engine, connector, metastore, fs = make_environment()
        evolved = RowType.of(
            ("city_id", BIGINT),
            ("driver_uuid", VARCHAR),
            ("status", VARCHAR),
            ("surge", DOUBLE),
        )
        metastore.update_table_columns(
            "rawdata", "trips", [("base", evolved), ("fare", DOUBLE)]
        )
        result = engine.execute("SELECT count(*) FROM trips WHERE base.surge > 1.0")
        assert result.rows == [(0,)]


class TestAnalyzedScanEstimate:
    def test_pushed_data_constraint_scales_the_scan_estimate(self):
        # The filter leaves the plan (it is pushed into the scan handle as a
        # serialized ``data`` constraint), so EXPLAIN's estimate has to read
        # it back: fare spans [0, 199], 200 × 50 / 199.
        engine, *_ = make_environment()
        assert engine.execute("ANALYZE TABLE trips").rows == [("hive.rawdata.trips", 200, 2)]
        text = engine.explain("SELECT fare FROM trips WHERE fare < 50")
        assert "Filter" not in text
        assert "TableScan[hive.rawdata.trips](fare) [pushed-filter] {rows: 50.25}" in text
        # The partition key has no column statistics: the default 0.25.
        text = engine.explain(
            "SELECT fare FROM trips WHERE datestr = '2017-03-02' AND fare < 50"
        )
        assert "{rows: 12.56}" in text
