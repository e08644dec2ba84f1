"""Section VII: file list cache and file handle/footer cache.

Paper results: "With file list cache enabled for 5 of our most popular
tables, our production traffic shows overall listFile calls is reduced to
less than 40%."  "With file handle and footer cache, our production
traffic shows almost 90% of getFileInfo calls could be reduced."

The replay models production traffic: repeated queries over 5 hot tables
(sealed partitions) plus a stream of queries over open, still-ingesting
partitions that must stay cache-bypassing for freshness.
"""

from __future__ import annotations

from _harness import SIMULATED, WORK_COUNT, gate, run_script
from repro.cache.file_list_cache import FileListCache
from repro.cache.footer_cache import FileHandleAndFooterCache
from repro.connectors.hive import HiveConnector, write_hive_partition
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.formats.parquet.schema import ParquetSchema
from repro.formats.parquet.writer_native import NativeParquetWriter
from repro.metastore.metastore import HiveMetastore
from repro.planner.analyzer import Session
from repro.storage.hdfs import HdfsFileSystem

OUTPUT = "BENCH_sec7_caches.json"

HOT_TABLES = [f"hot_table_{i}" for i in range(5)]
DATES = ["2024-01-01", "2024-01-02"]
QUERIES_PER_TABLE = 20


def build_warehouse():
    metastore = HiveMetastore()
    fs = HdfsFileSystem()
    for table in HOT_TABLES:
        metastore.create_table(
            "warehouse",
            table,
            [("k", BIGINT), ("v", DOUBLE)],
            partition_keys=[("ds", VARCHAR)],
        )
        for date in DATES:
            rows = [(i, float(i)) for i in range(200)]
            write_hive_partition(
                metastore, fs, "warehouse", table, [date],
                [Page.from_rows([BIGINT, DOUBLE], rows)], files=3,
            )
        # One open partition per table receives streaming ingestion.
        write_hive_partition(
            metastore, fs, "warehouse", table, ["2024-01-03"],
            [Page.from_rows([BIGINT, DOUBLE], [(1, 1.0)])], sealed=False,
        )
    return metastore, fs


def replay(metastore, fs, use_caches: bool):
    connector = HiveConnector(
        metastore,
        fs,
        file_list_cache=FileListCache(fs) if use_caches else None,
        footer_cache=FileHandleAndFooterCache(fs) if use_caches else None,
    )
    engine = PrestoEngine(
        session=Session(catalog="hive", schema="warehouse"), clock=fs.clock
    )
    engine.register_connector("hive", connector)
    fs.namenode.stats.reset()
    start_ms = fs.clock.now_ms()
    for _ in range(QUERIES_PER_TABLE):
        for table in HOT_TABLES:
            engine.execute(f"SELECT sum(v) FROM {table} WHERE ds = '2024-01-01'")
            engine.execute(f"SELECT count(*) FROM {table}")
    elapsed_ms = fs.clock.now_ms() - start_ms
    return {
        "configuration": "file list + footer cache" if use_caches else "no caches",
        "list_files_calls": fs.namenode.stats.list_files_calls,
        "get_file_info_calls": fs.namenode.stats.get_file_info_calls,
        "simulated_ms": round(elapsed_ms, 3),
    }


def open_partition_counts() -> dict:
    """Freshness guarantee: open partitions bypass the cache every query."""
    metastore, fs = build_warehouse()
    connector = HiveConnector(
        metastore, fs,
        file_list_cache=FileListCache(fs),
        footer_cache=FileHandleAndFooterCache(fs),
    )
    engine = PrestoEngine(session=Session(catalog="hive", schema="warehouse"))
    engine.register_connector("hive", connector)
    schema = ParquetSchema([("k", BIGINT), ("v", DOUBLE)])
    counts = []
    for round_index in range(3):
        # Micro-batch ingestion appends a file to the open partition.
        partition = metastore.get_partition("warehouse", HOT_TABLES[0], ["2024-01-03"])
        blob = NativeParquetWriter(schema).write_pages(
            [Page.from_rows([BIGINT, DOUBLE], [(round_index, 1.0)])]
        )
        fs.create(f"{partition.location}/micro-{round_index}.parquet", blob)
        result = engine.execute(
            f"SELECT count(*) FROM {HOT_TABLES[0]} WHERE ds = '2024-01-03'"
        )
        counts.append(result.rows[0][0])
    return {
        "row_counts": counts,
        "cache_bypasses": connector.file_list_cache.open_partition_bypasses,
    }


def run(smoke: bool) -> dict:
    metastore, fs = build_warehouse()
    baseline = replay(metastore, fs, use_caches=False)
    cached = replay(metastore, fs, use_caches=True)
    return {
        "benchmark": "sec7_caches",
        "smoke": smoke,
        "replay": [baseline, cached],
        "list_files_ratio": round(cached["list_files_calls"] / baseline["list_files_calls"], 4),
        "get_file_info_reduction": round(
            1.0 - cached["get_file_info_calls"] / baseline["get_file_info_calls"], 4
        ),
        "open_partition": open_partition_counts(),
    }


def gates(report: dict) -> list:
    baseline, cached = report["replay"]
    fresh = report["open_partition"]
    return [
        gate("listFiles calls with caches / without", WORK_COUNT, report["list_files_ratio"], "<", 0.40),
        gate("getFileInfo calls removed by the caches", WORK_COUNT,
             report["get_file_info_reduction"], ">", 0.85),
        gate("caches shorten the simulated replay", SIMULATED,
             cached["simulated_ms"], "<", baseline["simulated_ms"]),
        # Every round sees the newly ingested file immediately.
        gate("open-partition row counts after each micro-batch", WORK_COUNT,
             fresh["row_counts"], "==", [2, 3, 4]),
        gate("file-list cache bypasses for the open partition", WORK_COUNT,
             fresh["cache_bypasses"], ">=", 3),
    ]


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
