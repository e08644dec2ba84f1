"""Figure 17: old vs new Parquet reader on the Uber query workload.

Paper setup: 200-node Presto cluster, Uber production trips data on HDFS
in Parquet, and 21 production queries — 4 table scans (2 of them
needle-in-a-haystack), 5 group-bys, and 12 joins.  Paper result: "our new
Parquet reader consistently achieves 2X-10X speedup", with the largest
wins on needle-in-a-haystack scans; turning the reader on dropped P90
from 5 minutes to 40 seconds.

Here both readers run over the same simulated-HDFS trips table and
``lane_ratio`` times the engine per query, old reader against new.  That
the needle scans benefit most is read from a count, not a clock: the old
reader materializes every row of the files it opens and the engine
filters them, the new one hands over only the rows its pushed-down
predicate keeps (``QueryStats.rows_scanned``, exact per seed).  A second
table ablates each reader optimization to show its individual
contribution.
"""

from __future__ import annotations

from _harness import (
    LANE_RATIO, WORK_COUNT, gate, geometric_mean, lane_ratio, percentile, run_script,
)
from repro.connectors.hive import HiveConnector
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.formats.parquet.options import ReaderOptions
from repro.metastore.metastore import HiveMetastore
from repro.planner.analyzer import Session
from repro.storage.hdfs import HdfsFileSystem
from repro.workloads.trips import load_trips_table

OUTPUT = "BENCH_fig17_parquet_reader.json"

DATES = ["2017-03-01", "2017-03-02", "2017-03-03"]
NUM_CITIES = 120


def make_environment(rows_per_date: int):
    metastore = HiveMetastore()
    fs = HdfsFileSystem()
    load_trips_table(
        metastore,
        fs,
        DATES,
        rows_per_date=rows_per_date,
        files_per_partition=2,
        row_group_size=200,
        num_cities=NUM_CITIES,
    )
    # Small dimension table for the join queries.
    dimension = MemoryConnector()
    dimension.create_table(
        "dim",
        "cities",
        [("city_id", BIGINT), ("region", VARCHAR)],
        [(i, f"region{i % 7}") for i in range(1, NUM_CITIES + 1)],
    )
    return metastore, fs, dimension


def make_engine(environment, reader: str, reader_options=None):
    metastore, fs, dimension = environment
    engine = PrestoEngine(session=Session(catalog="hive", schema="rawdata"))
    engine.register_connector(
        "hive",
        HiveConnector(metastore, fs, reader=reader, reader_options=reader_options),
    )
    engine.register_connector("dim", dimension)
    return engine


TABLE = "schemaless_mezzanine_trips_rows"

# The 21-query workload: 4 scans (2 needle-in-a-haystack), 5 group-bys,
# 12 joins, matching the paper's stated mix.
QUERIES = [
    # -- 4 table scans, 2 needle-in-a-haystack ------------------------------
    ("S1 scan", f"SELECT base.driver_uuid, fare_usd FROM {TABLE} WHERE datestr = '2017-03-01'"),
    ("S2 scan", f"SELECT base.city_id, base.status FROM {TABLE}"),
    ("S3 needle", f"SELECT base.driver_uuid FROM {TABLE} WHERE base.city_id IN (12) AND datestr = '2017-03-02'"),
    ("S4 needle", f"SELECT base.client_uuid FROM {TABLE} WHERE base.status = 'fraud'"),
    # -- 5 group-bys ----------------------------------------------------------
    ("G1 group", f"SELECT base.city_id, count(*) FROM {TABLE} GROUP BY base.city_id"),
    ("G2 group", f"SELECT base.status, sum(fare_usd) FROM {TABLE} GROUP BY base.status"),
    ("G3 group", f"SELECT base.product, avg(base.distance_km) FROM {TABLE} GROUP BY base.product"),
    ("G4 group", f"SELECT datestr, count(*) FROM {TABLE} WHERE base.city_id < 30 GROUP BY datestr"),
    ("G5 group", f"SELECT base.payment_method, max(fare_usd) FROM {TABLE} GROUP BY base.payment_method"),
    # -- 12 joins ----------------------------------------------------------------
    ("J1 join", f"SELECT c.region, count(*) FROM {TABLE} t JOIN dim.dim.cities c ON t.base.city_id = c.city_id GROUP BY c.region"),
    ("J2 join", f"SELECT c.region, sum(t.fare_usd) FROM {TABLE} t JOIN dim.dim.cities c ON t.base.city_id = c.city_id GROUP BY c.region"),
    ("J3 join", f"SELECT count(*) FROM {TABLE} t JOIN dim.dim.cities c ON t.base.city_id = c.city_id WHERE t.base.status = 'completed'"),
    ("J4 join", f"SELECT c.region, avg(t.base.rating) FROM {TABLE} t JOIN dim.dim.cities c ON t.base.city_id = c.city_id GROUP BY c.region"),
    ("J5 join", f"SELECT count(*) FROM {TABLE} t JOIN dim.dim.cities c ON t.base.city_id = c.city_id WHERE c.region = 'region3'"),
    ("J6 join", f"SELECT c.region, count(*) FROM {TABLE} t JOIN dim.dim.cities c ON t.base.city_id = c.city_id WHERE t.datestr = '2017-03-01' GROUP BY c.region"),
    ("J7 join", f"SELECT count(*) FROM {TABLE} t JOIN dim.dim.cities c ON t.base.city_id = c.city_id WHERE t.base.is_pool"),
    ("J8 join", f"SELECT c.region, min(t.fare_usd) FROM {TABLE} t JOIN dim.dim.cities c ON t.base.city_id = c.city_id GROUP BY c.region"),
    ("J9 join", f"SELECT count(*) FROM {TABLE} t JOIN dim.dim.cities c ON t.base.city_id = c.city_id WHERE t.base.surge_multiplier > 1.4"),
    ("J10 join", f"SELECT c.region, count(*) FROM {TABLE} t JOIN dim.dim.cities c ON t.base.city_id = c.city_id WHERE t.base.product = 'eats' GROUP BY c.region"),
    ("J11 join", f"SELECT count(*) FROM {TABLE} t JOIN dim.dim.cities c ON t.base.city_id = c.city_id WHERE t.base.city_id IN (5, 15, 25)"),
    ("J12 join", f"SELECT c.region, sum(t.base.eta_seconds) FROM {TABLE} t JOIN dim.dim.cities c ON t.base.city_id = c.city_id GROUP BY c.region"),
]


ABLATION_CASES = [
    ("all optimizations", ReaderOptions.all_enabled()),
    ("no nested column pruning", ReaderOptions(nested_column_pruning=False)),
    ("no columnar reads", ReaderOptions(columnar_reads=False)),
    ("no predicate pushdown", ReaderOptions(predicate_pushdown=False)),
    ("no dictionary pushdown", ReaderOptions(dictionary_pushdown=False)),
    ("no lazy reads", ReaderOptions(lazy_reads=False)),
    ("no vectorized reads", ReaderOptions(vectorized=False)),
    ("none (old behaviour)", ReaderOptions.all_disabled()),
]

# A needle-in-a-haystack scan exercises every optimization at once.
ABLATION_SQL = (
    f"SELECT base.driver_uuid FROM {TABLE} "
    "WHERE base.city_id IN (12) AND datestr = '2017-03-02'"
)


def run_queries(environment, repeat: int) -> list[dict]:
    old_engine = make_engine(environment, reader="old")
    new_engine = make_engine(environment, reader="new")
    entries = []
    for name, sql in QUERIES:
        timed = lane_ratio(
            lambda: old_engine.execute(sql), lambda: new_engine.execute(sql), repeat
        )
        entries.append(
            {
                "query": name,
                "old_reader_ms": round(timed.slow_ms, 3),
                "new_reader_ms": round(timed.fast_ms, 3),
                "speedup": round(timed.ratio, 2),
                "identical": sorted(map(repr, timed.slow_result.rows))
                == sorted(map(repr, timed.fast_result.rows)),
                # Rows each reader materializes and hands to the engine.
                "old_rows_scanned": timed.slow_result.stats.rows_scanned,
                "new_rows_scanned": timed.fast_result.stats.rows_scanned,
            }
        )
    return entries


def run_ablation(environment, repeat: int) -> list[dict]:
    all_on = make_engine(environment, "new", ABLATION_CASES[0][1])
    entries = []
    for name, options in ABLATION_CASES:
        engine = make_engine(environment, "new", options)
        timed = lane_ratio(
            lambda: engine.execute(ABLATION_SQL), lambda: all_on.execute(ABLATION_SQL), repeat
        )
        entries.append(
            {
                "configuration": name,
                "ms": round(timed.slow_ms, 3),
                "slowdown_vs_all_on": round(timed.ratio, 2),
                "identical": sorted(timed.slow_result.rows) == sorted(timed.fast_result.rows),
            }
        )
    return entries


def run(smoke: bool) -> dict:
    rows_per_date, repeat = (400, 1) if smoke else (1_200, 2)
    environment = make_environment(rows_per_date)
    return {
        "benchmark": "fig17_parquet_reader",
        "smoke": smoke,
        "queries": run_queries(environment, repeat),
        "ablation": run_ablation(environment, repeat),
    }


def rows_avoided(query: dict) -> float:
    """Rows the old reader materializes per row the new reader does."""
    return query["old_rows_scanned"] / max(query["new_rows_scanned"], 1)


def gates(report: dict) -> list:
    queries, ablation = report["queries"], report["ablation"]
    needles = [q for q in queries if "needle" in q["query"]]
    found = [
        gate("queries or ablation cases whose rows differ between the lanes", WORK_COUNT,
             sum(not e["identical"] for e in queries + ablation), "==", 0),
        # Needles benefit most, read from the work avoided rather than a clock.
        gate("old / new rows scanned, best needle vs geomean of all queries", WORK_COUNT,
             max(map(rows_avoided, needles)), ">=",
             round(geometric_mean(list(map(rows_avoided, queries))), 3)),
    ]
    if report["smoke"]:
        return found
    speedups = [q["speedup"] for q in queries]
    old_p90 = percentile([q["old_reader_ms"] for q in queries], 90)
    new_p90 = percentile([q["new_reader_ms"] for q in queries], 90)
    # Paper shape: consistent speedup in the 2-10x band, P90 5 min -> 40 s.
    return found + [
        gate("geomean old / new reader", LANE_RATIO,
             round(geometric_mean(speedups), 2), ">", 2.0),
        gate("slowest old / new reader of the 21 queries", LANE_RATIO, min(speedups), ">", 1.0),
        gate("P90 old / new reader", LANE_RATIO, round(old_p90 / new_p90, 2), ">", 2.0),
        gate("every optimization off / all on, needle scan", LANE_RATIO,
             ablation[-1]["slowdown_vs_all_on"], ">", 1.0),
    ]


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
