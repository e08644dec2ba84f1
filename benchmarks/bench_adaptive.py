"""Adaptive execution: statistics-fed join ordering + runtime dynamic filters.

The paper's production optimizer is rule-based — "ignoring statistics"
(section XII.A) — because metastore statistics could not be kept fresh.
This bench measures what the adaptive counterpoint buys on a warehouse-
shaped join: a large sorted-key hive fact table probed through a small
selective dimension, with the SQL deliberately written so the naive plan
hashes the *fact* side.

Three configs run the same queries and must return identical rows:

1. **off**      — no statistics, no dynamic filters; the plan is exactly
                  what the rule-based pipeline builds.
2. **cbo**      — ANALYZE statistics feed cost-based join reordering and
                  broadcast selection; dynamic filters stay off.
3. **cbo+df**   — the full adaptive stack: reordering plus runtime dynamic
                  filters (split, row-group, and row tiers).

Every config sizes its hash stages from the rows they observed; that is
the scheduler's one rule, not a lane.

Full-mode gates: the dynamic filter must skip >= 50% of probe-side row
groups and the full stack must beat config (1) by >= 2x simulated time;
in every mode a repeat run must reproduce rows and stats exactly.

All times are simulated milliseconds; results are deterministic per seed.
"""

from __future__ import annotations

from _harness import SIMULATED, gate, run_script
from repro.connectors.hive import HiveConnector, write_hive_partition
from repro.connectors.memory import MemoryConnector
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.metastore.metastore import HiveMetastore
from repro.planner.analyzer import Session
from repro.storage.hdfs import HdfsFileSystem

OUTPUT = "BENCH_adaptive.json"


def make_environment(rows_per_partition: int, row_group_size: int, **engine_kwargs):
    """Sorted-key hive fact table + small memory dimension tables."""
    metastore = HiveMetastore()
    fs = HdfsFileSystem()
    metastore.create_table(
        "wh",
        "fact",
        [("sk", BIGINT), ("v", DOUBLE)],
        partition_keys=[("region", VARCHAR)],
    )
    for index, region in enumerate(["east", "west"]):
        start = index * rows_per_partition
        rows = [(start + i, float(start + i)) for i in range(rows_per_partition)]
        write_hive_partition(
            metastore,
            fs,
            "wh",
            "fact",
            [region],
            [Page.from_rows([BIGINT, DOUBLE], rows)],
            files=2,
            row_group_size=row_group_size,
        )
    hive = HiveConnector(metastore, fs, reader="new")

    # The dimension selects a narrow slice of the fact key space, so the
    # dynamic filter's [min, max] range kills most sorted row groups.
    dim_keys = range(rows_per_partition // 4, rows_per_partition // 4 + 64)
    memory = MemoryConnector()
    memory.create_table(
        "db",
        "dim",
        [("k", BIGINT), ("bucket", VARCHAR)],
        [(k, f"b{k % 4}") for k in dim_keys],
    )
    engine = PrestoEngine(
        session=Session(catalog="hive", schema="wh"),
        hash_partitions=8,
        **engine_kwargs,
    )
    engine.register_connector("hive", hive)
    engine.register_connector("memory", memory)
    return engine


# SQL order puts the fact table on the right: the rule-based plan builds
# its hash table over the fact side.  CBO (once ANALYZE ran) flips it.
QUERIES = [
    "SELECT count(*), sum(f.v) FROM memory.db.dim d "
    "JOIN fact f ON f.sk = d.k",
    "SELECT d.bucket, count(*), sum(f.v) FROM memory.db.dim d "
    "JOIN fact f ON f.sk = d.k GROUP BY d.bucket",
]

CONFIGS = [
    ("off", {"enable_dynamic_filtering": False}, False),
    ("cbo", {"enable_dynamic_filtering": False}, True),
    ("cbo+df", {}, True),
]


def run_config(name, engine_kwargs, analyzed, rows_per_partition, row_group_size):
    engine = make_environment(rows_per_partition, row_group_size, **engine_kwargs)
    if analyzed:
        engine.execute("ANALYZE TABLE fact")
        engine.execute("ANALYZE TABLE memory.db.dim")
    entry = {
        "name": name,
        "simulated_ms": 0.0,
        "rows_scanned": 0,
        "rows_exchanged": 0,
        "tasks_total": 0,
        "row_groups_total": 0,
        "row_groups_skipped_by_dynamic_filter": 0,
        "dynamic_filter_rows_pruned": 0,
    }
    rows = []
    for sql in QUERIES:
        result = engine.execute(sql)
        rows.append(sorted(result.rows))
        stats = result.stats
        entry["simulated_ms"] += stats.simulated_ms
        for field in (
            "rows_scanned",
            "rows_exchanged",
            "tasks_total",
            "row_groups_total",
            "row_groups_skipped_by_dynamic_filter",
            "dynamic_filter_rows_pruned",
        ):
            entry[field] += getattr(stats, field)
    entry["simulated_ms"] = round(entry["simulated_ms"], 4)
    total = entry["row_groups_total"]
    entry["row_group_skip_fraction"] = round(
        entry["row_groups_skipped_by_dynamic_filter"] / total, 4
    ) if total else 0.0
    entry["query_sets_per_sim_sec"] = round(1000.0 / entry["simulated_ms"], 3)
    return entry, rows


def run(smoke: bool) -> dict:
    rows_per_partition = 500 if smoke else 4_000
    row_group_size = 50 if smoke else 100
    report = {"benchmark": "adaptive", "smoke": smoke, "benchmarks": []}
    results_by_config = {}
    for name, engine_kwargs, analyzed in CONFIGS:
        entry, rows = run_config(
            name, engine_kwargs, analyzed, rows_per_partition, row_group_size
        )
        report["benchmarks"].append(entry)
        results_by_config[name] = rows

    # Every config must return identical rows — adaptivity is a pure
    # performance layer, never a semantic one.
    baseline_rows = results_by_config["off"]
    for name, rows in results_by_config.items():
        assert rows == baseline_rows, f"config {name!r} changed query results"

    # Determinism: an identical rerun reproduces rows and every counter.
    name, engine_kwargs, analyzed = CONFIGS[-1]
    repeat_entry, repeat_rows = run_config(
        name, engine_kwargs, analyzed, rows_per_partition, row_group_size
    )
    assert repeat_rows == results_by_config[name], "rerun changed rows"
    assert repeat_entry == report["benchmarks"][-1], "rerun changed stats"
    report["determinism"] = "rerun reproduced rows and stats exactly"
    return report


def gates(report: dict) -> list:
    if report["smoke"]:
        return []
    by_name = {e["name"]: e for e in report["benchmarks"]}
    off, full = by_name["off"], by_name["cbo+df"]
    return [
        gate("dynamic filter skips at least half of the probe-side row groups",
             SIMULATED, full["row_group_skip_fraction"], ">=", 0.5),
        gate("full adaptive stack vs rule-based plan, simulated time",
             SIMULATED, round(off["simulated_ms"] / full["simulated_ms"], 3), ">=", 2.0),
    ]


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
