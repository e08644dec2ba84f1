"""Streaming lakehouse: freshness vs query latency across compaction cadences.

The paper's realtime pipeline (section XI) trades data freshness against
commit churn: a short compaction interval keeps the sealed lake within
seconds of the log head and the in-memory tail near-empty, at the cost
of many small snapshots and files (the lakehouse small-file problem); a
long interval amortizes commits into few large files but leaves the
lake-only lane seconds-to-minutes stale and grows the tail's memory
residency.

This bench sweeps the compaction interval over the same deterministic
event stream (``repro.workloads.streaming_events``), produced in small
ticks interleaved with pipeline steps so ingestion is genuinely
incremental.  The produce/poll schedule is identical across
configurations, so every cadence commits the *same* watermark — only
where the rows live differs.  Per interval it reports sealed-lane
freshness lag, tail residency, snapshot/file counts, and the simulated
cost of the hybrid query set.

Every interval returns byte-identical query rows and matches the batch
oracle over the replayed log at the committed watermark, and an
identical rerun reproduces rows and stats exactly (asserted in every
mode).  Gates (full mode): sealed freshness lag and tail residency grow
monotonically with the interval and the snapshot count shrinks.

All times are simulated milliseconds; results are deterministic per seed.
"""

from __future__ import annotations

from _harness import SIMULATED, WORK_COUNT, gate, normalized, run_script
from repro.realtime import StreamingLakehouse
from repro.workloads.streaming_events import EVENT_FIELDS, produce_events
from tests.reference.lakehouse import oracle_engine
from tests.reference.pipeline import execute_direct

OUTPUT = "BENCH_lakehouse_freshness.json"

QUERIES = [
    "SELECT city, count(*), sum(amount) FROM events GROUP BY city ORDER BY city",
    "SELECT count(*) FROM events WHERE amount > 100.0",
    "SELECT max(order_id), count(*) FROM events WHERE city = 'sf'",
]


def run_interval(compaction_interval_ms, events, ticks, seed):
    lakehouse = StreamingLakehouse(
        fields=EVENT_FIELDS,
        poll_interval_ms=150,
        compaction_interval_ms=compaction_interval_ms,
    )
    per_tick = events // ticks
    produced = 0
    for tick in range(ticks):
        produce_events(
            lakehouse,
            per_tick,
            seed=seed,
            events_per_second=250.0,
            start_ms=int(lakehouse.clock.now_ms()),
            start_id=produced,
        )
        produced += per_tick
        lakehouse.pipeline.run_for(200)

    table = lakehouse.table
    engine = lakehouse.make_engine()
    entry = {
        "name": f"compact_{int(compaction_interval_ms)}ms",
        "compaction_interval_ms": compaction_interval_ms,
        "rows_committed": table.committed.total(),
        "rows_sealed": table.sealed_watermark().total(),
        "tail_rows": table.tail_row_count(),
        "snapshots_committed": lakehouse.compactor.snapshots_committed,
        "lake_files": len(lakehouse.lake.current_snapshot().files),
        # Sealed-lane freshness: how far a lake-only reader trails the
        # newest committed event, in simulated ms.
        "sealed_freshness_lag_ms": round(
            table.max_committed_timestamp_ms - table.sealed_max_timestamp_ms(), 3
        ),
        "query_set_sim_ms": 0.0,
    }
    rows = []
    for sql in QUERIES:
        result = engine.execute(sql)
        rows.append(normalized(result.rows))
        entry["query_set_sim_ms"] += result.stats.simulated_ms
    entry["query_set_sim_ms"] = round(entry["query_set_sim_ms"], 4)
    entry["query_sets_per_sim_sec"] = round(1000.0 / entry["query_set_sim_ms"], 3)

    # Differential gate: the hybrid answer must equal a batch engine over
    # the fully replayed log cut at the same watermark.
    oracle = oracle_engine(lakehouse.broker, lakehouse.topic, table.committed)
    for sql, got in zip(QUERIES, rows):
        expected = normalized(execute_direct(oracle, sql).rows)
        assert got == expected, f"hybrid != oracle for {sql!r}"

    assert entry["rows_committed"] == produced, "pipeline lost events"
    return entry, rows


def run(smoke: bool) -> dict:
    intervals = [500.0, 2_000.0] if smoke else [500.0, 2_000.0, 8_000.0]
    events = 300 if smoke else 3_000
    ticks = 12 if smoke else 60
    report = {"benchmark": "lakehouse_freshness", "smoke": smoke, "benchmarks": []}
    rows_by_interval = {}
    for interval in intervals:
        entry, rows = run_interval(interval, events, ticks, seed=7)
        report["benchmarks"].append(entry)
        rows_by_interval[interval] = rows

    # Same log, same polls → every cadence answers identically.
    baseline_rows = rows_by_interval[intervals[0]]
    for interval, rows in rows_by_interval.items():
        assert rows == baseline_rows, (
            f"compaction interval {interval} changed query results"
        )

    repeat_entry, repeat_rows = run_interval(intervals[-1], events, ticks, seed=7)
    assert repeat_rows == rows_by_interval[intervals[-1]], "rerun changed rows"
    assert repeat_entry == report["benchmarks"][-1], "rerun changed stats"
    report["determinism"] = "rerun reproduced rows and stats exactly"
    return report


def gates(report: dict) -> list:
    entries = report["benchmarks"]
    found = [
        gate("cadences whose sealed + tail rows differ from the committed rows", WORK_COUNT,
             sum(e["rows_sealed"] + e["tail_rows"] != e["rows_committed"] for e in entries),
             "==", 0)
    ]
    if report["smoke"]:
        return found
    found.append(gate("compaction intervals swept", WORK_COUNT, len(entries), ">=", 3))
    for what, key, descending in (
        ("sealed freshness lag grows", "sealed_freshness_lag_ms", False),
        ("tail residency grows", "tail_rows", False),
        ("snapshot count shrinks", "snapshots_committed", True),
    ):
        series = [e[key] for e in entries]
        found += [
            gate(f"{what} with the interval, in order",
                 SIMULATED, series, "==", sorted(series, reverse=descending)),
            gate(f"{what} with the interval, end to end",
                 SIMULATED, abs(series[-1] - series[0]), ">", 0),
        ]
    return found


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
