"""Streaming lakehouse: Kafka → exactly-once pipeline → hybrid SQL, with
the Spark fallback for oversized joins.

Combines the paper's newer surfaces end to end: the ingestion pipeline
tails a Kafka topic into the hybrid table's in-memory tail, the compactor
seals the tail into Iceberg snapshots whose metadata carries the offset
watermark (so every record is visible exactly once — never from both the
tail and the lake), hybrid queries union the two at a consistent
watermark with time travel to any earlier cut, a materialized view
answers aggregates straight from its incrementally-refreshed state, and
a join too big for Presto's memory limit automatically translates to the
batch engine (section XII.C).

Run:  python examples/realtime_lakehouse.py
"""

from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.realtime import StreamingLakehouse, ViewAggregate, watermark_table_name
from repro.spark import BatchSqlEngine, FallbackQueryRunner


def main() -> None:
    lakehouse = StreamingLakehouse(
        fields=[("order_id", BIGINT), ("city", VARCHAR), ("amount", DOUBLE)],
        topic="order_events",
        poll_interval_ms=250,
        compaction_interval_ms=5_000,
    )
    view = lakehouse.create_materialized_view(
        "city_revenue",
        ["city"],
        [ViewAggregate("count", None, "orders"), ViewAggregate("sum", "amount", "revenue")],
    )

    print("-- produce, ingest, and compact on the simulated clock --")
    # One batch per call: the broker lays each out as a page per partition.
    lakehouse.produce(
        [(i, f"city{i % 3}", float(i)) for i in range(40)],
        timestamps_ms=[i * 500 for i in range(40)],
    )
    lakehouse.pipeline.run_for(12_000)  # several polls, two compaction cycles
    lakehouse.produce(
        [(i, f"city{i % 3}", float(i)) for i in range(40, 52)],
        timestamps_ms=[20_000 + i for i in range(40, 52)],
    )
    lakehouse.pipeline.run_for(300)  # ingested into the tail, not yet sealed

    table = lakehouse.table
    print(
        f"  committed watermark {table.committed.encode()}: "
        f"{table.sealed_watermark().total()} rows sealed in "
        f"{len(lakehouse.lake.current_snapshot().files)} lake files, "
        f"{table.tail_row_count()} still in the tail"
    )

    engine = lakehouse.make_engine()
    print("\n-- one hybrid query spans the lake and the live tail --")
    fresh = engine.execute(
        "SELECT count(*), max(order_id), sum(amount) FROM order_events"
    )
    print(f"  count/max/sum over all 52 events: {fresh.rows[0]}")

    print("\n-- time travel: pin the read to the sealed watermark --")
    sealed_name = watermark_table_name("order_events", table.sealed_watermark())
    sealed = engine.execute(f'SELECT count(*) FROM "{sealed_name}"')
    print(
        f"  at watermark {table.sealed_watermark().encode()} the table had "
        f"{sealed.rows[0][0]} rows (lake only, no tail)"
    )

    print("\n-- the materialized view answers the aggregate directly --")
    view.refresh()
    pinned = watermark_table_name("order_events", view.watermark)
    sql = f'SELECT city, count(*), sum(amount) FROM "{pinned}" GROUP BY city ORDER BY city'
    plan = "\n".join(row[0] for row in engine.execute("EXPLAIN " + sql).rows)
    answered_by = "city_revenue" if "city_revenue" in plan else "base table"
    for city, orders, revenue in engine.execute(sql).rows:
        print(f"  {city}: {orders} orders, {revenue:.1f} revenue  [from {answered_by}]")

    print("\n-- a join too big for Presto falls back to the batch engine --")
    engine.max_build_rows = 10  # tiny memory budget to force the failure
    runner = FallbackQueryRunner(engine, BatchSqlEngine(engine.catalog, engine.session))
    routed = runner.execute(
        "SELECT count(*) FROM lake.lake.order_events a "
        "JOIN lake.lake.order_events b ON a.city = b.city"
    )
    print(
        f"  served by {routed.engine!r}: {routed.result.rows[0][0]} joined rows "
        f"(fallbacks so far: {runner.fallbacks})"
    )


if __name__ == "__main__":
    main()
