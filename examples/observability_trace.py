"""Observability: dump a TPC-H query's span tree and the metrics registry.

Every query the engine runs produces a deterministic span tree
(`QueryResult.trace`) stamped from the simulated clock — gateway/cluster
hops, stages, task attempts, operators, exchanges, cache and storage
accesses — and every component reports into one labeled metrics registry
(`engine.metrics`).  This example runs a TPC-H-style aggregation, prints
the critical path, and dumps both as JSON (the same payloads
``python -m repro --trace --metrics`` emits).

Run:  python examples/observability_trace.py
"""

from repro import MemoryConnector, PrestoEngine, Session
from repro.workloads.tpch import LINEITEM_COLUMNS, generate_lineitem

TPCH_Q1 = (
    "SELECT returnflag, linestatus, sum(quantity) AS sum_qty, "
    "avg(extendedprice) AS avg_price, count(*) AS count_order "
    "FROM lineitem GROUP BY returnflag, linestatus "
    "ORDER BY returnflag, linestatus"
)


def main() -> None:
    connector = MemoryConnector(split_size=50)
    connector.create_table("tpch", "lineitem", LINEITEM_COLUMNS, generate_lineitem(500))
    engine = PrestoEngine(session=Session(catalog="memory", schema="tpch"))
    engine.register_connector("memory", connector)

    result = engine.execute(TPCH_Q1)
    print("-- rows --")
    for row in result.rows:
        print(row)

    trace = result.trace
    stats = result.stats
    print("\n-- span tree summary --")
    print(f"spans: {len(trace.spans)}  simulated: {stats.simulated_ms:.2f} ms")
    for name in ("query", "stage", "task", "attempt", "operator", "exchange", "split"):
        print(f"  {name:>8}: {len(trace.find(name))}")

    print("\n-- critical path (sums exactly to the simulated time) --")
    query_span = trace.find("query")[-1]
    for entry in trace.critical_path(query_span):
        attrs = ", ".join(f"{k}={v}" for k, v in sorted(entry.span.attributes.items()))
        print(f"  {entry.span.name} [{attrs}]: {entry.contribution_ms:.2f} ms")

    print("\n-- trace JSON (first lines; byte-identical across runs) --")
    print("\n".join(trace.to_json(indent=2).splitlines()[:14]))

    print("\n-- metrics snapshot (one query on a fresh engine: totals == its QueryStats) --")
    metrics = engine.metrics
    print(f"tasks run:      {metrics.total('scheduler_tasks_run_total')}"
          f"  (stats.tasks_total = {stats.tasks_total})")
    print(f"rows exchanged: {metrics.total('exchange_rows_total')}"
          f"  (stats.rows_exchanged = {stats.rows_exchanged})")
    print("\n".join(metrics.to_json(indent=2).splitlines()[:16]))


if __name__ == "__main__":
    main()
