"""Figure 16: Druid vs Presto-Druid connector latency.

Paper setup: 100-node Druid cluster, 100 TB of production data, a 100-node
Presto cluster, and 20 production queries (14 with predicates, 5 with
limits, 12 aggregations).  Paper result: "with predicate pushdown, limit
pushdown, and aggregation pushdown, Presto-Druid connector adds less than
15% overhead, compared with Druid query latency.  Most of the queries
complete within 1 second."

Here both sides run on the simulated Druid cluster with a shared
deterministic clock: the native path queries the cluster directly; the
connector path goes through the full engine (parse → plan → pushdown →
per-segment splits → final merge), with engine CPU time added to the
simulated latency: the host time ``lane_ratio`` reads for each side of a
query plus what the shared store clock advanced.  An ablation run
disables the pushdowns to show why they are what makes the connector
viable.
"""

from __future__ import annotations

from _harness import LANE_RATIO, WORK_COUNT, gate, geometric_mean, lane_ratio, run_script
from repro.common.clock import SimulatedClock
from repro.connectors.olap.druid import DruidConnector
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from repro.planner.optimizer import Optimizer
from repro.workloads.druid_queries import build_druid_workload

OUTPUT = "BENCH_fig16_druid_connector.json"

NODES = 100


def make_engine(workload, pushdown=True):
    engine = PrestoEngine(
        session=Session(catalog="druid", schema="druid"),
        clock=workload.cluster.clock,
    )
    engine.register_connector("druid", DruidConnector(workload.cluster))
    if not pushdown:
        engine._optimizer = Optimizer(engine.catalog, pushdown=False)
    return engine


def run_figure16(workload, repeat: int, pushdown=True) -> list[dict]:
    engine = make_engine(workload, pushdown)
    clock = workload.cluster.clock

    def simulated_ms(fn):
        """A lane that returns what the store clock advanced while it ran."""

        def lane():
            start = clock.now_ms()
            fn()
            return clock.now_ms() - start

        return lane

    rows = []
    for query in workload.queries:
        timed = lane_ratio(
            simulated_ms(lambda: engine.execute(query.sql)),
            simulated_ms(lambda: workload.cluster.query(query.native)),
            repeat,
        )
        druid_ms = timed.fast_result + timed.fast_ms
        presto_ms = timed.slow_result + timed.slow_ms
        rows.append(
            {
                "query": query.query_id,
                "druid_ms": round(druid_ms, 3),
                "presto_druid_ms": round(presto_ms, 3),
                "ratio": round(presto_ms / druid_ms, 4),
            }
        )
    return rows


def overhead_pct(rows: list[dict]) -> float:
    return round((geometric_mean([r["ratio"] for r in rows]) - 1.0) * 100.0, 2)


def run(smoke: bool) -> dict:
    segments, rows_per_segment, repeat = (4, 1_000, 1) if smoke else (16, 12_000, 3)
    workload = build_druid_workload(
        segments=segments, rows_per_segment=rows_per_segment, nodes=NODES,
        clock=SimulatedClock(),
    )
    rows = run_figure16(workload, repeat)
    # Without pushdown, raw rows stream into the engine and the connector
    # stops being competitive — the motivation for section IV.B.
    ablation = run_figure16(workload, 1, pushdown=False)
    return {
        "benchmark": "fig16_druid_connector",
        "smoke": smoke,
        "queries": rows,
        "geomean_overhead_pct": overhead_pct(rows),
        "queries_under_1s": sum(r["presto_druid_ms"] < 1000.0 for r in rows),
        "geomean_overhead_pct_without_pushdown": overhead_pct(ablation),
    }


def gates(report: dict) -> list:
    found = [
        gate("queries of the 20-query mix run down both paths", WORK_COUNT,
             len(report["queries"]), "==", 20)
    ]
    if report["smoke"]:
        return found
    # Paper shape: <15% aggregate overhead, most queries sub-second, and
    # dramatically worse than that without the pushdowns.
    return found + [
        gate("geomean connector overhead, (simulated + host) Presto-Druid / Druid - 1",
             LANE_RATIO, report["geomean_overhead_pct"] / 100.0, "<", 0.15),
        gate("queries under 1 s through the connector",
             LANE_RATIO, report["queries_under_1s"], ">=", len(report["queries"]) * 0.7),
        gate("geomean connector overhead without pushdowns",
             LANE_RATIO, report["geomean_overhead_pct_without_pushdown"] / 100.0, ">", 0.5),
    ]


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
