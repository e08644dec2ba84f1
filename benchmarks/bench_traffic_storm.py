"""Traffic storm: tail latency and goodput vs serving concurrency.

Replays a deterministic zipfian multi-user storm (thousands of queries
in full mode) against one simulated cluster at several resource-group
concurrency caps, reproducing the paper's serving-layer claim: what
separates a production engine is tail latency under concurrent
multi-tenant load, not single-query speed.  Every query executes for
real through the steppable engine path — the cluster event loop
interleaves their tasks on the shared simulated clock — and queries
whose estimated queue wait breaches the admission SLO are shed with
retry-after, so *goodput* (completed queries per simulated second) is
what scales with concurrency.

All latencies are simulated milliseconds, so results are deterministic
per seed, and a full run is compared leaf for leaf with the committed file.
"""

from __future__ import annotations

from _harness import SIMULATED, WORK_COUNT, gate, percentile, run_script
from repro.common.clock import SimulatedClock
from repro.common.errors import AdmissionRejectedError
from repro.execution.cluster import PrestoClusterSim
from repro.obs.metrics import MetricsRegistry
from repro.workloads.traffic_storm import TrafficStorm, build_traffic_storm, make_storm_engine

OUTPUT = "BENCH_traffic_storm.json"

QUEUE_SLO_MS = 30_000.0


def replay_storm(
    storm: TrafficStorm,
    max_running: int,
    rows: int,
    workers: int = 8,
    slots_per_worker: int = 4,
    queue_slo_ms: float = QUEUE_SLO_MS,
    tracing: bool = False,
) -> tuple[dict, PrestoClusterSim]:
    """Replay the storm at one concurrency cap; returns (report, cluster)."""
    metrics = MetricsRegistry()
    clock = SimulatedClock()
    cluster = PrestoClusterSim(
        workers=workers,
        slots_per_worker=slots_per_worker,
        clock=clock,
        metrics=metrics,
        name=f"storm-c{max_running}",
    )
    cluster.resource_group("storm", max_running=max_running, queue_slo_ms=queue_slo_ms)
    engine = make_storm_engine(rows=rows, tracing=tracing, metrics=metrics)

    # (StormQuery, QueryHandle, QueryExecution): the record is the cluster's
    # one object for the query (cluster.queries[id]); record.handle is the handle.
    finished: list[tuple] = []
    shed: list[tuple] = []  # (StormQuery, retry_after_ms)
    failed: list[tuple] = []

    def submit(query) -> None:
        handle = engine.submit(query.sql)
        try:
            execution = cluster.submit_handle(
                handle,
                user=query.user,
                resource_group=f"storm.{query.user}",
            )
        except AdmissionRejectedError as rejection:
            shed.append((query, rejection.retry_after_ms))
            return
        finished.append((query, handle, execution))

    for query in storm.queries:
        cluster.call_at(query.arrival_ms, lambda q=query: submit(q))
    cluster.run_until_idle(max_events=10_000_000)

    completed = [(q, h, ex) for q, h, ex in finished if h.state == "finished"]
    failed = [(q, h, ex) for q, h, ex in finished if h.state != "finished"]
    latencies = [ex.latency_ms for _, _, ex in completed]
    queued = [ex.queued_ms for _, _, ex in completed]
    makespan_ms = clock.now_ms()
    report = {
        "concurrency": max_running,
        "queries": len(storm.queries),
        "completed": len(completed),
        "shed": len(shed),
        "failed": len(failed),
        "makespan_ms": round(makespan_ms, 3),
        "p50_ms": round(percentile(latencies, 50), 3),
        "p95_ms": round(percentile(latencies, 95), 3),
        "p99_ms": round(percentile(latencies, 99), 3),
        "queued_p95_ms": round(percentile(queued, 95), 3),
        "goodput_qps": round(len(completed) / makespan_ms * 1000.0, 3)
        if makespan_ms > 0
        else 0.0,
        "max_in_flight": cluster.max_concurrent_running(),
    }
    return report, cluster


def run(smoke: bool) -> dict:
    if smoke:
        storm = build_traffic_storm(queries=40, users=6, seed=11)
        rows = 120
        levels = [1, 4, 16]
    else:
        storm = build_traffic_storm(queries=2000, users=40, seed=11)
        rows = 250
        levels = [1, 8, 64]
    results = []
    for level in levels:
        report, _ = replay_storm(storm, level, rows)
        results.append(report)
    top_user = max(storm.arrivals_by_user().items(), key=lambda item: item[1])
    return {
        "benchmark": "traffic_storm",
        "paper_section": "VIII (gateway/serving) + resource management",
        "smoke": smoke,
        "queries": len(storm.queries),
        "users": len(storm.users),
        "rows": rows,
        "seed": storm.seed,
        "zipf_top_user": {"user": top_user[0], "queries": top_user[1]},
        "queue_slo_ms": QUEUE_SLO_MS,
        "levels": results,
    }


def gates(report: dict) -> list:
    levels = report["levels"]
    serial, top = levels[0], levels[-1]
    found = [
        # The acceptance bar: more than one query genuinely in flight at once.
        gate("queries in flight at once at the top cap", WORK_COUNT, top["max_in_flight"], ">", 1),
        gate("queries in flight at once at cap 1", WORK_COUNT, serial["max_in_flight"], "<=", 1),
        gate("queries failed, all caps", WORK_COUNT, sum(level["failed"] for level in levels), "==", 0),
    ]
    if not report["smoke"]:
        found += [
            gate("goodput at the top cap vs cap 1",
                 SIMULATED, top["goodput_qps"], ">=", serial["goodput_qps"]),
            gate("p95 latency at the top cap vs cap 1",
                 SIMULATED, top["p95_ms"], "<=", serial["p95_ms"]),
        ]
    return found


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
