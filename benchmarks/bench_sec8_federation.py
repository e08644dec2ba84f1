"""Section VIII: cluster federation via the Presto gateway.

Paper claims: a single coordinator degrades "bigger than 1000 machines, or
... more than 500 complex queries running concurrently"; the gateway
federates multiple clusters behind one endpoint, and traffic can be
redirected dynamically (e.g. for zero-downtime maintenance).

The concurrency sweep drives one oversized cluster versus three federated
clusters of the same total capacity through the gateway, comparing mean
simulated query latency.
"""

from __future__ import annotations

from _harness import SIMULATED, WORK_COUNT, gate, run_script
from repro.common.clock import SimulatedClock
from repro.execution.cluster import PrestoClusterSim
from repro.federation.gateway import PrestoGateway

OUTPUT = "BENCH_sec8_federation.json"

TOTAL_WORKERS = 1800
CONCURRENT_QUERIES = 600
SPLITS_PER_QUERY = 8
SPLIT_MS = 250.0


def run_single_cluster(queries: int) -> float:
    cluster = PrestoClusterSim(
        workers=TOTAL_WORKERS, slots_per_worker=2, clock=SimulatedClock(), name="mono"
    )
    executions = [
        cluster.submit_query([SPLIT_MS] * SPLITS_PER_QUERY)
        for _ in range(queries)
    ]
    cluster.run_until_idle()
    return sum(e.latency_ms for e in executions) / len(executions)


def run_federated(queries: int, clusters: int = 3) -> float:
    gateway = PrestoGateway()
    for index in range(clusters):
        gateway.register_cluster(
            PrestoClusterSim(
                workers=TOTAL_WORKERS // clusters,
                slots_per_worker=2,
                clock=SimulatedClock(),
                name=f"fed{index}",
            )
        )
        gateway.routing.assign_group(f"team{index}", f"fed{index}")
    gateway.routing.set_default("fed0")
    submissions = [
        gateway.submit(f"user{i}", [SPLIT_MS] * SPLITS_PER_QUERY, groups=(f"team{i % clusters}",))
        for i in range(queries)
    ]
    gateway.run_until_idle()
    return sum(s.execution.latency_ms for s in submissions) / len(submissions)


def coordinator_degradation_sweep(sizes, queries: int) -> list[dict]:
    """Latency vs cluster size at fixed per-query work: the knee >1000."""
    rows = []
    for workers in sizes:
        cluster = PrestoClusterSim(
            workers=workers, slots_per_worker=2, clock=SimulatedClock()
        )
        executions = [cluster.submit_query([SPLIT_MS] * 4) for _ in range(queries)]
        cluster.run_until_idle()
        mean = sum(e.latency_ms for e in executions) / len(executions)
        rows.append({"workers": workers, "mean_latency_ms": round(mean, 3)})
    return rows


def zero_downtime_maintenance() -> dict:
    """Drain a cluster for upgrade; its users keep running on the shared one."""
    gateway = PrestoGateway()
    dedicated = PrestoClusterSim(workers=4, clock=SimulatedClock(), name="dedicated")
    shared = PrestoClusterSim(workers=8, clock=SimulatedClock(), name="shared")
    gateway.register_cluster(dedicated)
    gateway.register_cluster(shared)
    gateway.routing.assign_user("alice", "dedicated")
    gateway.routing.set_default("shared")

    before = gateway.submit("alice", [10.0])
    gateway.drain_cluster("dedicated", fallback="shared")
    during = gateway.submit("alice", [10.0])
    gateway.run_until_idle()
    return {
        "before_drain_ran_on": before.cluster_name,
        "during_drain_ran_on": during.cluster_name,
        "finished": sum(s.execution.finished_at is not None for s in (before, during)),
    }


def run(smoke: bool) -> dict:
    # The knee is a property of the worker count, and building a cluster
    # of thousands of workers is what takes the time: smoke keeps the three
    # gated sizes and a tenth of the queries.
    if smoke:
        queries, sweep_sizes, sweep_queries = CONCURRENT_QUERIES // 10, (250, 1000, 3000), 5
    else:
        queries, sweep_sizes, sweep_queries = CONCURRENT_QUERIES, (250, 500, 1000, 2000, 3000), 50
    single_ms, federated_ms = run_single_cluster(queries), run_federated(queries)
    return {
        "benchmark": "sec8_federation",
        "smoke": smoke,
        "total_workers": TOTAL_WORKERS,
        "concurrent_queries": queries,
        "deployments": [
            {"deployment": f"single cluster ({TOTAL_WORKERS} workers, 1 coordinator)",
             "mean_latency_ms": round(single_ms, 3)},
            {"deployment": "3 federated clusters behind gateway",
             "mean_latency_ms": round(federated_ms, 3)},
        ],
        "federation_speedup": round(single_ms / federated_ms, 3),
        "degradation_sweep": coordinator_degradation_sweep(sweep_sizes, sweep_queries),
        "maintenance": zero_downtime_maintenance(),
    }


def gates(report: dict) -> list:
    single, federated = report["deployments"]
    latency = {r["workers"]: r["mean_latency_ms"] for r in report["degradation_sweep"]}
    maintenance = report["maintenance"]
    return [
        gate("federated mean latency vs one oversized cluster", SIMULATED,
             federated["mean_latency_ms"], "<", single["mean_latency_ms"]),
        # Shape: gentle growth through 1000 machines, steep beyond the knee.
        gate("latency at 3000 workers / at 1000", SIMULATED,
             round(latency[3000] / latency[1000], 3), ">", 1.5),
        gate("latency at 1000 workers / at 250", SIMULATED,
             round(latency[1000] / latency[250], 3), "<", 2.0),
        gate("alice runs on her dedicated cluster before the drain", WORK_COUNT,
             maintenance["before_drain_ran_on"], "==", "dedicated"),
        # No downtime for alice.
        gate("alice runs on the shared cluster during the drain", WORK_COUNT,
             maintenance["during_drain_ran_on"], "==", "shared"),
        gate("alice's queries that finished", WORK_COUNT, maintenance["finished"], "==", 2),
    ]


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
