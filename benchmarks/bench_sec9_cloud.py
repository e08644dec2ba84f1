"""Section IX: Presto on cloud — S3 optimizations and graceful elasticity.

Paper claims, each exercised here on the simulated S3/cluster:

1. Lazy seek "saves unnecessary seeks in Amazon S3";
2. Exponential backoff absorbs S3 unavailability;
3. S3 Select pushdown gets "optimal performance" by moving projection
   into S3;
4. Multipart upload "improves uploading throughput";
5. Graceful expansion/shrink lets the cluster ride load without losing
   queries.
"""

from __future__ import annotations

import itertools

from _harness import SIMULATED, WORK_COUNT, gate, run_script
from repro.common.clock import SimulatedClock
from repro.execution.cluster import PrestoClusterSim, WorkerState
from repro.storage.s3 import S3Client
from repro.storage.s3_filesystem import PrestoS3FileSystem

OUTPUT = "BENCH_sec9_cloud.json"


def footer_style_read(fs, path):
    """A Parquet-reader-like access pattern: footer, then two chunks."""
    stream = fs.open(path)
    size = stream.size()
    stream.seek(size - 16)
    stream.read(16)
    stream.seek(size - 4096)
    stream.read(4096)
    # Planner decides only one chunk is needed; several seeks never read.
    stream.seek(0)
    stream.seek(1_000_000)
    stream.seek(2_000_000)
    stream.read(4096)


def lazy_seek() -> list[dict]:
    results = []
    for lazy in (False, True):
        client = S3Client(clock=SimulatedClock())
        client.put_object("warehouse", "data.parquet", b"x" * 8_000_000)
        fs = PrestoS3FileSystem(client, "warehouse", lazy_seek=lazy)
        client.stats.reset()
        start = client.clock.now_ms()
        for _ in range(20):
            footer_style_read(fs, "/data.parquet")
        results.append(
            {
                "mode": "lazy seek" if lazy else "eager seek",
                "get_requests": client.stats.get_requests,
                "simulated_ms": round(client.clock.now_ms() - start, 3),
            }
        )
    return results


def backoff_through_outage() -> dict:
    # Ten consecutive failures, then S3 recovers.
    failures = itertools.chain([True] * 10, itertools.repeat(False))
    client = S3Client(clock=SimulatedClock(), failure_injector=lambda op: next(failures))
    fs = PrestoS3FileSystem(client, "warehouse", max_retries=12, backoff_base_ms=50)
    fs.create("/resilient", b"payload")
    return {
        "retries": fs.stats.retries,
        "backoff_ms_total": fs.stats.backoff_ms_total,
        "payload_survived": client.get_object("warehouse", "resilient") == b"payload",
    }


def s3_select_pushdown() -> dict:
    client = S3Client(clock=SimulatedClock())
    payload = "\n".join(f"{i},city{i % 50},{i * 3}" for i in range(30_000)).encode()
    client.put_object("warehouse", "events.csv", payload)

    client.stats.reset()
    full = client.get_object("warehouse", "events.csv")
    rows_engine_side = [
        line.split(",")[2]
        for line in full.decode().splitlines()
        if line.split(",")[1] == "city7"
    ]
    full_bytes = client.stats.bytes_downloaded

    client.stats.reset()
    fs = PrestoS3FileSystem(client, "warehouse")
    rows_pushed = fs.select("/events.csv", projection=[2], predicate=lambda f: f[1] == "city7")
    return {
        "get_whole_object_bytes": full_bytes,
        "select_pushdown_bytes": client.stats.bytes_downloaded,
        "identical": [r[0] for r in rows_pushed] == rows_engine_side,
    }


def multipart_upload() -> list[dict]:
    payload = b"z" * 64_000_000
    results = []
    for multipart in (False, True):
        client = S3Client(clock=SimulatedClock())
        fs = PrestoS3FileSystem(
            client,
            "warehouse",
            multipart_threshold=(16_000_000 if multipart else 10**9),
            multipart_part_size=8_000_000,
        )
        start = client.clock.now_ms()
        fs.create("/big-object", payload)
        elapsed = client.clock.now_ms() - start
        results.append(
            {
                "strategy": "multipart (8 MB parts, parallel)" if multipart else "single PUT",
                "simulated_ms": round(elapsed, 3),
                "mb_per_s": round(64_000_000 / (elapsed / 1000.0) / 1_000_000, 1),
                "identical": client.get_object("warehouse", "big-object") == payload,
            }
        )
    return results


def graceful_shrink_drill() -> dict:
    """Shrink half the fleet mid-workload; nothing is lost and the drained
    workers exit via SHUTTING_DOWN → drain → SHUT_DOWN."""
    cluster = PrestoClusterSim(workers=8, slots_per_worker=2, clock=SimulatedClock())
    executions = [cluster.submit_query([300.0] * 4) for _ in range(10)]
    victims = list(cluster.workers)[:4]
    for worker_id in victims:
        cluster.request_graceful_shutdown(worker_id, grace_period_ms=500.0)
    executions += [cluster.submit_query([300.0] * 4) for _ in range(5)]
    cluster.run_until_idle()
    states = [w.state for w in cluster.workers.values()]
    return {
        "queries": len(executions),
        "queries_finished": sum(e.finished_at is not None for e in executions),
        "workers_drained": len(victims),
        "drained_workers_shut_down": sum(
            cluster.workers[w].state is WorkerState.SHUT_DOWN for w in victims
        ),
        "workers_still_active": states.count(WorkerState.ACTIVE),
    }


def run(smoke: bool) -> dict:
    return {
        "benchmark": "sec9_cloud",
        "smoke": smoke,
        "lazy_seek": lazy_seek(),
        "backoff": backoff_through_outage(),
        "s3_select": s3_select_pushdown(),
        "multipart": multipart_upload(),
        "graceful_shrink": graceful_shrink_drill(),
    }


def gates(report: dict) -> list:
    eager, lazy = report["lazy_seek"]
    backoff, select = report["backoff"], report["s3_select"]
    single_put, multipart = report["multipart"]
    shrink = report["graceful_shrink"]
    return [
        gate("GET requests, lazy seek / eager seek", WORK_COUNT,
             round(lazy["get_requests"] / eager["get_requests"], 3), "<", 0.7),
        gate("lazy seek shortens the simulated reads", SIMULATED,
             lazy["simulated_ms"], "<", eager["simulated_ms"]),
        gate("the payload survives the outage", WORK_COUNT, backoff["payload_survived"], "==", True),
        gate("retries through the ten-failure outage", WORK_COUNT, backoff["retries"], "==", 10),
        # Exponential growth capped at BACKOFF_MAX_MS (10 s).
        gate("total backoff, exponential from 50 ms", SIMULATED, backoff["backoff_ms_total"],
             "==", sum(min(50 * 2**i, 10_000) for i in range(10))),
        gate("S3 Select returns the rows the engine-side filter does", WORK_COUNT,
             select["identical"], "==", True),
        gate("bytes off S3, whole-object GET / Select pushdown", WORK_COUNT,
             round(select["get_whole_object_bytes"] / select["select_pushdown_bytes"], 2), ">", 20),
        gate("uploads read back identical", WORK_COUNT,
             sum(u["identical"] for u in report["multipart"]), "==", 2),
        gate("simulated upload time, single PUT / multipart", SIMULATED,
             round(single_put["simulated_ms"] / multipart["simulated_ms"], 3), ">", 2),
        gate("queries finished through the shrink", WORK_COUNT,
             shrink["queries_finished"], "==", shrink["queries"]),
        gate("drained workers that reached SHUT_DOWN", WORK_COUNT,
             shrink["drained_workers_shut_down"], "==", shrink["workers_drained"]),
        gate("workers still active after the shrink", WORK_COUNT,
             shrink["workers_still_active"], "==", 4),
    ]


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
