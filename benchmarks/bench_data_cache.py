"""Worker-local data cache: hit ratio and latency across policies and tiers.

Reproduces the sizing/policy questions of the data-cache follow-up
literature ("Data Caching for Enterprise-Grade Petabyte-Scale OLAP", the
RaptorX/Alluxio line) on the simulated tiered cache:

1. **Policy x tier-size sweep** — replays a deterministic zipfian
   row-group access storm (with a scan-pollution fraction of one-touch
   keys) through LRU / LFU / TinyLFU caches at several tier sizes,
   reporting hit ratio per tier and per-access latency.
2. **End-to-end latency** — replays an affinity-scheduled split workload
   on the cluster sim with the cache enabled vs disabled; cache hits
   shorten split durations, so query p95 falls.
3. **Shadow-cache validation** — compares the shadow cache's "what if
   the cache were K x larger" estimate against an actual K x larger run
   of the same storm.
4. **Crash remap** — measures the fraction of keys whose ring placement
   changes when one worker crashes (the consistent-hash guarantee).

All latencies are simulated milliseconds; results are deterministic per
seed, and a full run is compared leaf for leaf with the committed file.
"""

from __future__ import annotations

from _harness import SIMULATED, WORK_COUNT, gate, percentile, run_script
from repro.cache.data_cache import MIB, DataCacheConfig, TieredDataCache
from repro.common.clock import SimulatedClock
from repro.common.ring import ConsistentHashRing
from repro.execution.cluster import PrestoClusterSim
from repro.workloads.traffic_storm import CacheStorm, build_cache_storm

OUTPUT = "BENCH_data_cache.json"

MISS_READ_MS = 5.0  # simulated remote-storage read charged on a miss
POLICIES = ["lru", "lfu", "tinylfu"]


def replay_cache(storm: CacheStorm, config: DataCacheConfig) -> dict:
    """Replay the storm through one cache; returns its scorecard."""
    cache = TieredDataCache(config)
    latencies = []
    for access in storm.accesses:
        read = cache.read(access.key, access.size_bytes)
        latencies.append(read.latency_ms)
    stats = cache.stats
    return {
        "name": f"{config.policy}/hot{config.hot_bytes // MIB}+"
        f"ssd{config.ssd_bytes // MIB}MiB",
        "policy": config.policy,
        "hot_mib": config.hot_bytes // MIB,
        "ssd_mib": config.ssd_bytes // MIB,
        "hit_ratio": round(cache.hit_ratio(), 4),
        "hot_hits": stats.hits_hot,
        "ssd_hits": stats.hits_ssd,
        "misses": stats.misses,
        "evictions": stats.evictions_hot + stats.evictions_ssd,
        "admission_rejects": stats.admission_rejects_hot
        + stats.admission_rejects_ssd,
        "mean_read_ms": round(sum(latencies) / len(latencies), 4),
        "p95_read_ms": round(percentile(latencies, 95), 4),
        "shadow_hit_ratio": round(cache.shadow.estimated_hit_ratio(), 4),
    }


def replay_cluster(
    storm: CacheStorm, config: DataCacheConfig, queries: int, splits_per_query: int
) -> dict:
    """End-to-end: the storm's popular keys as affinity-scheduled splits.

    Runs the query set twice and reports the *second* (steady-state)
    round, as the data-cache papers do: round one warms the per-worker
    tiers, round two shows what repeat dashboard traffic actually pays.
    One-touch scan keys are excluded here — they can never hit and would
    put a miss in nearly every query; the policy sweep covers them.
    """
    cluster = PrestoClusterSim(
        workers=4,
        slots_per_worker=2,
        clock=SimulatedClock(),
        affinity_scheduling=True,
        data_cache=config,
        name="cache-bench",
    )
    popular = [a for a in storm.accesses if not a.key.startswith("scan/")]
    rounds: list[list[float]] = []
    for _ in range(2):
        executions = []
        cursor = 0
        for _ in range(queries):
            batch = [
                popular[(cursor + i) % len(popular)] for i in range(splits_per_query)
            ]
            cursor += splits_per_query
            executions.append(
                cluster.submit_query(
                    [20.0] * len(batch),
                    split_keys=[a.key for a in batch],
                    split_sizes=[a.size_bytes for a in batch],
                )
            )
            cluster.run_until_idle()
        rounds.append([ex.finished_at - ex.submitted_at for ex in executions])
    latencies = rounds[1]
    hits = sum(w.cache_hits for w in cluster.workers.values())
    return {
        "queries": queries,
        "splits": queries * splits_per_query,
        "cache_hits": hits,
        "p50_ms": round(percentile(latencies, 50), 3),
        "p95_ms": round(percentile(latencies, 95), 3),
        "mean_ms": round(sum(latencies) / len(latencies), 3),
    }


def measure_crash_remap(workers: int = 8, keys: int = 2000) -> dict:
    """Fraction of keys remapped when one of ``workers`` crashes."""
    ring = ConsistentHashRing([f"worker-{i}" for i in range(workers)])
    names = [f"warehouse/part-{i}" for i in range(keys)]
    before = {key: ring.lookup(key) for key in names}
    victim = "worker-3"
    ring.remove(victim)
    moved = sum(1 for key in names if ring.lookup(key) != before[key])
    return {
        "workers": workers,
        "keys": keys,
        "remapped": moved,
        "remap_fraction": round(moved / keys, 4),
        "bound_fraction": round(2 / workers, 4),
    }


def run(smoke: bool) -> dict:
    if smoke:
        storm = build_cache_storm(accesses=400, keys=60, seed=11)
        tier_sizes = [(8, 32)]
        queries, splits_per_query = 20, 4
        shadow_factor = 2
    else:
        storm = build_cache_storm(accesses=8000, keys=400, seed=11)
        tier_sizes = [(16, 64), (32, 128), (64, 256)]
        queries, splits_per_query = 150, 6
        shadow_factor = 4

    sweep = []
    for hot_mib, ssd_mib in tier_sizes:
        for policy in POLICIES:
            sweep.append(
                replay_cache(
                    storm,
                    DataCacheConfig(
                        policy=policy,
                        hot_bytes=hot_mib * MIB,
                        ssd_bytes=ssd_mib * MIB,
                        miss_read_ms=MISS_READ_MS,
                        shadow_factor=shadow_factor,
                    ),
                )
            )

    # Shadow validation: the base config's shadow estimate vs an actual
    # shadow_factor x larger LRU cache over the same storm.
    base_hot, base_ssd = tier_sizes[0]
    base = next(
        e for e in sweep if e["policy"] == "lru" and e["hot_mib"] == base_hot
    )
    larger = replay_cache(
        storm,
        DataCacheConfig(
            policy="lru",
            hot_bytes=base_hot * MIB * shadow_factor,
            ssd_bytes=base_ssd * MIB * shadow_factor,
            miss_read_ms=MISS_READ_MS,
        ),
    )
    shadow = {
        "estimate": base["shadow_hit_ratio"],
        "actual_at_factor": larger["hit_ratio"],
        "error": round(abs(base["shadow_hit_ratio"] - larger["hit_ratio"]), 4),
        "factor": shadow_factor,
    }

    # End-to-end cluster replay, cached vs cold (zero-capacity tiers).
    cached_config = DataCacheConfig(
        hot_bytes=tier_sizes[-1][0] * MIB,
        ssd_bytes=tier_sizes[-1][1] * MIB,
        miss_read_ms=MISS_READ_MS,
    )
    no_cache_config = DataCacheConfig(
        hot_bytes=0, ssd_bytes=0, miss_read_ms=MISS_READ_MS
    )
    cluster_cached = replay_cluster(storm, cached_config, queries, splits_per_query)
    cluster_cold = replay_cluster(storm, no_cache_config, queries, splits_per_query)

    return {
        "benchmark": "data_cache",
        "paper_section": "VII (caching) + RaptorX/Alluxio follow-up",
        "smoke": smoke,
        "accesses": len(storm.accesses),
        "unique_keys": storm.unique_keys(),
        "seed": storm.seed,
        "miss_read_ms": MISS_READ_MS,
        "sweep": sweep,
        "shadow": shadow,
        "cluster": {"cached": cluster_cached, "no_cache": cluster_cold},
        "crash_remap": measure_crash_remap(),
    }


def gates(report: dict) -> list:
    cached, cold = report["cluster"]["cached"], report["cluster"]["no_cache"]
    remap = report["crash_remap"]
    # Structural gates hold even at the smoke sizes.
    found = [
        gate("one crash remaps at most 2/N of the keys",
             WORK_COUNT, remap["remap_fraction"], "<=", remap["bound_fraction"]),
        gate("the cluster replay hits the cache", WORK_COUNT, cached["cache_hits"], ">", 0),
    ]
    if report["smoke"]:
        return found
    hit_ratio = {(e["policy"], e["hot_mib"]): e["hit_ratio"] for e in report["sweep"]}
    found += [
        gate(f"TinyLFU hit ratio vs LRU on the zipfian storm, hot={hot_mib}MiB",
             SIMULATED, hit_ratio[("tinylfu", hot_mib)], ">=", hit_ratio[("lru", hot_mib)])
        for hot_mib in sorted({e["hot_mib"] for e in report["sweep"]})
    ]
    return found + [
        gate("tiered cache p95 vs no cache", SIMULATED, cached["p95_ms"], "<", cold["p95_ms"]),
        gate("shadow estimate within 0.05 of the actual larger cache",
             SIMULATED, report["shadow"]["error"], "<=", 0.05),
    ]


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
