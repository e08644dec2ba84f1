"""Zipfian multi-user traffic storm for the concurrent serving layer.

Production interactive traffic (the paper's real-time analytics story,
and the Twitter serving-layer follow-up in PAPERS.md) is not a queue of
equal queries: arrivals are bursty, a few heavy users dominate (zipfian
skew), and everyone runs variations of the same dashboard templates.
This module generates that shape deterministically — a fixed seed always
produces the same users, arrival times, and SQL sequence — so the
concurrency benchmarks and differential tests replay identical storms.

All randomness flows through one ``numpy`` PCG64 generator; no global
RNG state is touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workloads.tpch import LINEITEM_COLUMNS, generate_lineitem

# Dashboard-style templates over LINEITEM: the mix leans on aggregation
# (interactive analytics), with a couple of cheaper filters in between.
QUERY_TEMPLATES: list[tuple[str, str]] = [
    (
        "pricing_summary",
        "SELECT returnflag, linestatus, sum(quantity), avg(extendedprice), count(*) "
        "FROM lineitem GROUP BY returnflag, linestatus "
        "ORDER BY returnflag, linestatus",
    ),
    (
        "revenue_filter",
        "SELECT sum(extendedprice), avg(discount), count(*) "
        "FROM lineitem WHERE discount >= 0.03",
    ),
    (
        "mode_breakdown",
        "SELECT shipmode, count(*), sum(quantity) "
        "FROM lineitem GROUP BY shipmode ORDER BY shipmode",
    ),
    (
        "quick_count",
        "SELECT count(*) FROM lineitem WHERE quantity < 24",
    ),
]


@dataclass(frozen=True)
class StormQuery:
    """One arrival in the storm."""

    arrival_ms: float
    user: str
    template: str
    sql: str


@dataclass
class TrafficStorm:
    """A deterministic replayable burst of multi-user queries."""

    seed: int
    users: list[str]
    queries: list[StormQuery] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.queries)

    def arrivals_by_user(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for query in self.queries:
            counts[query.user] = counts.get(query.user, 0) + 1
        return counts


def build_traffic_storm(
    queries: int = 1000,
    users: int = 20,
    seed: int = 11,
    mean_interarrival_ms: float = 5.0,
    zipf_s: float = 1.2,
) -> TrafficStorm:
    """Generate a storm: Poisson arrivals, zipfian users, template mix.

    ``zipf_s`` sets the user skew (P(rank r) ∝ r^-s): at the default,
    the top user submits roughly a third of all traffic, mirroring the
    few-dashboards-dominate pattern of production fleets.
    """
    if queries < 1 or users < 1:
        raise ValueError("queries and users must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    ranks = np.arange(1, users + 1, dtype=np.float64)
    weights = ranks ** -zipf_s
    weights /= weights.sum()
    user_names = [f"user{index:02d}" for index in range(users)]
    storm = TrafficStorm(seed=seed, users=user_names)
    arrival = 0.0
    for _ in range(queries):
        arrival += float(rng.exponential(mean_interarrival_ms))
        user = user_names[int(rng.choice(users, p=weights))]
        name, sql = QUERY_TEMPLATES[int(rng.integers(len(QUERY_TEMPLATES)))]
        storm.queries.append(
            StormQuery(
                arrival_ms=round(arrival, 3), user=user, template=name, sql=sql
            )
        )
    return storm


@dataclass(frozen=True)
class KeyAccess:
    """One data-key read in a cache storm."""

    arrival_ms: float
    key: str
    size_bytes: int


@dataclass
class CacheStorm:
    """A deterministic key-access trace for the worker data cache."""

    seed: int
    accesses: list[KeyAccess] = field(default_factory=list)

    def unique_keys(self) -> int:
        return len({access.key for access in self.accesses})


def build_cache_storm(
    accesses: int = 5000,
    keys: int = 400,
    seed: int = 11,
    mean_interarrival_ms: float = 2.0,
    zipf_s: float = 1.1,
    scan_fraction: float = 0.2,
    mean_entry_bytes: int = 1 << 20,
) -> CacheStorm:
    """Generate a data-cache storm: zipfian row-group reads plus scans.

    The popular keys follow the same P(rank r) ∝ r^-s skew as the query
    storm — a few hot row groups dominate (dashboards re-reading the
    same partitions).  ``scan_fraction`` of accesses instead read a
    fresh never-repeated key, modeling large batch scans streaming cold
    data through the cache; these one-hit wonders are exactly what a
    TinyLFU admission filter exists to keep out.  Entry sizes are
    deterministic per key (hash-derived around ``mean_entry_bytes``), so
    a key always costs the same bytes.
    """
    if accesses < 1 or keys < 1:
        raise ValueError("accesses and keys must be positive")
    if not 0.0 <= scan_fraction < 1.0:
        raise ValueError("scan_fraction must be in [0, 1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    ranks = np.arange(1, keys + 1, dtype=np.float64)
    weights = ranks ** -zipf_s
    weights /= weights.sum()
    storm = CacheStorm(seed=seed)
    arrival = 0.0
    scans = 0

    def size_of(key: str) -> int:
        # Deterministic per-key size in [0.5x, 1.5x] of the mean.
        from repro.common.hashing import stable_hash

        spread = (stable_hash(f"size:{key}") % 1024) / 1024.0  # [0, 1)
        return int(mean_entry_bytes * (0.5 + spread))

    for _ in range(accesses):
        arrival += float(rng.exponential(mean_interarrival_ms))
        if float(rng.random()) < scan_fraction:
            key = f"scan/part-{scans}"
            scans += 1
        else:
            key = f"warehouse/part-{int(rng.choice(keys, p=weights))}"
        storm.accesses.append(
            KeyAccess(
                arrival_ms=round(arrival, 3), key=key, size_bytes=size_of(key)
            )
        )
    return storm


def make_storm_engine(
    rows: int = 250, split_size: int = 31, data_seed: int = 7, **engine_kwargs
):
    """A fresh engine over a seeded LINEITEM table, for storm replays.

    Kept here (rather than in each benchmark) so the storm bench, the
    differential tests, and the CI trace-invariant check all run the
    exact same engine construction.
    """
    from repro.connectors.memory import MemoryConnector
    from repro.execution.engine import PrestoEngine
    from repro.planner.analyzer import Session

    connector = MemoryConnector(split_size=split_size)
    connector.create_table(
        "db", "lineitem", LINEITEM_COLUMNS, generate_lineitem(rows, seed=data_seed)
    )
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"), **engine_kwargs)
    engine.register_connector("memory", connector)
    return engine
