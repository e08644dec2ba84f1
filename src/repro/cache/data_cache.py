"""Worker-local tiered data cache for parquet row-group bytes.

The follow-on literature to the paper ("Metadata Caching in Presto",
"Data Caching for Enterprise-Grade Petabyte-Scale OLAP" — the
RaptorX/Alluxio line) moves past metadata caches to caching the *data*
itself on each worker: a small hot tier in memory backed by a much larger
local-SSD tier, so repeat reads of the same split never touch remote
storage.  This module is that cache, simulated faithfully enough to
answer the sizing and policy questions those papers answer:

- :class:`CacheTier` — one byte-bounded tier with a pluggable
  admission/eviction policy (:class:`LruPolicy`, :class:`LfuPolicy`,
  :class:`TinyLfuPolicy`);
- :class:`TieredDataCache` — hot + SSD tiers with promotion on SSD hit
  and demotion of hot evictions into SSD, per-tier read latencies, and
  labeled metrics (``data_cache_{hits,misses,evictions,
  admission_rejects}_total{worker,tier,policy}``) plus ``data_cache``
  trace instants when a tracer is active;
- :class:`ShadowCache` — a key-only simulation of a ``shadow_factor``×
  larger cache running alongside the real one, answering "what hit ratio
  would we get if we bought more cache?" without buying it.

Everything is deterministic: eviction ties break on recency, the TinyLFU
sketch hashes with :func:`repro.common.hashing.stable_hash`, and no wall
clock or RNG is consulted — same access trace, same cache state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.common.hashing import stable_hash
from repro.obs.trace import current_tracer

MIB = 1024 * 1024

HOT_TIER = "hot"
SSD_TIER = "ssd"
MISS = "miss"


# -- admission/eviction policies ----------------------------------------------


class LruPolicy:
    """Evict the least-recently-used entry; admit everything."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[str, None]" = OrderedDict()

    def record_access(self, key: str) -> None:
        """Called once per cache *read*, hit or miss (TinyLFU's sketch)."""

    def on_hit(self, key: str) -> None:
        self._order.move_to_end(key)

    def on_admit(self, key: str) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def on_evict(self, key: str) -> None:
        self._order.pop(key, None)

    def victim(self) -> str:
        return next(iter(self._order))

    def admit(self, candidate: str, victim: str) -> bool:
        return True

    def clear(self) -> None:
        self._order.clear()


class LfuPolicy(LruPolicy):
    """Evict the least-frequently-used entry; recency breaks ties.

    Frequencies count hits against *this tier's* residency (they reset
    when the entry is evicted), which is classic in-cache LFU.
    """

    name = "lfu"

    def __init__(self) -> None:
        super().__init__()
        self._counts: dict[str, int] = {}

    def on_hit(self, key: str) -> None:
        super().on_hit(key)
        self._counts[key] = self._counts.get(key, 0) + 1

    def on_admit(self, key: str) -> None:
        super().on_admit(key)
        self._counts[key] = 1

    def on_evict(self, key: str) -> None:
        super().on_evict(key)
        self._counts.pop(key, None)

    def victim(self) -> str:
        # _order iterates least-recently-used first, so the first key with
        # the minimal count is the LRU among the least-frequent — one
        # deterministic choice.
        return min(self._order, key=lambda key: self._counts[key])

    def clear(self) -> None:
        super().clear()
        self._counts.clear()


class FrequencySketch:
    """A small count-min sketch with saturating 4-bit counters and aging.

    The TinyLFU frequency estimator: ``rows`` hash rows over ``width``
    counters each; an increment bumps every row's counter (saturating at
    15), an estimate takes the minimum across rows.  Every
    ``sample_size`` increments all counters halve — the aging step that
    lets yesterday's hot keys cool off.
    """

    def __init__(self, width: int = 1024, rows: int = 4, sample_size: int = 4096) -> None:
        if width < 1 or rows < 1 or sample_size < 1:
            raise ValueError("sketch dimensions must be positive")
        self.width = width
        self.rows = rows
        self.sample_size = sample_size
        self._counters = [[0] * width for _ in range(rows)]
        self._increments = 0

    def _slots(self, key: str) -> list[int]:
        return [
            stable_hash(f"sketch{row}:{key}") % self.width for row in range(self.rows)
        ]

    def increment(self, key: str) -> None:
        for row, slot in enumerate(self._slots(key)):
            if self._counters[row][slot] < 15:
                self._counters[row][slot] += 1
        self._increments += 1
        if self._increments >= self.sample_size:
            self._age()

    def estimate(self, key: str) -> int:
        return min(
            self._counters[row][slot] for row, slot in enumerate(self._slots(key))
        )

    def _age(self) -> None:
        for row in self._counters:
            for slot in range(self.width):
                row[slot] //= 2
        self._increments = 0

    def clear(self) -> None:
        self._counters = [[0] * self.width for _ in range(self.rows)]
        self._increments = 0


class TinyLfuPolicy(LruPolicy):
    """LRU eviction order gated by a TinyLFU admission filter.

    The sketch observes every read (hit or miss); when the tier is full,
    a candidate is admitted only if its estimated access frequency
    exceeds the would-be victim's — a one-hit-wonder scan key never
    displaces a key the workload actually reuses.
    """

    name = "tinylfu"

    def __init__(self, sketch: Optional[FrequencySketch] = None) -> None:
        super().__init__()
        self.sketch = sketch or FrequencySketch()

    def record_access(self, key: str) -> None:
        self.sketch.increment(key)

    def admit(self, candidate: str, victim: str) -> bool:
        return self.sketch.estimate(candidate) > self.sketch.estimate(victim)

    def clear(self) -> None:
        # Keep the sketch: frequency history survives a cache flush, as
        # in W-TinyLFU (the *contents* are gone, the knowledge is not).
        super().clear()


POLICIES: dict[str, Callable[[], LruPolicy]] = {
    "lru": LruPolicy,
    "lfu": LfuPolicy,
    "tinylfu": TinyLfuPolicy,
}


# -- one tier -----------------------------------------------------------------


class CacheTier:
    """One byte-bounded tier: entries, sizes, optional payloads."""

    def __init__(self, name: str, capacity_bytes: int, policy: LruPolicy) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.used_bytes = 0
        self._entries: dict[str, tuple[int, Any]] = {}

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[str]:
        return list(self._entries)

    def get(self, key: str) -> Optional[tuple[int, Any]]:
        entry = self._entries.get(key)
        if entry is not None:
            self.policy.on_hit(key)
        return entry

    def put(self, key: str, size_bytes: int, value: Any = None) -> tuple[bool, list[tuple[str, int, Any]], bool]:
        """Insert; returns ``(admitted, evicted_entries, rejected_by_filter)``.

        Evicts victims until the entry fits.  An admission-filter policy
        (TinyLFU) may refuse the candidate instead of evicting a more
        valuable victim — then nothing changes and ``admitted`` is False.
        """
        if size_bytes > self.capacity_bytes:
            if key in self._entries:
                self.remove(key)
            return False, [], False
        evicted: list[tuple[str, int, Any]] = []
        if key in self._entries:
            old_size, _ = self._entries[key]
            self.used_bytes += size_bytes - old_size
            self._entries[key] = (size_bytes, value)
            self.policy.on_hit(key)
            # A grown entry may push the tier over capacity; the updated
            # key is most-recent, so it is never its own victim here.
            while self.used_bytes > self.capacity_bytes:
                victim = self.policy.victim()
                victim_size, victim_value = self._entries.pop(victim)
                self.used_bytes -= victim_size
                self.policy.on_evict(victim)
                evicted.append((victim, victim_size, victim_value))
            return True, evicted, False
        while self.used_bytes + size_bytes > self.capacity_bytes:
            victim = self.policy.victim()
            if not self.policy.admit(key, victim):
                # Roll back nothing: victims evicted so far were judged
                # colder than the candidate, and they are already gone.
                return False, evicted, True
            victim_size, victim_value = self._entries.pop(victim)
            self.used_bytes -= victim_size
            self.policy.on_evict(victim)
            evicted.append((victim, victim_size, victim_value))
        self._entries[key] = (size_bytes, value)
        self.used_bytes += size_bytes
        self.policy.on_admit(key)
        return True, evicted, False

    def remove(self, key: str) -> Optional[tuple[int, Any]]:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.used_bytes -= entry[0]
            self.policy.on_evict(key)
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self.used_bytes = 0
        self.policy.clear()


# -- shadow cache -------------------------------------------------------------


class ShadowCache:
    """Key-only LRU simulation of a larger cache, for sizing decisions.

    Runs every access of the real cache through an LRU of
    ``capacity_bytes`` (typically ``shadow_factor ×`` the real total);
    its hit ratio estimates what that larger cache would achieve.  For an
    LRU-managed real cache the estimate is a guaranteed upper bound on
    the real hit ratio (LRU inclusion: a bigger LRU holds a superset),
    so ``estimated_hit_ratio() ∈ [real hit ratio, 1]``.
    """

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity_bytes = capacity_bytes
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, int]" = OrderedDict()
        self._used = 0

    def access(self, key: str, size_bytes: int) -> bool:
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return True
        self.misses += 1
        if size_bytes > self.capacity_bytes:
            return False
        while self._used + size_bytes > self.capacity_bytes:
            _, evicted_size = self._entries.popitem(last=False)
            self._used -= evicted_size
        self._entries[key] = size_bytes
        self._used += size_bytes
        return False

    def estimated_hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0


# -- the tiered cache ---------------------------------------------------------

# Simulated milliseconds charged per read served by each tier.
HOT_READ_MS = 0.05
SSD_READ_MS = 0.5


@dataclass(frozen=True)
class DataCacheConfig:
    """Sizing, policy, and miss latency of one worker's cache.

    Latencies are simulated milliseconds charged per read (the tiers'
    are ``HOT_READ_MS`` and ``SSD_READ_MS``); the miss latency models
    only the *extra* remote round-trip — the bulk remote read cost lives
    in the split's own duration.
    """

    policy: str = "lru"
    hot_bytes: int = 64 * MIB
    ssd_bytes: int = 512 * MIB
    miss_read_ms: float = 0.0
    shadow_factor: int = 4
    default_entry_bytes: int = 1 * MIB

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown data-cache policy {self.policy!r}; "
                f"choose from {sorted(POLICIES)}"
            )


@dataclass(frozen=True)
class CacheRead:
    """Outcome of one read: which tier served it, at what cost."""

    tier: str  # "hot" | "ssd" | "miss"
    latency_ms: float
    value: Any = None

    @property
    def hit(self) -> bool:
        return self.tier != MISS


@dataclass
class DataCacheStats:
    hits_hot: int = 0
    hits_ssd: int = 0
    misses: int = 0
    evictions_hot: int = 0
    evictions_ssd: int = 0
    admission_rejects_hot: int = 0
    admission_rejects_ssd: int = 0

    @property
    def hits(self) -> int:
        return self.hits_hot + self.hits_ssd

    @property
    def reads(self) -> int:
        return self.hits + self.misses

    def hit_ratio(self) -> float:
        return self.hits / self.reads if self.reads else 0.0


class TieredDataCache:
    """Per-worker tiered cache: hot memory over simulated SSD.

    Reads promote SSD hits into the hot tier; hot-tier evictions demote
    into SSD (whose own policy may evict or, for TinyLFU, refuse them);
    SSD evictions leave the cache.  A crash calls :meth:`clear`, dropping
    both tiers — the worker restarts cold.
    """

    def __init__(
        self,
        config: Optional[DataCacheConfig] = None,
        worker: str = "worker",
        metrics=None,
    ) -> None:
        self.config = config or DataCacheConfig()
        self.worker = worker
        self.metrics = metrics
        self.stats = DataCacheStats()
        make_policy = POLICIES[self.config.policy]
        if self.config.policy == "tinylfu":
            # One sketch observes all traffic; both tiers consult it.
            sketch = FrequencySketch()
            self.hot = CacheTier(HOT_TIER, self.config.hot_bytes, TinyLfuPolicy(sketch))
            self.ssd = CacheTier(SSD_TIER, self.config.ssd_bytes, TinyLfuPolicy(sketch))
            self._sketch: Optional[FrequencySketch] = sketch
        else:
            self.hot = CacheTier(HOT_TIER, self.config.hot_bytes, make_policy())
            self.ssd = CacheTier(SSD_TIER, self.config.ssd_bytes, make_policy())
            self._sketch = None
        self.shadow = ShadowCache(
            (self.config.hot_bytes + self.config.ssd_bytes)
            * max(1, self.config.shadow_factor)
        )

    # -- observability --------------------------------------------------------

    def _count(self, event: str, tier: Optional[str] = None) -> None:
        if self.metrics is None:
            return
        labels = {"worker": self.worker, "policy": self.config.policy}
        if tier is not None:
            labels["tier"] = tier
        self.metrics.counter(f"data_cache_{event}_total", **labels).inc()

    def _instant(self, key: str, tier: str, size_bytes: int) -> None:
        tracer = current_tracer()
        if tracer is not None:
            tracer.instant(
                "data_cache",
                worker=self.worker,
                tier=tier,
                key=key,
                bytes=size_bytes,
            )

    def _set_gauges(self) -> None:
        if self.metrics is None:
            return
        for tier in (self.hot, self.ssd):
            self.metrics.gauge(
                "data_cache_used_bytes",
                worker=self.worker,
                policy=self.config.policy,
                tier=tier.name,
            ).set(tier.used_bytes)

    # -- reads ----------------------------------------------------------------

    def read(
        self,
        key: str,
        size_bytes: Optional[int] = None,
        loader: Optional[Callable[[], Any]] = None,
    ) -> CacheRead:
        """Read ``key``: returns the serving tier and its latency.

        ``size_bytes`` defaults to the config's estimate; ``loader`` (for
        real byte payloads, e.g. parquet segments) runs only on a miss
        and its result is cached alongside the size.
        """
        size = size_bytes if size_bytes is not None else self.config.default_entry_bytes
        self.shadow.access(key, size)
        if self._sketch is not None:
            self._sketch.increment(key)
        entry = self.hot.get(key)
        if entry is not None:
            self.stats.hits_hot += 1
            self._count("hits", HOT_TIER)
            self._instant(key, HOT_TIER, entry[0])
            return CacheRead(HOT_TIER, HOT_READ_MS, entry[1])
        entry = self.ssd.get(key)
        if entry is not None:
            self.stats.hits_ssd += 1
            self._count("hits", SSD_TIER)
            self._instant(key, SSD_TIER, entry[0])
            # Promotion: the key is hot again; demotes a hot victim.
            self.ssd.remove(key)
            self._admit(key, entry[0], entry[1])
            return CacheRead(SSD_TIER, SSD_READ_MS, entry[1])
        self.stats.misses += 1
        self._count("misses")
        self._instant(key, MISS, size)
        value = loader() if loader is not None else None
        self._admit(key, size, value)
        return CacheRead(MISS, self.config.miss_read_ms, value)

    def _admit(self, key: str, size_bytes: int, value: Any) -> None:
        admitted, demoted, rejected = self.hot.put(key, size_bytes, value)
        if rejected:
            self.stats.admission_rejects_hot += 1
            self._count("admission_rejects", HOT_TIER)
        for demoted_key, demoted_size, demoted_value in demoted:
            self.stats.evictions_hot += 1
            self._count("evictions", HOT_TIER)
            self._demote(demoted_key, demoted_size, demoted_value, resident=True)
        if not admitted:
            # Too big for memory (or refused by the filter): try SSD.
            self._demote(key, size_bytes, value, resident=False)
        self._set_gauges()

    def _demote(self, key: str, size_bytes: int, value: Any, resident: bool) -> None:
        """Push an entry into SSD; ``resident`` means it held cached data
        (a hot eviction) whose loss on SSD refusal counts as an eviction."""
        ssd_admitted, dropped, ssd_rejected = self.ssd.put(key, size_bytes, value)
        if ssd_rejected:
            self.stats.admission_rejects_ssd += 1
            self._count("admission_rejects", SSD_TIER)
        for _dropped_key, _size, _value in dropped:
            self.stats.evictions_ssd += 1
            self._count("evictions", SSD_TIER)
        if not ssd_admitted and resident:
            self.stats.evictions_ssd += 1
            self._count("evictions", SSD_TIER)

    # -- inspection & lifecycle -----------------------------------------------

    def tier_of(self, key: str) -> Optional[str]:
        if key in self.hot:
            return HOT_TIER
        if key in self.ssd:
            return SSD_TIER
        return None

    def __contains__(self, key: str) -> bool:
        return self.tier_of(key) is not None

    def __len__(self) -> int:
        return len(self.hot) + len(self.ssd)

    def keys(self) -> set[str]:
        return set(self.hot.keys()) | set(self.ssd.keys())

    def hit_ratio(self) -> float:
        return self.stats.hit_ratio()

    def clear(self) -> None:
        """Drop both tiers (worker crash): the node restarts cold.

        The shadow cache and TinyLFU sketch persist — they model
        knowledge about the *workload*, not bytes on the dead disk.
        """
        self.hot.clear()
        self.ssd.clear()
        self._set_gauges()
