"""A small LRU cache with hit/miss accounting.

Every cache class in :mod:`repro.cache` routes its accounting through the
shared :class:`CacheStats` counters here, so the observability layer
reports one consistent hit-rate definition: every *lookup* counts exactly
one hit or one miss (a miss that triggers a fill is still one miss —
``put`` never counts).  No entry is ever invalidated: each cache keys on
the version of what it holds, so a changed file or partition is a new key
and its old entry ages out.

A cache may additionally be bound to a
:class:`repro.obs.metrics.MetricsRegistry` (``name`` labels the series);
increments are then mirrored into ``cache_hits_total{cache=...}``,
``cache_misses_total``, ``cache_evictions_total`` and the
``cache_entries`` gauge.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class LruCache:
    """Least-recently-used cache of bounded entry count.

    ``None`` is an ordinary cacheable value: ``get_or_load`` tests
    presence, never truthiness.  Only the plain ``get`` is ambiguous for
    ``None`` values — pass a ``default`` sentinel of your own when that
    matters.
    """

    def __init__(
        self,
        max_entries: int = 10_000,
        name: str = "lru",
        metrics=None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.name = name
        self.stats = CacheStats()
        self._metrics = None
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        if metrics is not None:
            self.bind_metrics(metrics)

    # -- metrics --------------------------------------------------------------

    def bind_metrics(self, metrics) -> None:
        """Mirror future accounting into ``metrics`` (idempotent)."""
        if self._metrics is metrics:
            return
        self._metrics = metrics

    def _count(self, event: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(f"cache_{event}_total", cache=self.name).inc()
            self._metrics.gauge("cache_entries", cache=self.name).set(
                len(self._entries)
            )

    def _hit(self) -> None:
        self.stats.hits += 1
        self._count("hits")

    def _miss(self) -> None:
        self.stats.misses += 1
        self._count("misses")

    # -- lookups (each counts exactly one hit or one miss) --------------------

    def lookup(self, key: Hashable) -> tuple[bool, Any]:
        """Return ``(hit, value)``; value is None on a miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._hit()
            return True, self._entries[key]
        self._miss()
        return False, None

    def get(self, key: Hashable, default: Optional[Any] = None) -> Optional[Any]:
        hit, value = self.lookup(key)
        return value if hit else default

    def get_or_load(self, key: Hashable, loader: Callable[[], Any]) -> Any:
        value, _ = self.get_or_load_with_status(key, loader)
        return value

    def get_or_load_with_status(
        self, key: Hashable, loader: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """Return ``(value, hit)``; the fill after a miss counts nothing."""
        hit, value = self.lookup(key)
        if hit:
            return value, True
        value = loader()
        self.put(key, value)
        return value, False

    # -- mutation (never counts hits or misses) -------------------------------

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._count("evictions")
        elif self._metrics is not None:
            self._metrics.gauge("cache_entries", cache=self.name).set(
                len(self._entries)
            )
