"""Fragment result cache (section VII, RaptorX techniques).

Caches the materialized output of deterministic leaf plan fragments,
keyed by the fragment's canonical plan description plus the identity of
the split it processed.  A repeated dashboard query whose underlying
partition has not changed is served without rescanning."""

from __future__ import annotations

from typing import Callable, Sequence

from repro.cache.lru import LruCache
from repro.core.page import Page


class FragmentResultCache:
    """Caches per-(fragment, split) page lists."""

    def __init__(self, max_entries: int = 1_000, metrics=None) -> None:
        self._cache = LruCache(max_entries, name="fragment_result", metrics=metrics)

    @property
    def stats(self):
        return self._cache.stats

    def bind_metrics(self, metrics) -> None:
        self._cache.bind_metrics(metrics)

    def get_or_compute_with_status(
        self, key: tuple, compute: Callable[[], Sequence[Page]]
    ) -> tuple[Sequence[Page], bool]:
        """``(pages, hit)`` for ``key``, computing and caching on a miss.

        ``key`` is the canonical fragment text, the split and the split's
        data version, which changes whenever the underlying data does (e.g.
        a file's modification time), so stale results are never served.
        """
        return self._cache.get_or_load_with_status(key, lambda: list(compute()))
