"""Metastore versioned cache (section VII, "a number of cache techniques").

Caches table metadata keyed by the metastore's global version counter:
any metastore mutation bumps the version and implicitly invalidates every
cached entry, giving strong freshness without explicit invalidation calls.
"""

from __future__ import annotations

from repro.cache.lru import LruCache
from repro.metastore.metastore import HiveMetastore, TableInfo


class VersionedMetastoreCache:
    """Read-through cache over :class:`HiveMetastore`, version-keyed."""

    def __init__(
        self, metastore: HiveMetastore, max_entries: int = 10_000, metrics=None
    ) -> None:
        self._metastore = metastore
        self._cache = LruCache(max_entries, name="metastore", metrics=metrics)

    @property
    def stats(self):
        return self._cache.stats

    def get_table(self, database: str, name: str) -> TableInfo:
        key = ("table", self._metastore.version, database, name)
        return self._cache.get_or_load(
            key, lambda: self._metastore.get_table(database, name)
        )
