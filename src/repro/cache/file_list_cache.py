"""Coordinator-side file list cache (section VII.A).

"Presto coordinator caches file lists in memory to avoid long listFile
calls to remote storage ... This can only be applied to sealed directories.
For open partitions, Presto will skip caching those directories to
guarantee data freshness."
"""

from __future__ import annotations

from typing import Callable

from repro.cache.lru import LruCache
from repro.storage.filesystem import FileStatus, FileSystem


class FileListCache:
    """Caches ``listFiles`` results for sealed directories only."""

    def __init__(
        self, filesystem: FileSystem, max_entries: int = 100_000, metrics=None
    ) -> None:
        self._filesystem = filesystem
        self._cache = LruCache(max_entries, name="file_list", metrics=metrics)
        self.open_partition_bypasses = 0

    @property
    def stats(self):
        return self._cache.stats

    def list_files(self, directory: str, sealed: bool) -> list[FileStatus]:
        """List a directory; served from cache only when ``sealed``.

        Open partitions always hit remote storage: the ingestion engine
        "will keep writing new files to the open partitions so that Presto
        can read near-real time data."
        """
        if not sealed:
            self.open_partition_bypasses += 1
            return self._filesystem.list_files(directory)
        return self._cache.get_or_load(
            directory, lambda: self._filesystem.list_files(directory)
        )

    def invalidate(self, directory: str) -> None:
        """Drop a directory's entry (e.g. after a partition rewrite)."""
        self._cache.invalidate(directory)
