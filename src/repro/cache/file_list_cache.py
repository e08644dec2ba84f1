"""Coordinator-side file list cache (section VII.A).

"Presto coordinator caches file lists in memory to avoid long listFile
calls to remote storage ... This can only be applied to sealed directories.
For open partitions, Presto will skip caching those directories to
guarantee data freshness."
"""

from __future__ import annotations

from repro.cache.lru import LruCache
from repro.metastore.metastore import PartitionInfo
from repro.storage.filesystem import FileStatus, FileSystem


class FileListCache:
    """Caches ``listFiles`` results for sealed partitions only.

    Entries are keyed by (location, stamp): the stamp is the metastore
    version that added the partition, so a partition added again at the
    same location (a rewrite) is listed afresh.
    """

    def __init__(
        self, filesystem: FileSystem, max_entries: int = 100_000, metrics=None
    ) -> None:
        self._filesystem = filesystem
        self._cache = LruCache(max_entries, name="file_list", metrics=metrics)
        self.open_partition_bypasses = 0

    @property
    def stats(self):
        return self._cache.stats

    def list_files(self, partition: PartitionInfo) -> list[FileStatus]:
        """List a partition's directory; served from cache only when sealed.

        Open partitions always hit remote storage: the ingestion engine
        "will keep writing new files to the open partitions so that Presto
        can read near-real time data."
        """
        location = partition.location
        if not partition.sealed:
            self.open_partition_bypasses += 1
            return self._filesystem.list_files(location)
        return self._cache.get_or_load(
            (location, partition.stamp), lambda: self._filesystem.list_files(location)
        )
