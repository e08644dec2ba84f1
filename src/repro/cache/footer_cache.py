"""Worker-side file handle and footer cache (section VII.B).

"Presto worker caches the file descriptors in memory to avoid long
getFileInfo calls to remote storage.  Also, a worker caches common columnar
files and stripe footers in memory ...  The reason to cache such
information in memory is due to the high hit rate of footers as they are
the indexes to the data itself."
"""

from __future__ import annotations

from typing import Optional

from repro.cache.lru import LruCache
from repro.formats.parquet.file import ParquetFile, read_footer
from repro.formats.parquet.metadata import FileMetadata
from repro.storage.filesystem import FileStatus, FileSystem


class FileHandleAndFooterCache:
    """Caches getFileInfo results and parsed Parquet footers by path.

    Entries are keyed by (path, modification time) so a rewritten file is
    re-read rather than served stale.
    """

    def __init__(
        self, filesystem: FileSystem, max_entries: int = 100_000, metrics=None
    ) -> None:
        self._filesystem = filesystem
        self._handles = LruCache(max_entries, name="file_handle", metrics=metrics)
        self._footers = LruCache(max_entries, name="footer", metrics=metrics)

    @property
    def footer_stats(self):
        return self._footers.stats

    def get_file_info(self, path: str) -> FileStatus:
        """getFileInfo through the handle cache."""
        return self._handles.get_or_load(
            path, lambda: self._filesystem.get_file_info(path)
        )

    def get_footer(self, path: str, status: Optional[FileStatus] = None) -> FileMetadata:
        """Parsed footer through the footer cache."""
        if status is None:
            status = self.get_file_info(path)
        key = (path, status.modification_time_ms)

        def load() -> FileMetadata:
            with self._filesystem.open(path) as stream:
                return read_footer(stream)

        return self._footers.get_or_load(key, load)

    def open_parquet(self, path: str) -> ParquetFile:
        """Open a Parquet file, supplying the cached footer when available."""
        status = self.get_file_info(path)
        metadata = self.get_footer(path, status)
        return ParquetFile(self._filesystem.open(path), metadata=metadata)

    def invalidate(self, path: str) -> None:
        self._handles.invalidate(path)
