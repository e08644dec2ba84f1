"""Worker-side file handle and footer cache (section VII.B).

"Presto worker caches the file descriptors in memory to avoid long
getFileInfo calls to remote storage.  Also, a worker caches common columnar
files and stripe footers in memory ...  The reason to cache such
information in memory is due to the high hit rate of footers as they are
the indexes to the data itself."
"""

from __future__ import annotations

from repro.cache.lru import LruCache
from repro.formats.parquet.file import ParquetFile, read_footer
from repro.storage.filesystem import FileSystem


class FileHandleAndFooterCache:
    """Caches getFileInfo results and parsed Parquet footers.

    Both are keyed by (path, version), the version being the write the
    split's listing saw, so a rewritten file is a new key and is re-read
    rather than served stale.
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

    def open_parquet(self, path: str, version: int) -> ParquetFile:
        """Open one version of a Parquet file: getFileInfo through the
        handle cache, the parsed footer through the footer cache."""
        key = (path, version)
        self._handles.get_or_load(key, lambda: self._filesystem.get_file_info(path))

        def load_footer():
            with self._filesystem.open(path) as stream:
                return read_footer(stream)

        metadata = self._footers.get_or_load(key, load_footer)
        return ParquetFile(self._filesystem.open(path), metadata=metadata)
