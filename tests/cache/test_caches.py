"""Tests for the cache layer (section VII)."""

import pytest

from repro.cache.file_list_cache import FileListCache
from repro.cache.footer_cache import FileHandleAndFooterCache
from repro.cache.fragment_result_cache import FragmentResultCache
from repro.cache.lru import LruCache
from repro.cache.metastore_cache import VersionedMetastoreCache
from repro.core.page import Page
from repro.core.types import BIGINT, VARCHAR
from repro.formats.parquet.schema import ParquetSchema
from repro.formats.parquet.writer_native import NativeParquetWriter
from repro.metastore.metastore import HiveMetastore
from repro.storage.hdfs import HdfsFileSystem


class TestLru:
    def test_hit_miss_accounting(self):
        cache = LruCache(max_entries=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_eviction_order(self):
        cache = LruCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.stats.evictions == 1
        assert cache.lookup("b") == (False, None)
        assert cache.lookup("a") == (True, 1)

    def test_get_or_load_loads_once(self):
        cache = LruCache()
        loads = []
        for _ in range(3):
            cache.get_or_load("k", lambda: loads.append(1) or "v")
        assert len(loads) == 1

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_get_or_load_caches_none(self):
        cache = LruCache()
        loads = []
        for _ in range(3):
            assert cache.get_or_load("k", lambda: loads.append(1)) is None
        assert len(loads) == 1  # None is an ordinary cacheable value
        assert cache.stats.hits == 2

    def test_get_accepts_default(self):
        cache = LruCache()
        sentinel = object()
        assert cache.get("missing", sentinel) is sentinel
        cache.put("present", None)
        assert cache.get("present", sentinel) is None


class TestFileListCache:
    def setup_method(self):
        self.fs = HdfsFileSystem()
        self.metastore = HiveMetastore()
        self.metastore.create_table("db", "t", [("x", BIGINT)], [("p", VARCHAR)])
        self.sealed = self.metastore.add_partition("db", "t", ["sealed"])
        self.open = self.metastore.add_partition("db", "t", ["open"], sealed=False)
        self.fs.create(f"{self.sealed.location}/f1", b"x")
        self.fs.create(f"{self.open.location}/f1", b"y")
        self.cache = FileListCache(self.fs)

    def test_sealed_directory_cached(self):
        before = self.fs.namenode.stats.list_files_calls
        for _ in range(3):
            self.cache.list_files(self.sealed)
        assert self.fs.namenode.stats.list_files_calls == before + 1
        assert self.cache.stats.hits == 2

    def test_open_partition_always_remote(self):
        # Freshness: an open partition is being written by ingestion.
        before = self.fs.namenode.stats.list_files_calls
        self.cache.list_files(self.open)
        self.fs.create(f"{self.open.location}/f2", b"new data")
        files = self.cache.list_files(self.open)
        assert self.fs.namenode.stats.list_files_calls == before + 2
        assert [f.path for f in files] == [
            f"{self.open.location}/f1",
            f"{self.open.location}/f2",
        ]
        assert self.cache.open_partition_bypasses == 2

    def test_readded_partition_misses(self):
        # A rewrite adds the partition again at the same location: it is
        # another partition, listed afresh, with no invalidation call.
        self.cache.list_files(self.sealed)
        readded = self.metastore.add_partition("db", "t", ["sealed"])
        assert readded.location == self.sealed.location
        self.fs.create(f"{readded.location}/f2", b"z")
        files = self.cache.list_files(readded)
        assert [f.path for f in files] == [
            f"{readded.location}/f1",
            f"{readded.location}/f2",
        ]
        assert (self.cache.stats.hits, self.cache.stats.misses) == (0, 2)


PATH = "/data/f.parquet"


def _parquet_blob(rows: int) -> bytes:
    schema = ParquetSchema([("x", BIGINT)])
    return NativeParquetWriter(schema).write_pages(
        [Page.from_rows([BIGINT], [(i,) for i in range(rows)])]
    )


class TestFooterCache:
    def setup_method(self):
        self.fs = HdfsFileSystem()
        self.fs.create(PATH, _parquet_blob(10))
        # The version a split carries: the one its listing saw.
        (status,) = self.fs.list_files("/data")
        self.version = status.version
        self.cache = FileHandleAndFooterCache(self.fs)

    def test_get_file_info_cached(self):
        before = self.fs.namenode.stats.get_file_info_calls
        for _ in range(5):
            self.cache.open_parquet(PATH, self.version)
        assert self.fs.namenode.stats.get_file_info_calls == before + 1

    def test_footer_cached(self):
        first = self.cache.open_parquet(PATH, self.version).metadata
        second = self.cache.open_parquet(PATH, self.version).metadata
        assert first is second
        assert self.cache.footer_stats.hits == 1

    def test_rewritten_file_not_served_stale(self):
        self.cache.open_parquet(PATH, self.version)
        # Rewritten in the same simulated millisecond: the new write is a
        # new version, so the next open misses both caches.
        self.fs.create(PATH, _parquet_blob(1))
        (status,) = self.fs.list_files("/data")
        assert status.version != self.version
        file = self.cache.open_parquet(PATH, status.version)
        assert file.metadata.num_rows == 1
        assert file.read_segment(0, "x", "data")
        assert self.cache.footer_stats.misses == 2

    def test_open_parquet_uses_cached_footer(self):
        self.cache.open_parquet(PATH, self.version)
        file = self.cache.open_parquet(PATH, self.version)
        assert file.metadata.num_rows == 10
        assert self.cache.footer_stats.hits >= 1


class TestMetastoreCache:
    def test_version_keyed_invalidation(self):
        metastore = HiveMetastore()
        metastore.create_table("db", "t", [("x", BIGINT)], [("p", VARCHAR)])
        cache = VersionedMetastoreCache(metastore)
        cache.get_table("db", "t")
        cache.get_table("db", "t")
        assert cache.stats.hits == 1
        # Mutation bumps the version: next read misses (fresh data).
        metastore.add_partition("db", "t", ["a"])
        table = cache.get_table("db", "t")
        assert ("a",) in table.partitions
        assert cache.stats.misses == 2


class TestFragmentResultCache:
    def test_caches_by_plan_split_and_version(self):
        cache = FragmentResultCache()
        computed = []

        def compute():
            computed.append(1)
            return [Page.from_rows([BIGINT], [(1,)])]

        key = ("Scan(t)->Agg(count)", "split-1", 5)
        assert cache.get_or_compute_with_status(key, compute)[1] is False
        pages, hit = cache.get_or_compute_with_status(key, compute)
        assert hit and pages[0].to_rows() == [(1,)]
        assert len(computed) == 1
        # New data version → recompute.
        key2 = ("Scan(t)->Agg(count)", "split-1", 6)
        cache.get_or_compute_with_status(key2, compute)
        assert len(computed) == 2
