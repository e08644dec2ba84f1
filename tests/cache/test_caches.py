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

    def test_invalidate(self):
        cache = LruCache()
        cache.put("a", 1)
        cache.invalidate("a")
        assert cache.get("a") is None

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_invalidating_cached_none_counts(self):
        # Regression: invalidate() tested truthiness, so a cached None (a
        # legitimate value: file with no footer, metastore miss) was
        # popped without counting the invalidation.
        cache = LruCache()
        cache.put("a", None)
        cache.invalidate("a")
        assert cache.stats.invalidations == 1
        assert cache.lookup("a") == (False, None)

    def test_invalidating_absent_key_does_not_count(self):
        cache = LruCache()
        cache.invalidate("never-cached")
        assert cache.stats.invalidations == 0

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
        self.fs.create("/t/sealed/f1", b"x")
        self.fs.create("/t/open/f1", b"y")
        self.cache = FileListCache(self.fs)

    def test_sealed_directory_cached(self):
        before = self.fs.namenode.stats.list_files_calls
        self.cache.list_files("/t/sealed", sealed=True)
        self.cache.list_files("/t/sealed", sealed=True)
        self.cache.list_files("/t/sealed", sealed=True)
        assert self.fs.namenode.stats.list_files_calls == before + 1
        assert self.cache.stats.hits == 2

    def test_open_partition_always_remote(self):
        # Freshness: an open partition is being written by ingestion.
        before = self.fs.namenode.stats.list_files_calls
        self.cache.list_files("/t/open", sealed=False)
        self.fs.create("/t/open/f2", b"new data")
        files = self.cache.list_files("/t/open", sealed=False)
        assert self.fs.namenode.stats.list_files_calls == before + 2
        assert [f.path for f in files] == ["/t/open/f1", "/t/open/f2"]
        assert self.cache.open_partition_bypasses == 2

    def test_invalidate(self):
        self.cache.list_files("/t/sealed", sealed=True)
        self.cache.invalidate("/t/sealed")
        before = self.fs.namenode.stats.list_files_calls
        self.cache.list_files("/t/sealed", sealed=True)
        assert self.fs.namenode.stats.list_files_calls == before + 1


class TestFooterCache:
    def setup_method(self):
        self.fs = HdfsFileSystem()
        schema = ParquetSchema([("x", BIGINT)])
        blob = NativeParquetWriter(schema).write_pages(
            [Page.from_rows([BIGINT], [(i,) for i in range(10)])]
        )
        self.fs.create("/data/f.parquet", blob)
        self.cache = FileHandleAndFooterCache(self.fs)

    def test_get_file_info_cached(self):
        before = self.fs.namenode.stats.get_file_info_calls
        for _ in range(5):
            self.cache.get_file_info("/data/f.parquet")
        assert self.fs.namenode.stats.get_file_info_calls == before + 1

    def test_footer_cached(self):
        first = self.cache.get_footer("/data/f.parquet")
        second = self.cache.get_footer("/data/f.parquet")
        assert first is second
        assert self.cache.footer_stats.hits == 1

    def test_rewritten_file_not_served_stale(self):
        self.cache.get_footer("/data/f.parquet")
        # Rewrite with different contents and a new modification time.
        self.fs.clock.advance(1000)
        schema = ParquetSchema([("x", BIGINT)])
        blob = NativeParquetWriter(schema).write_pages(
            [Page.from_rows([BIGINT], [(99,)])]
        )
        self.fs.create("/data/f.parquet", blob)
        self.cache.invalidate("/data/f.parquet")  # handle refresh
        footer = self.cache.get_footer("/data/f.parquet")
        assert footer.num_rows == 1

    def test_open_parquet_uses_cached_footer(self):
        self.cache.get_footer("/data/f.parquet")
        file = self.cache.open_parquet("/data/f.parquet")
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
