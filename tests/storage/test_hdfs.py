"""Tests for the simulated HDFS NameNode and filesystem."""

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import StorageError
from repro.storage import hdfs
from repro.storage.hdfs import GET_FILE_INFO_LATENCY_MS, HdfsFileSystem, NameNode


@pytest.fixture
def fs():
    clock = SimulatedClock()
    namenode = NameNode(clock=clock)
    fs = HdfsFileSystem(namenode)
    fs.create("/warehouse/trips/datestr=2017-03-02/part-0.parquet", b"aaa")
    fs.create("/warehouse/trips/datestr=2017-03-02/part-1.parquet", b"bbbb")
    fs.create("/warehouse/trips/datestr=2017-03-03/part-0.parquet", b"cc")
    return fs


class TestListFiles:
    def test_lists_only_direct_children(self, fs):
        files = fs.list_files("/warehouse/trips/datestr=2017-03-02")
        assert [f.path for f in files] == [
            "/warehouse/trips/datestr=2017-03-02/part-0.parquet",
            "/warehouse/trips/datestr=2017-03-02/part-1.parquet",
        ]

    def test_sizes(self, fs):
        files = fs.list_files("/warehouse/trips/datestr=2017-03-02")
        assert [f.size for f in files] == [3, 4]

    def test_counts_calls(self, fs):
        before = fs.namenode.stats.list_files_calls
        fs.list_files("/warehouse/trips/datestr=2017-03-02")
        fs.list_files("/warehouse/trips/datestr=2017-03-03")
        assert fs.namenode.stats.list_files_calls == before + 2

    def test_charges_latency(self, fs):
        start = fs.clock.now_ms()
        fs.list_files("/warehouse/trips/datestr=2017-03-02")
        assert fs.clock.now_ms() > start

    def test_empty_directory(self, fs):
        assert fs.list_files("/nowhere") == []


class TestGetFileInfo:
    def test_returns_status(self, fs):
        status = fs.get_file_info("/warehouse/trips/datestr=2017-03-02/part-1.parquet")
        assert status.size == 4

    def test_missing_file_raises(self, fs):
        with pytest.raises(StorageError):
            fs.get_file_info("/missing")

    def test_counts_calls(self, fs):
        before = fs.namenode.stats.get_file_info_calls
        fs.get_file_info("/warehouse/trips/datestr=2017-03-02/part-0.parquet")
        assert fs.namenode.stats.get_file_info_calls == before + 1


class TestOverloadDegradation:
    def test_metadata_storm_multiplies_latency(self, monkeypatch):
        # Section XII.D: "performance degradation is due to the single
        # HDFS NameNode listFiles stuck".  With a low QPS ceiling, a
        # metadata storm crosses the knee and calls get 10x slower.
        monkeypatch.setattr(hdfs, "DEGRADATION_THRESHOLD_CALLS_PER_SEC", 10)
        namenode = NameNode()
        fs = HdfsFileSystem(namenode)
        fs.create("/d/f", b"x")

        start = namenode.clock.now_ms()
        for _ in range(10):
            namenode.get_file_info("/d/f")
        healthy_ms = namenode.clock.now_ms() - start

        start = namenode.clock.now_ms()
        for _ in range(10):
            namenode.get_file_info("/d/f")
        degraded_ms = namenode.clock.now_ms() - start
        assert degraded_ms > healthy_ms * 5

    def test_default_threshold_unreachable_sequentially(self):
        namenode = NameNode()
        fs = HdfsFileSystem(namenode)
        fs.create("/d/f", b"x")
        per_call = []
        for _ in range(20):
            start = namenode.clock.now_ms()
            namenode.get_file_info("/d/f")
            per_call.append(namenode.clock.now_ms() - start)
        assert max(per_call) == min(per_call)  # no degradation kicks in

    def test_recovery_after_quiet_period(self, monkeypatch):
        monkeypatch.setattr(hdfs, "DEGRADATION_THRESHOLD_CALLS_PER_SEC", 5)
        namenode = NameNode()
        fs = HdfsFileSystem(namenode)
        fs.create("/d/f", b"x")
        for _ in range(12):
            namenode.get_file_info("/d/f")
        namenode.clock.advance(5_000)  # storm passes
        start = namenode.clock.now_ms()
        namenode.get_file_info("/d/f")
        assert namenode.clock.now_ms() - start == GET_FILE_INFO_LATENCY_MS


class TestReadWrite:
    def test_round_trip(self, fs):
        fs.create("/tmp/x", b"hello world")
        with fs.open("/tmp/x") as stream:
            assert stream.read(5) == b"hello"
            stream.seek(6)
            assert stream.read(100) == b"world"

    def test_read_fully(self, fs):
        fs.create("/tmp/y", b"0123456789")
        with fs.open("/tmp/y") as stream:
            assert stream.read_fully(3, 4) == b"3456"

    def test_delete(self, fs):
        fs.create("/tmp/z", b"x")
        assert fs.exists("/tmp/z")
        fs.delete("/tmp/z")
        assert not fs.exists("/tmp/z")

    def test_exists_for_directory_prefix(self, fs):
        assert fs.exists("/warehouse/trips")

    def test_hdfs_url_normalization(self, fs):
        fs.create("hdfs://namenode:8020/tmp/url", b"data")
        assert fs.exists("/tmp/url")

    def test_every_write_gets_a_new_version(self, fs):
        # No clock advance: a modification time would read the same.
        versions = []
        for data in (b"a", b"b", b"c"):
            fs.create("/tmp/v", data)
            versions.append(fs.get_file_info("/tmp/v").version)
        fs.delete("/tmp/v")
        fs.create("/tmp/v", b"a")
        versions.append(fs.list_files("/tmp")[-1].version)
        assert len(set(versions)) == 4
