"""Tests for simulated S3 and PrestoS3FileSystem (section IX)."""

import itertools

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import StorageError
from repro.storage.s3 import (
    REQUEST_LATENCY_MS,
    TRANSFER_MS_PER_MB,
    S3Client,
    S3ServerError,
)
from repro.storage import s3_filesystem
from repro.storage.s3_filesystem import PrestoS3FileSystem


def make_fs(**kwargs):
    client = S3Client(clock=SimulatedClock())
    return PrestoS3FileSystem(client, "warehouse", **kwargs), client


class TestS3Client:
    def test_put_get_round_trip(self):
        client = S3Client()
        client.put_object("b", "k", b"data")
        assert client.get_object("b", "k") == b"data"

    def test_range_get(self):
        client = S3Client()
        client.put_object("b", "k", b"0123456789")
        assert client.get_object("b", "k", (2, 5)) == b"234"

    def test_missing_object(self):
        with pytest.raises(StorageError):
            S3Client().get_object("b", "nope")

    def test_list_objects_prefix(self):
        client = S3Client()
        client.put_object("b", "a/1", b"x")
        client.put_object("b", "a/2", b"y")
        client.put_object("b", "c/3", b"z")
        assert [o.key for o in client.list_objects("b", "a/")] == ["a/1", "a/2"]

    def test_request_stats(self):
        client = S3Client()
        client.put_object("b", "k", b"x")
        client.get_object("b", "k")
        client.head_object("b", "k")
        assert client.stats.put_requests == 1
        assert client.stats.get_requests == 1
        assert client.stats.head_requests == 1

    def test_latency_charged(self):
        clock = SimulatedClock()
        client = S3Client(clock=clock)
        client.put_object("b", "k", b"x" * 1_000_000)
        assert clock.now_ms() >= REQUEST_LATENCY_MS + TRANSFER_MS_PER_MB


class TestS3Select:
    def test_projection_and_filter(self):
        client = S3Client()
        client.put_object("b", "t.csv", b"1,sf,10\n2,nyc,20\n3,sf,30\n")
        rows = client.select_object_content(
            "b", "t.csv", projection=[0, 2], predicate=lambda f: f[1] == "sf"
        )
        assert rows == [["1", "10"], ["3", "30"]]

    def test_select_downloads_fewer_bytes_than_get(self):
        client = S3Client()
        payload = b"\n".join(b"%d,city%d,%d" % (i, i, i * 10) for i in range(1000))
        client.put_object("b", "t.csv", payload)
        client.stats.reset()
        client.select_object_content("b", "t.csv", [0], lambda f: f[0] == "7")
        select_bytes = client.stats.bytes_downloaded
        client.stats.reset()
        client.get_object("b", "t.csv")
        full_bytes = client.stats.bytes_downloaded
        assert select_bytes < full_bytes / 100


class TestMultipartUpload:
    def test_parts_reassemble(self):
        client = S3Client()
        upload = client.create_multipart_upload("b", "big")
        client.upload_part(upload, 2, b"world")
        client.upload_part(upload, 1, b"hello ")
        client.complete_multipart_upload(upload)
        assert client.get_object("b", "big") == b"hello world"

    def test_unknown_upload_rejected(self):
        with pytest.raises(StorageError):
            S3Client().upload_part("nope", 1, b"x")


class TestLazySeek:
    def test_lazy_seek_defers_get(self):
        fs, client = make_fs()
        client.put_object("warehouse", "f", b"x" * 1000)
        stream = fs.open("/f")
        gets_before = client.stats.get_requests
        stream.seek(10)
        stream.seek(500)
        stream.seek(100)
        assert client.stats.get_requests == gets_before  # no GETs yet
        assert stream.read(5) == b"xxxxx"
        assert client.stats.get_requests == gets_before + 1

    def test_eager_seek_fetches_every_time(self):
        fs, client = make_fs(lazy_seek=False)
        client.put_object("warehouse", "f", b"x" * 1000)
        stream = fs.open("/f")
        gets_before = client.stats.get_requests
        stream.seek(10)
        stream.seek(500)
        stream.seek(100)
        assert client.stats.get_requests == gets_before + 3

    def test_read_within_buffer_is_free(self):
        fs, client = make_fs()
        client.put_object("warehouse", "f", b"0123456789" * 100)
        stream = fs.open("/f")
        stream.read(10)
        gets = client.stats.get_requests
        stream.read(10)  # still inside the 1MB buffer
        assert client.stats.get_requests == gets

    def test_tell_follows_seek_and_read(self):
        fs, client = make_fs()
        client.put_object("warehouse", "f", b"0123456789")
        stream = fs.open("/f")
        stream.seek(3)
        assert stream.tell() == 3
        assert stream.read(4) == b"3456"
        assert stream.tell() == 7

    def test_delete_removes_the_object(self):
        fs, client = make_fs()
        client.put_object("warehouse", "f", b"x")
        assert fs.exists("/f")
        fs.delete("/f")
        assert not fs.exists("/f")

    def test_read_across_windows(self, monkeypatch):
        monkeypatch.setattr(s3_filesystem, "READ_BUFFER_SIZE", 8)
        fs, client = make_fs()
        client.put_object("warehouse", "f", b"0123456789abcdef")
        stream = fs.open("/f")
        assert stream.read(12) == b"0123456789ab"


class TestExponentialBackoff:
    def test_retries_until_success(self):
        failures = itertools.chain([True, True, True], itertools.repeat(False))
        clock = SimulatedClock()
        client = S3Client(clock=clock, failure_injector=lambda op: next(failures))
        fs = PrestoS3FileSystem(client, "warehouse", backoff_base_ms=100)
        fs.create("/k", b"x")
        assert fs.stats.retries == 3
        # Delays: 100 + 200 + 400
        assert fs.stats.backoff_ms_total == 700

    def test_gives_up_after_max_retries(self):
        client = S3Client(failure_injector=lambda op: True)
        fs = PrestoS3FileSystem(client, "warehouse", max_retries=2)
        with pytest.raises(S3ServerError):
            fs.create("/k", b"x")
        assert fs.stats.retries == 2

    def test_backoff_is_exponential(self):
        failures = itertools.chain([True] * 5, itertools.repeat(False))
        client = S3Client(failure_injector=lambda op: next(failures))
        fs = PrestoS3FileSystem(client, "warehouse", backoff_base_ms=10)
        fs.create("/k", b"x")
        assert fs.stats.backoff_ms_total == 10 + 20 + 40 + 80 + 160


class TestMultipartFileSystem:
    def test_large_files_use_multipart(self):
        fs, client = make_fs(multipart_threshold=100, multipart_part_size=64)
        fs.create("/big", b"z" * 300)
        assert fs.stats.multipart_uploads == 1
        assert client.stats.multipart_part_uploads == 5  # ceil(300/64)
        assert client.get_object("warehouse", "big") == b"z" * 300

    def test_small_files_use_single_put(self):
        fs, client = make_fs(multipart_threshold=100)
        fs.create("/small", b"z" * 50)
        assert fs.stats.single_part_uploads == 1
        assert client.stats.multipart_part_uploads == 0

    def test_multipart_faster_than_sequential(self):
        # Parallel parts: wall clock ≈ one part, not the sum of parts.
        payload = b"z" * 10_000_000
        fs_multi, client_multi = make_fs(
            multipart_threshold=1, multipart_part_size=1_000_000
        )
        with_clock = client_multi.clock
        start = with_clock.now_ms()
        fs_multi.create("/big", payload)
        multipart_time = with_clock.now_ms() - start

        fs_single, client_single = make_fs(multipart_threshold=10**9)
        start = client_single.clock.now_ms()
        fs_single.create("/big", payload)
        single_time = client_single.clock.now_ms() - start
        assert multipart_time < single_time


class TestFileSystemApi:
    def test_list_files(self):
        fs, client = make_fs()
        client.put_object("warehouse", "dir/a", b"1")
        client.put_object("warehouse", "dir/b", b"22")
        files = fs.list_files("/dir")
        assert [f.path for f in files] == ["/dir/a", "/dir/b"]
        assert [f.size for f in files] == [1, 2]

    def test_every_write_gets_a_new_version(self):
        fs, client = make_fs(multipart_threshold=4, multipart_part_size=2)
        versions = []
        for data in (b"1", b"22", b"333333"):  # the last one multipart
            fs.create("/k", data)
            versions.append(fs.get_file_info("/k").version)
        fs.delete("/k")
        client.put_object("warehouse", "k", b"1")
        versions.append(fs.list_files("/")[0].version)
        assert len(set(versions)) == 4

    def test_exists(self):
        fs, client = make_fs()
        client.put_object("warehouse", "x", b"1")
        assert fs.exists("/x")
        assert not fs.exists("/y")

    def test_select_passthrough(self):
        fs, client = make_fs()
        client.put_object("warehouse", "t.csv", b"1,a\n2,b\n")
        assert fs.select("/t.csv", [1]) == [["a"], ["b"]]
