"""PrestoS3FileSystem: a FileSystem API on top of Amazon S3 (section IX).

Implements the paper's four optimizations:

1. **Lazy seek** — ``seek`` only records the target offset; the range GET
   happens at the next ``read``, so consecutive seeks and seeks that are
   never read cost no requests.
2. **Exponential backoff** — transient S3 errors are retried with
   exponentially growing delays (charged to the simulated clock).
3. **S3 Select** — projections are pushed down so only selected bytes
   leave S3.
4. **Multipart upload** — large objects upload as parallel parts,
   improving throughput and recovery time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.common.clock import charge
from repro.common.errors import StorageError
from repro.storage.filesystem import FileStatus, FileSystem, SeekableInput
from repro.storage.s3 import S3Client, S3ServerError


@dataclass
class S3FileSystemStats:
    """Filesystem-level counters, distinct from raw S3 request stats."""

    seeks_requested: int = 0
    seeks_materialized: int = 0
    retries: int = 0
    backoff_ms_total: float = 0.0
    multipart_uploads: int = 0
    single_part_uploads: int = 0


# Ceiling on one exponential-backoff delay (simulated ms).
BACKOFF_MAX_MS = 10_000.0
# Bytes one materialized seek fetches ahead into the stream's buffer.
READ_BUFFER_SIZE = 1024 * 1024


class PrestoS3FileSystem(FileSystem):
    """FileSystem over S3 with lazy seek, backoff, select, multipart."""

    def __init__(
        self,
        client: S3Client,
        bucket: str,
        lazy_seek: bool = True,
        max_retries: int = 8,
        backoff_base_ms: float = 100.0,
        multipart_threshold: int = 16 * 1024 * 1024,
        multipart_part_size: int = 8 * 1024 * 1024,
    ) -> None:
        self.client = client
        self.bucket = bucket
        self.lazy_seek = lazy_seek
        self.max_retries = max_retries
        self.backoff_base_ms = backoff_base_ms
        self.multipart_threshold = multipart_threshold
        self.multipart_part_size = multipart_part_size
        self.stats = S3FileSystemStats()

    # -- retry with exponential backoff ------------------------------------

    def _with_backoff(self, operation: Callable[[], object]):
        attempt = 0
        while True:
            try:
                return operation()
            except S3ServerError:
                if attempt >= self.max_retries:
                    raise
                delay = min(self.backoff_base_ms * (2**attempt), BACKOFF_MAX_MS)
                charge(self.client.clock, "retry", delay)
                self.stats.retries += 1
                self.stats.backoff_ms_total += delay
                attempt += 1

    # -- FileSystem API ------------------------------------------------------

    def list_files(self, directory: str) -> list[FileStatus]:
        prefix = directory.strip("/")
        if prefix:
            prefix += "/"
        objects = self._with_backoff(lambda: self.client.list_objects(self.bucket, prefix))
        return [
            FileStatus(f"/{o.key}", o.size, o.version) for o in objects
        ]

    def get_file_info(self, path: str) -> FileStatus:
        key = path.lstrip("/")
        obj = self._with_backoff(lambda: self.client.head_object(self.bucket, key))
        return FileStatus(path, obj.size, obj.version)

    def exists(self, path: str) -> bool:
        try:
            self.get_file_info(path)
            return True
        except StorageError:
            return False

    def open(self, path: str) -> "S3Input":
        key = path.lstrip("/")
        size = self.get_file_info(path).size
        return S3Input(self, key, size)

    def create(self, path: str, data: bytes) -> None:
        key = path.lstrip("/")
        if len(data) < self.multipart_threshold:
            self.stats.single_part_uploads += 1
            self._with_backoff(lambda: self.client.put_object(self.bucket, key, data))
            return
        # Multipart: parts upload in parallel, so wall-clock cost is the
        # slowest part, not the sum (section IX optimization 4).
        self.stats.multipart_uploads += 1
        upload_id = self._with_backoff(
            lambda: self.client.create_multipart_upload(self.bucket, key)
        )
        part_costs: list[float] = []
        part_number = 0
        for start in range(0, len(data), self.multipart_part_size):
            part = data[start : start + self.multipart_part_size]
            part_number += 1
            number = part_number
            self._with_backoff(lambda: self.client.upload_part(upload_id, number, part))
            part_costs.append(self.client.part_upload_cost_ms(len(part)))
        self.client.clock.parallel_advance(part_costs)
        self._with_backoff(lambda: self.client.complete_multipart_upload(upload_id))

    def delete(self, path: str) -> None:
        key = path.lstrip("/")
        self._with_backoff(lambda: self.client.delete_object(self.bucket, key))

    # -- S3 Select passthrough ------------------------------------------------

    def select(
        self,
        path: str,
        projection: Sequence[int],
        predicate: Optional[Callable[[list[str]], bool]] = None,
    ) -> list[list[str]]:
        key = path.lstrip("/")
        return self._with_backoff(
            lambda: self.client.select_object_content(self.bucket, key, projection, predicate)
        )


class S3Input(SeekableInput):
    """Seekable S3 read stream with lazy seek.

    With ``lazy_seek`` (the default), ``seek`` records the target and the
    range GET is issued only when ``read`` needs bytes; without it, every
    seek immediately refills the buffer — the pre-optimization behaviour.
    """

    def __init__(self, fs: PrestoS3FileSystem, key: str, size: int) -> None:
        self._fs = fs
        self._key = key
        self.name = f"s3://{fs.bucket}/{key}"
        self._size = size
        self._position = 0
        # Current buffered window: [buffer_start, buffer_start + len(buffer))
        self._buffer = b""
        self._buffer_start = 0

    def size(self) -> int:
        return self._size

    def tell(self) -> int:
        return self._position

    def seek(self, position: int) -> None:
        if position < 0 or position > self._size:
            raise ValueError(f"seek out of range: {position}")
        self._fs.stats.seeks_requested += 1
        self._position = position
        if not self._fs.lazy_seek:
            # Eager behaviour: materialize the new window immediately.
            self._fill(position)

    def _fill(self, position: int) -> None:
        self._fs.stats.seeks_materialized += 1
        end = min(position + READ_BUFFER_SIZE, self._size)
        self._buffer = self._fs._with_backoff(
            lambda: self._fs.client.get_object(
                self._fs.bucket, self._key, (position, end)
            )
        )
        self._buffer_start = position

    def read(self, length: int) -> bytes:
        result = bytearray()
        while length > 0 and self._position < self._size:
            in_buffer = self._position - self._buffer_start
            if 0 <= in_buffer < len(self._buffer):
                chunk = self._buffer[in_buffer : in_buffer + length]
            else:
                self._fill(self._position)
                chunk = self._buffer[: length]
            if not chunk:
                break
            result.extend(chunk)
            self._position += len(chunk)
            length -= len(chunk)
        return bytes(result)
