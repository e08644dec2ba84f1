"""Simulated Amazon S3: an object store with latency and failure injection.

Models the S3 behaviours the paper's PrestoS3FileSystem optimizations
target (section IX): per-request latency (so avoided requests are visible),
range GETs (so lazy seek saves work), transient throttling errors (so
exponential backoff is exercised), S3 Select (server-side projection and
filtering), and multipart uploads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.common.clock import SimulatedClock
from repro.common.errors import StorageError
from repro.storage.filesystem import observe_storage_call


# Simulated latency model (ms): a fixed cost per request plus transfer time
# per MB of payload.
REQUEST_LATENCY_MS = 10.0
TRANSFER_MS_PER_MB = 20.0


class S3ServerError(StorageError):
    """Transient 5xx/throttling failure; the caller should back off."""


@dataclass(frozen=True)
class S3Object:
    key: str
    size: int
    last_modified_ms: float = 0.0


@dataclass
class S3Stats:
    get_requests: int = 0
    put_requests: int = 0
    list_requests: int = 0
    head_requests: int = 0
    select_requests: int = 0
    multipart_part_uploads: int = 0
    bytes_downloaded: int = 0
    bytes_uploaded: int = 0
    failed_requests: int = 0

    def total_requests(self) -> int:
        return (
            self.get_requests
            + self.put_requests
            + self.list_requests
            + self.head_requests
            + self.select_requests
            + self.multipart_part_uploads
        )

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


class S3Client:
    """The simulated S3 service endpoint.

    ``failure_injector`` is called before each request with the operation
    name; returning True makes that request fail with
    :class:`S3ServerError` (used by the backoff experiments).
    """

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        failure_injector: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self.clock = clock or SimulatedClock()
        self.failure_injector = failure_injector
        self.stats = S3Stats()
        self.metrics = None
        self._objects: dict[tuple[str, str], bytes] = {}
        self._mtimes: dict[tuple[str, str], float] = {}
        self._multipart: dict[str, dict] = {}
        self._next_upload_id = 0

    # -- internals ------------------------------------------------------------

    def bind_metrics(self, metrics) -> None:
        """Report future requests into ``metrics``."""
        self.metrics = metrics

    def _request(self, operation: str, payload_bytes: int = 0) -> None:
        if self.failure_injector is not None and self.failure_injector(operation):
            self.stats.failed_requests += 1
            self.clock.advance(REQUEST_LATENCY_MS)
            observe_storage_call(
                "s3", operation, REQUEST_LATENCY_MS, self.metrics, failed=True
            )
            raise S3ServerError(f"S3 {operation}: service unavailable (injected)")
        latency = REQUEST_LATENCY_MS + TRANSFER_MS_PER_MB * payload_bytes / 1_000_000
        self.clock.advance(latency)
        observe_storage_call("s3", operation, latency, self.metrics)

    def _require(self, bucket: str, key: str) -> bytes:
        data = self._objects.get((bucket, key))
        if data is None:
            raise StorageError(f"S3: no such object s3://{bucket}/{key}")
        return data

    # -- object API --------------------------------------------------------------

    def put_object(self, bucket: str, key: str, data: bytes) -> None:
        self._request("PutObject", len(data))
        self.stats.put_requests += 1
        self.stats.bytes_uploaded += len(data)
        self._objects[(bucket, key)] = data
        self._mtimes[(bucket, key)] = self.clock.now_ms()

    def get_object(
        self, bucket: str, key: str, byte_range: Optional[tuple[int, int]] = None
    ) -> bytes:
        data = self._require(bucket, key)
        if byte_range is not None:
            start, end = byte_range
            chunk = data[start:end]
        else:
            chunk = data
        self._request("GetObject", len(chunk))
        self.stats.get_requests += 1
        self.stats.bytes_downloaded += len(chunk)
        return chunk

    def head_object(self, bucket: str, key: str) -> S3Object:
        data = self._require(bucket, key)
        self._request("HeadObject")
        self.stats.head_requests += 1
        return S3Object(key, len(data), self._mtimes.get((bucket, key), 0.0))

    def list_objects(self, bucket: str, prefix: str = "") -> list[S3Object]:
        self._request("ListObjectsV2")
        self.stats.list_requests += 1
        return [
            S3Object(key, len(data), self._mtimes.get((b, key), 0.0))
            for (b, key), data in sorted(self._objects.items())
            if b == bucket and key.startswith(prefix)
        ]

    def delete_object(self, bucket: str, key: str) -> None:
        self._request("DeleteObject")
        self._objects.pop((bucket, key), None)
        self._mtimes.pop((bucket, key), None)

    # -- S3 Select ------------------------------------------------------------------

    def select_object_content(
        self,
        bucket: str,
        key: str,
        projection: Sequence[int],
        predicate: Optional[Callable[[list[str]], bool]] = None,
        delimiter: str = ",",
    ) -> list[list[str]]:
        """Server-side scan of a CSV object: project columns, filter rows.

        Only the *result* bytes are charged as transfer — that is the whole
        point of pushing projections "directly to Amazon S3 to get optimal
        performance" (section IX).
        """
        data = self._require(bucket, key)
        rows: list[list[str]] = []
        result_bytes = 0
        for line in data.decode("utf-8").splitlines():
            if not line:
                continue
            fields = line.split(delimiter)
            if predicate is not None and not predicate(fields):
                continue
            selected = [fields[i] for i in projection]
            result_bytes += sum(len(f) for f in selected)
            rows.append(selected)
        self._request("SelectObjectContent", result_bytes)
        self.stats.select_requests += 1
        self.stats.bytes_downloaded += result_bytes
        return rows

    # -- multipart upload -----------------------------------------------------------

    def create_multipart_upload(self, bucket: str, key: str) -> str:
        self._request("CreateMultipartUpload")
        upload_id = f"upload-{self._next_upload_id}"
        self._next_upload_id += 1
        self._multipart[upload_id] = {"bucket": bucket, "key": key, "parts": {}}
        return upload_id

    def upload_part(self, upload_id: str, part_number: int, data: bytes) -> None:
        if upload_id not in self._multipart:
            raise StorageError(f"S3: unknown multipart upload {upload_id}")
        # The request itself is charged here; the *parallel* wall-clock
        # benefit is modeled by the caller via clock.parallel_advance.
        if self.failure_injector is not None and self.failure_injector("UploadPart"):
            self.stats.failed_requests += 1
            raise S3ServerError("S3 UploadPart: service unavailable (injected)")
        self.stats.multipart_part_uploads += 1
        self.stats.bytes_uploaded += len(data)
        self._multipart[upload_id]["parts"][part_number] = data

    def part_upload_cost_ms(self, part_size: int) -> float:
        return REQUEST_LATENCY_MS + TRANSFER_MS_PER_MB * part_size / 1_000_000

    def complete_multipart_upload(self, upload_id: str) -> None:
        upload = self._multipart.pop(upload_id, None)
        if upload is None:
            raise StorageError(f"S3: unknown multipart upload {upload_id}")
        self._request("CompleteMultipartUpload")
        assembled = b"".join(
            data for _, data in sorted(upload["parts"].items())
        )
        self._objects[(upload["bucket"], upload["key"])] = assembled
        self._mtimes[(upload["bucket"], upload["key"])] = self.clock.now_ms()

    def abort_multipart_upload(self, upload_id: str) -> None:
        self._multipart.pop(upload_id, None)
