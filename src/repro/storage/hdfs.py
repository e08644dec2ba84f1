"""Simulated HDFS: a NameNode with call accounting and latency modeling.

Section VII: "the single Hadoop Distributed File System (HDFS) NameNode
listFiles performance degradation could hurt Presto performance badly."
The NameNode here counts every ``listFiles`` / ``getFileInfo`` call and
charges per-call latency to the simulated clock; the file-list and footer
caches are evaluated by how many of those calls they eliminate.

The NameNode also models load-dependent degradation: latency grows with
the call rate, reproducing the "listFiles stuck" incidents of section
XII.D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.clock import SimulatedClock
from repro.common.errors import StorageError
from repro.storage.filesystem import (
    BytesInput,
    FileStatus,
    FileSystem,
    SeekableInput,
    observe_storage_call,
)


# Simulated latency model (ms): a listFiles call plus a per-entry component
# (big directories are slower to list), a getFileInfo call, the multiplier
# an overloaded NameNode applies to both, and datanode reads per MB.
LIST_FILES_LATENCY_MS = 20.0
PER_ENTRY_LATENCY_MS = 0.01
GET_FILE_INFO_LATENCY_MS = 2.0
DEGRADATION_FACTOR = 10.0
READ_LATENCY_MS_PER_MB = 5.0


@dataclass
class NameNodeStats:
    list_files_calls: int = 0
    get_file_info_calls: int = 0
    open_calls: int = 0

    def reset(self) -> None:
        self.list_files_calls = 0
        self.get_file_info_calls = 0
        self.open_calls = 0


class NameNode:
    """HDFS metadata server with per-call latency and overload degradation.

    ``LIST_FILES_LATENCY_MS`` applies per listFiles call plus
    ``PER_ENTRY_LATENCY_MS`` per entry.  When the metadata call rate within
    the last simulated second exceeds
    ``degradation_threshold_calls_per_sec``, latency multiplies by
    ``DEGRADATION_FACTOR`` — the
    "single HDFS NameNode listFiles performance degradation [that] could
    hurt Presto performance badly" (sections VII, XII.D).
    """

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        degradation_threshold_calls_per_sec: int = 1000,
    ) -> None:
        self.clock = clock or SimulatedClock()
        self.degradation_threshold_calls_per_sec = degradation_threshold_calls_per_sec
        self.stats = NameNodeStats()
        self.metrics = None
        # path → FileStatus for files; directories implied by prefixes
        self._files: dict[str, FileStatus] = {}
        self._data: dict[str, bytes] = {}
        from collections import deque

        self._recent_calls: "deque[float]" = deque()

    def bind_metrics(self, metrics) -> None:
        """Report future metadata RPCs into ``metrics``."""
        self.metrics = metrics

    def _overload_multiplier(self) -> float:
        """Latency multiplier based on the last simulated second's rate."""
        now = self.clock.now_ms()
        self._recent_calls.append(now)
        while self._recent_calls and self._recent_calls[0] < now - 1_000.0:
            self._recent_calls.popleft()
        if len(self._recent_calls) > self.degradation_threshold_calls_per_sec:
            return DEGRADATION_FACTOR
        return 1.0

    # -- namespace management ------------------------------------------------

    def put_file(self, path: str, data: bytes, modification_time_ms: float = 0.0) -> None:
        path = _normalize(path)
        self._files[path] = FileStatus(path, len(data), modification_time_ms)
        self._data[path] = data

    def delete_file(self, path: str) -> None:
        path = _normalize(path)
        self._files.pop(path, None)
        self._data.pop(path, None)

    def file_data(self, path: str) -> bytes:
        path = _normalize(path)
        if path not in self._data:
            raise StorageError(f"HDFS: no such file {path}")
        return self._data[path]

    # -- metadata RPCs (the calls the caches eliminate) -------------------------

    def list_files(self, directory: str) -> list[FileStatus]:
        self.stats.list_files_calls += 1
        multiplier = self._overload_multiplier()
        directory = _normalize(directory).rstrip("/") + "/"
        entries = [
            status
            for path, status in sorted(self._files.items())
            if path.startswith(directory) and "/" not in path[len(directory) :]
        ]
        latency = multiplier * (
            LIST_FILES_LATENCY_MS + PER_ENTRY_LATENCY_MS * len(entries)
        )
        self.clock.advance(latency)
        observe_storage_call(
            "hdfs", "listFiles", latency, self.metrics, entries=len(entries)
        )
        return entries

    def get_file_info(self, path: str) -> FileStatus:
        self.stats.get_file_info_calls += 1
        latency = GET_FILE_INFO_LATENCY_MS * self._overload_multiplier()
        self.clock.advance(latency)
        observe_storage_call("hdfs", "getFileInfo", latency, self.metrics)
        path = _normalize(path)
        status = self._files.get(path)
        if status is None:
            raise StorageError(f"HDFS: no such file {path}")
        return status

    def exists(self, path: str) -> bool:
        path = _normalize(path)
        if path in self._files:
            return True
        prefix = path.rstrip("/") + "/"
        return any(p.startswith(prefix) for p in self._files)


class HdfsFileSystem(FileSystem):
    """FileSystem facade over a NameNode (+ implicit datanodes)."""

    def __init__(self, namenode: Optional[NameNode] = None) -> None:
        self.namenode = namenode or NameNode()

    @property
    def clock(self) -> SimulatedClock:
        return self.namenode.clock

    def list_files(self, directory: str) -> list[FileStatus]:
        return self.namenode.list_files(directory)

    def get_file_info(self, path: str) -> FileStatus:
        return self.namenode.get_file_info(path)

    def exists(self, path: str) -> bool:
        return self.namenode.exists(path)

    def open(self, path: str) -> SeekableInput:
        self.namenode.stats.open_calls += 1
        data = self.namenode.file_data(path)
        latency = READ_LATENCY_MS_PER_MB * len(data) / 1_000_000
        self.clock.advance(latency)
        observe_storage_call(
            "hdfs", "open", latency, self.namenode.metrics, bytes=len(data)
        )
        stream = BytesInput(data)
        stream.name = path
        return stream

    def create(self, path: str, data: bytes) -> None:
        self.namenode.put_file(path, data, self.clock.now_ms())

    def delete(self, path: str) -> None:
        self.namenode.delete_file(path)


def _normalize(path: str) -> str:
    if path.startswith("hdfs://"):
        path = path[len("hdfs://") :]
        path = path[path.index("/") :] if "/" in path else "/"
    if not path.startswith("/"):
        path = "/" + path
    return path
