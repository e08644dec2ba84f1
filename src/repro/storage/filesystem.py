"""The FileSystem interface shared by HDFS and PrestoS3FileSystem.

Mirrors the Hadoop FileSystem API surface Presto uses: ``list_files``
(NameNode listFiles), ``get_file_info`` (getFileInfo), ``open`` for reads,
``create`` for writes.  Both simulated backends implement it so the Hive
connector and the caches are storage-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.obs.trace import current_tracer


def observe_storage_call(
    system: str, operation: str, sim_ms: float, metrics=None, **attributes
) -> None:
    """Account one simulated storage round trip.

    Attaches an instant ``storage`` span to whatever query trace is active
    (storage substrates are deep below the scheduler, so the tracer is
    discovered rather than threaded), and mirrors the call into
    ``storage_requests_total{system,operation}`` /
    ``storage_simulated_ms_total{system}`` when a registry is bound.
    """
    tracer = current_tracer()
    if tracer is not None:
        tracer.instant(
            "storage", system=system, operation=operation, sim_ms=sim_ms,
            **attributes,
        )
    if metrics is not None:
        metrics.counter(
            "storage_requests_total", system=system, operation=operation
        ).inc()
        metrics.counter("storage_simulated_ms_total", system=system).inc(sim_ms)


@dataclass(frozen=True)
class FileStatus:
    """Metadata for one file, as returned by listFiles/getFileInfo."""

    path: str
    size: int
    modification_time_ms: float = 0.0
    is_directory: bool = False


class SeekableInput:
    """A readable, seekable stream over one file."""

    # What the stream reads, for error messages; a file system's ``open``
    # sets the path.
    name = "<bytes>"

    def read(self, length: int) -> bytes:
        raise NotImplementedError

    def seek(self, position: int) -> None:
        raise NotImplementedError

    def tell(self) -> int:
        raise NotImplementedError

    def size(self) -> int:
        raise NotImplementedError

    def read_fully(self, position: int, length: int) -> bytes:
        self.seek(position)
        return self.read(length)

    def close(self) -> None:
        pass

    def __enter__(self) -> "SeekableInput":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class FileSystem:
    """Minimal Hadoop-style filesystem interface."""

    def list_files(self, directory: str) -> list[FileStatus]:
        """List the files directly under ``directory`` (listFiles)."""
        raise NotImplementedError

    def get_file_info(self, path: str) -> FileStatus:
        """Return one file's status (getFileInfo)."""
        raise NotImplementedError

    def exists(self, path: str) -> bool:
        raise NotImplementedError

    def open(self, path: str) -> SeekableInput:
        raise NotImplementedError

    def create(self, path: str, data: bytes) -> None:
        raise NotImplementedError

    def delete(self, path: str) -> None:
        raise NotImplementedError


class BytesInput(SeekableInput):
    """Seekable stream over an in-memory byte buffer."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read(self, length: int) -> bytes:
        chunk = self._data[self._pos : self._pos + length]
        self._pos += len(chunk)
        return chunk

    def seek(self, position: int) -> None:
        if position < 0 or position > len(self._data):
            raise ValueError(f"seek out of range: {position}")
        self._pos = position

    def tell(self) -> int:
        return self._pos

    def size(self) -> int:
        return len(self._data)
