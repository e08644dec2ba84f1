"""An Iceberg-style table format: snapshots over immutable data files.

Structure on the (simulated) filesystem::

    <location>/data/<uuid>.parquet     immutable data files
    <location>/metadata/...            (implicit: kept in memory here)

Every mutation — append, overwrite-where (update), delete-where — commits
a new :class:`Snapshot` listing the exact set of live data files.  Readers
pin a snapshot, so queries are isolated from concurrent writes and *time
travel* to any historical snapshot is free.  Updates and deletes use
copy-on-write: affected files are rewritten without the matching rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.common.errors import ConnectorError
from repro.core.evaluator import Evaluator
from repro.core.expressions import RowExpression
from repro.core.page import Page
from repro.core.types import PrestoType
from repro.formats.parquet.file import ParquetFile
from repro.formats.parquet.reader_new import NewParquetReader
from repro.formats.parquet.schema import ParquetSchema
from repro.formats.parquet.writer_native import NativeParquetWriter
from repro.storage.filesystem import FileSystem


@dataclass(frozen=True)
class DataFile:
    """One immutable data file tracked by a manifest."""

    path: str
    row_count: int


@dataclass(frozen=True)
class Snapshot:
    """One committed table version: the set of live data files.

    ``properties`` is the snapshot summary — small string key/value pairs
    committed atomically with the file list (Iceberg's snapshot summary
    map).  The streaming pipeline stores its sealed offset watermark here,
    which is what makes hybrid reads exactly-once: a row's visibility is
    decided by one atomically-committed value, never by two systems
    agreeing.
    """

    snapshot_id: int
    operation: str  # 'append' | 'overwrite' | 'delete'
    files: tuple[DataFile, ...]
    parent_id: Optional[int] = None
    properties: tuple[tuple[str, str], ...] = ()

    @property
    def row_count(self) -> int:
        return sum(f.row_count for f in self.files)

    def properties_dict(self) -> dict[str, str]:
        return dict(self.properties)


class IcebergTable:
    """A snapshot-versioned table over immutable Parquet files."""

    def __init__(
        self,
        filesystem: FileSystem,
        location: str,
        columns: Sequence[tuple[str, PrestoType]],
        row_group_size: int = 10_000,
    ) -> None:
        self.filesystem = filesystem
        self.location = location.rstrip("/")
        self.columns = list(columns)
        self.schema = ParquetSchema(self.columns)
        self.row_group_size = row_group_size
        self._snapshots: list[Snapshot] = [Snapshot(0, "create", ())]
        self._file_ids = itertools.count()
        self._evaluator = Evaluator()

    # -- snapshot access -----------------------------------------------------

    def current_snapshot(self) -> Snapshot:
        return self._snapshots[-1]

    def snapshot(self, snapshot_id: int) -> Snapshot:
        for snapshot in self._snapshots:
            if snapshot.snapshot_id == snapshot_id:
                return snapshot
        raise ConnectorError(f"no snapshot {snapshot_id} in {self.location}")

    def history(self) -> list[Snapshot]:
        return list(self._snapshots)

    def _commit(
        self,
        operation: str,
        files: Sequence[DataFile],
        properties: Sequence[tuple[str, str]] = (),
    ) -> Snapshot:
        parent = self.current_snapshot()
        snapshot = Snapshot(
            parent.snapshot_id + 1,
            operation,
            tuple(files),
            parent.snapshot_id,
            tuple(properties),
        )
        self._snapshots.append(snapshot)
        return snapshot

    # -- writes ----------------------------------------------------------------

    def write_data_file(self, rows: Sequence[tuple]) -> DataFile:
        page = Page.from_rows([t for _, t in self.columns], list(rows))
        blob = NativeParquetWriter(
            self.schema, row_group_size=self.row_group_size
        ).write_pages([page])
        path = f"{self.location}/data/{next(self._file_ids):08d}.parquet"
        self.filesystem.create(path, blob)
        return DataFile(path, len(rows))

    def append(
        self,
        rows: Sequence[tuple],
        properties: Sequence[tuple[str, str]] = (),
    ) -> Snapshot:
        """Append rows as a new data file (fast, no rewrites)."""
        if not rows:
            return self._commit("append", self.current_snapshot().files, properties)
        new_file = self.write_data_file(rows)
        return self.commit_add_files([new_file], properties=properties)

    def commit_add_files(
        self,
        new_files: Sequence[DataFile],
        operation: str = "append",
        properties: Sequence[tuple[str, str]] = (),
    ) -> Snapshot:
        """Atomically commit already-written data files as a new snapshot.

        The write/commit split is what gives writers (the streaming
        compactor) a real commit point: a crash after :meth:`write_data_file`
        but before this call leaves an orphan file the table never
        references — invisible to every reader, exactly like an aborted
        Iceberg commit.
        """
        return self._commit(
            operation, self.current_snapshot().files + tuple(new_files), properties
        )

    def delete_where(self, predicate: RowExpression) -> Snapshot:
        """Row-level delete: copy-on-write rewrite of affected files."""
        return self._rewrite(predicate, update=None, operation="delete")

    def update_where(
        self,
        predicate: RowExpression,
        update: Callable[[tuple], tuple],
    ) -> Snapshot:
        """Row-level update: matching rows are transformed, others kept."""
        return self._rewrite(predicate, update=update, operation="overwrite")

    def _rewrite(
        self,
        predicate: RowExpression,
        update: Optional[Callable[[tuple], tuple]],
        operation: str,
    ) -> Snapshot:
        kept_files: list[DataFile] = []
        rewritten: list[DataFile] = []
        for data_file in self.current_snapshot().files:
            rows = self.read_file_rows(data_file)
            matches = self._evaluator.row_mask(predicate, self.columns, rows)
            if not any(matches):
                kept_files.append(data_file)  # untouched files stay as-is
                continue
            new_rows: list[tuple] = []
            for row, matched in zip(rows, matches):
                if not matched:
                    new_rows.append(row)
                elif update is not None:
                    new_rows.append(update(row))
            if new_rows:
                rewritten.append(self.write_data_file(new_rows))
        return self._commit(operation, kept_files + rewritten)

    # -- reads ---------------------------------------------------------------------

    def read_file_rows(self, data_file: DataFile) -> list[tuple]:
        file = ParquetFile(self.filesystem.open(data_file.path))
        reader = NewParquetReader(file, [n for n, _ in self.columns])
        return [row for page in reader.read_pages() for row in page.loaded().rows()]

    def scan_files(self, snapshot_id: Optional[int] = None) -> tuple[Snapshot, tuple[DataFile, ...]]:
        snapshot = (
            self.current_snapshot() if snapshot_id is None else self.snapshot(snapshot_id)
        )
        return snapshot, snapshot.files
