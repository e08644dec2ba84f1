"""The Presto-Iceberg connector: querying update-able data lakes.

Tables resolve by name; time travel uses the Iceberg-style suffix
``table$snapshot=<id>`` to pin a historical snapshot.  Scans split per
data file; predicate pushdown reaches the Parquet reader as in the Hive
connector.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.common.errors import ConnectorError
from repro.connectors.lakehouse.table_format import IcebergTable
from repro.connectors.spi import (
    Connector,
    ConnectorSplit,
    ConnectorTableHandle,
    SingleSchemaConnector,
    project_rows,
)
from repro.core.page import Page
from repro.core.types import PrestoType
from repro.formats.parquet.file import ParquetFile
from repro.formats.parquet.reader_new import NewParquetReader

SNAPSHOT_SUFFIX = "$snapshot="


class IcebergConnector(SingleSchemaConnector):
    """Connector over a set of registered :class:`IcebergTable` objects."""

    name = "iceberg"

    def __init__(self, schema_name: str = "lake") -> None:
        self.schema_name = schema_name
        self._tables: dict[str, IcebergTable] = {}

    def register_table(self, name: str, table: IcebergTable) -> None:
        self._tables[name] = table

    def table(self, name: str) -> IcebergTable:
        table = self._tables.get(name)
        if table is None:
            raise ConnectorError(f"iceberg: no table {name!r}")
        return table

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def columns_of(self, table_name: str) -> Optional[list[tuple[str, PrestoType]]]:
        base, snapshot_id = _parse_table_name(table_name)
        table = self._tables.get(base)
        if table is None:
            return None
        if snapshot_id is not None:
            # Validate eagerly so bad snapshot ids fail at analysis time.
            table.snapshot(snapshot_id)
        return table.columns

    # The parquet reader evaluates any predicate over the table's columns.
    absorb_conjunct = Connector.absorb_over_own_columns

    apply_projection = Connector.absorb_column_paths

    def get_splits(self, handle: ConnectorTableHandle) -> list[ConnectorSplit]:
        base, snapshot_id = _parse_table_name(handle.table_name)
        table = self.table(base)
        snapshot, files = table.scan_files(snapshot_id)
        return [
            ConnectorSplit(
                split_id=f"iceberg:{data_file.path}@{snapshot.snapshot_id}",
                rows=data_file.row_count,
                info=(
                    ("path", data_file.path),
                    ("data_version", snapshot.snapshot_id),
                ),
            )
            for data_file in files
        ]

    def pages(
        self,
        handle: ConnectorTableHandle,
        split: ConnectorSplit,
        columns: Sequence[str],
    ) -> Iterator[Page]:
        base, _ = _parse_table_name(handle.table_name)
        table = self.table(base)
        path = split.info_dict()["path"]
        yield from data_file_pages(
            ParquetFile(table.filesystem.open(path)), handle, columns, table.columns
        )


def _parse_table_name(name: str) -> tuple[str, Optional[int]]:
    """``trips$snapshot=3`` → ("trips", 3); plain names → (name, None)."""
    if SNAPSHOT_SUFFIX in name:
        base, _, snapshot = name.partition(SNAPSHOT_SUFFIX)
        try:
            return base, int(snapshot)
        except ValueError as error:
            raise ConnectorError(f"bad snapshot id in {name!r}") from error
    return name, None


def data_file_pages(
    file: ParquetFile,
    handle: ConnectorTableHandle,
    columns: Sequence[str],
    layout: Sequence[tuple[str, PrestoType]],
) -> Iterator[Page]:
    """Stream one parquet data file with the handle's constraint pushed
    into the reader; one empty typed page when no row group survives."""
    reader = NewParquetReader(
        file, list(columns), predicate=handle.constraint_expression()
    )
    produced = False
    for page in reader.read_pages():
        produced = True
        yield page
    if not produced:
        yield project_rows(layout, [], columns)
