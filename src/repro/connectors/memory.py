"""In-memory connector.

The simplest connector: tables are Python row lists held in memory, split
into fixed-size shards for parallel scanning.  It supports projection
pushdown (trivially — it only materializes requested columns) and declines
filter/limit/aggregation pushdown, making it the baseline against which the
pushdown-capable connectors (Druid, Pinot, MySQL) are compared.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from repro.common.errors import ConnectorError
from repro.core.page import Page
from repro.core.types import PrestoType
from repro.connectors.spi import (
    Connector,
    ConnectorMetadata,
    ConnectorRecordSetProvider,
    ConnectorSplit,
    ConnectorSplitManager,
    ConnectorTableHandle,
    project_rows,
)


class _MemoryTable:
    def __init__(
        self, columns: list[tuple[str, PrestoType]], rows: list[tuple], data_version: int
    ) -> None:
        self.columns = columns
        self.rows = rows
        # The connector's version when these rows last changed: the
        # fragment-result cache keys each split on it.
        self.data_version = data_version
        # ANALYZE results plus the row count they were computed at, so
        # stale statistics are dropped after inserts rather than served.
        self.statistics = None
        self.statistics_row_count = -1


class MemoryConnector(Connector):
    """Connector over in-memory row lists, sharded into splits."""

    name = "memory"

    def __init__(self, split_size: int = 10_000) -> None:
        self._tables: dict[tuple[str, str], _MemoryTable] = {}
        self._split_size = split_size
        # Bumped by every change a plan or a cached page could depend on:
        # create_table, insert and ANALYZE.  One counter for all tables,
        # so a replaced table never comes back at an old version.
        self._version = 0
        super().__init__(
            _MemoryMetadata(self),
            _MemorySplitManager(self),
            _MemoryRecordSetProvider(self),
        )

    def plan_version(self) -> int:
        return self._version

    def _bump(self) -> int:
        self._version += 1
        return self._version

    # -- population API ----------------------------------------------------

    def create_table(
        self,
        schema_name: str,
        table_name: str,
        columns: Sequence[tuple[str, PrestoType]],
        rows: Sequence[Sequence[Any]] = (),
    ) -> None:
        """Create (or replace) a table with the given columns and rows."""
        self._tables[(schema_name, table_name)] = _MemoryTable(
            list(columns), [tuple(r) for r in rows], self._bump()
        )

    def insert(self, schema_name: str, table_name: str, rows: Sequence[Sequence[Any]]) -> None:
        table = self._table(schema_name, table_name)
        table.rows.extend(tuple(r) for r in rows)
        table.data_version = self._bump()

    def _table(self, schema_name: str, table_name: str) -> _MemoryTable:
        table = self._tables.get((schema_name, table_name))
        if table is None:
            raise ConnectorError(f"memory table {schema_name}.{table_name} does not exist")
        return table


class _MemoryMetadata(ConnectorMetadata):
    def list_schemas(self) -> list[str]:
        return sorted({s for s, _ in self._connector._tables})

    def list_tables(self, schema_name: str) -> list[str]:
        return sorted(t for s, t in self._connector._tables if s == schema_name)

    def table_columns(
        self, schema_name: str, table_name: str
    ) -> Optional[list[tuple[str, PrestoType]]]:
        table = self._connector._tables.get((schema_name, table_name))
        return None if table is None else table.columns

    apply_projection = ConnectorMetadata.absorb_column_paths

    def collect_table_statistics(self, handle: ConnectorTableHandle):
        """ANALYZE: exact statistics, trivially — the rows are in memory."""
        from repro.metastore.statistics import statistics_from_rows

        table = self._connector._table(handle.schema_name, handle.table_name)
        table.statistics = statistics_from_rows(
            [n for n, _ in table.columns], table.rows
        )
        table.statistics_row_count = len(table.rows)
        self._connector._bump()  # the CBO's plans change; the rows do not
        return table.statistics

    def get_table_statistics(self, handle: ConnectorTableHandle):
        table = self._connector._table(handle.schema_name, handle.table_name)
        if table.statistics_row_count != len(table.rows):
            return None  # inserts since ANALYZE: stats are stale
        return table.statistics


class _MemorySplitManager(ConnectorSplitManager):
    def get_splits(self, handle: ConnectorTableHandle) -> list[ConnectorSplit]:
        table = self._connector._table(handle.schema_name, handle.table_name)
        size = self._connector._split_size
        splits = []
        total = len(table.rows)
        for start in range(0, total, size):
            end = min(start + size, total)
            splits.append(
                ConnectorSplit(
                    split_id=f"memory:{handle.schema_name}.{handle.table_name}:{start}-{end}",
                    rows=end - start,
                    info=(
                        ("start", start),
                        ("end", end),
                        ("data_version", table.data_version),
                    ),
                )
            )
        return splits


class _MemoryRecordSetProvider(ConnectorRecordSetProvider):
    PAGE_SIZE = 4096

    def pages(
        self,
        handle: ConnectorTableHandle,
        split: ConnectorSplit,
        columns: Sequence[str],
    ) -> Iterator[Page]:
        table = self._connector._table(handle.schema_name, handle.table_name)
        info = split.info_dict()
        rows = table.rows[info["start"] : info["end"]]
        for start in range(0, max(len(rows), 1), self.PAGE_SIZE):
            yield project_rows(table.columns, rows[start : start + self.PAGE_SIZE], columns)
