"""In-memory connector: a columnar store over row tuples.

A table keeps the Python row tuples it was created and inserted with; they
are its input of record, and ``ANALYZE`` reads them.  The table is cut
into fixed-size splits for parallel scanning.  The first scan that reads a
(split, column) pair turns that column's values into blocks, one per
4 096-row page, by the stores' shared rule (``spi.column_blocks``: a
low-cardinality VARCHAR column is one dictionary per split), and the
table keeps them, so every later scan only puts pages together from
stored blocks.

``create_table`` replaces a table and its blocks; ``insert`` drops only
the blocks of the split whose row range it grows.

The connector supports projection pushdown (it only builds and hands out
the requested columns) and declines filter/limit/aggregation pushdown,
making it the baseline against which the pushdown-capable connectors
(Druid, Pinot, MySQL) are compared.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from repro.common.errors import ConnectorError
from repro.core.blocks import Block
from repro.core.page import Page
from repro.core.types import PrestoType
from repro.connectors.spi import (
    Connector,
    ConnectorSplit,
    ConnectorTableHandle,
    column_blocks,
)

PAGE_SIZE = 4096


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
        # (split start, split end, column index) -> that column's blocks
        # over the split, one per page; built by the first scan reading it.
        self.blocks: dict[tuple[int, int, int], list[Block]] = {}

    def append(self, rows: Sequence[Sequence[Any]], data_version: int, split_size: int) -> None:
        """Add rows at the end; the split they grow loses its blocks."""
        before = len(self.rows)
        self.rows.extend(tuple(r) for r in rows)
        self.data_version = data_version
        if len(self.rows) > before and before % split_size:
            grown = before - before % split_size
            self.blocks = {key: v for key, v in self.blocks.items() if key[0] != grown}

    def column_blocks(self, start: int, end: int, channel: int) -> list[Block]:
        key = (start, end, channel)
        blocks = self.blocks.get(key)
        if blocks is None:
            values = [row[channel] for row in self.rows[start:end]]
            blocks = self.blocks[key] = column_blocks(
                self.columns[channel][1], values, PAGE_SIZE
            )
        return blocks


class MemoryConnector(Connector):
    """Connector over in-memory tables, sharded into splits and scanned from
    column blocks built once per split."""

    name = "memory"

    def __init__(self, split_size: int = 10_000) -> None:
        self._tables: dict[tuple[str, str], _MemoryTable] = {}
        self._split_size = split_size
        # Bumped by every change a plan or a cached page could depend on:
        # create_table, insert and ANALYZE.  One counter for all tables,
        # so a replaced table never comes back at an old version.
        self._version = 0

    def plan_version(self) -> int:
        return self._version

    def _bump(self) -> int:
        self._version += 1
        return self._version

    def _table(self, schema_name: str, table_name: str) -> _MemoryTable:
        table = self._tables.get((schema_name, table_name))
        if table is None:
            raise ConnectorError(f"memory table {schema_name}.{table_name} does not exist")
        return table

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
        self._table(schema_name, table_name).append(rows, self._bump(), self._split_size)

    # -- metadata ------------------------------------------------------------

    def list_schemas(self) -> list[str]:
        return sorted({s for s, _ in self._tables})

    def list_tables(self, schema_name: str) -> list[str]:
        return sorted(t for s, t in self._tables if s == schema_name)

    def table_columns(
        self, schema_name: str, table_name: str
    ) -> Optional[list[tuple[str, PrestoType]]]:
        table = self._tables.get((schema_name, table_name))
        return None if table is None else table.columns

    apply_projection = Connector.absorb_column_paths

    def collect_table_statistics(self, handle: ConnectorTableHandle):
        """ANALYZE: exact statistics, trivially — the rows are in memory."""
        from repro.metastore.statistics import statistics_from_rows

        table = self._table(handle.schema_name, handle.table_name)
        table.statistics = statistics_from_rows(
            [n for n, _ in table.columns], table.rows
        )
        table.statistics_row_count = len(table.rows)
        self._bump()  # the CBO's plans change; the rows do not
        return table.statistics

    def get_table_statistics(self, handle: ConnectorTableHandle):
        table = self._table(handle.schema_name, handle.table_name)
        if table.statistics_row_count != len(table.rows):
            return None  # inserts since ANALYZE: stats are stale
        return table.statistics

    # -- splits and pages ----------------------------------------------------

    def get_splits(self, handle: ConnectorTableHandle) -> list[ConnectorSplit]:
        table = self._table(handle.schema_name, handle.table_name)
        size = self._split_size
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

    def pages(
        self,
        handle: ConnectorTableHandle,
        split: ConnectorSplit,
        columns: Sequence[str],
    ) -> Iterator[Page]:
        """The split's pages, put together from its stored column blocks.

        A dotted path selects its top-level column, whole.
        """
        table = self._table(handle.schema_name, handle.table_name)
        info = split.info_dict()
        start, end = info["start"], info["end"]
        names = [n for n, _ in table.columns]
        stored = [
            table.column_blocks(start, end, names.index(c.split(".")[0])) for c in columns
        ]
        rows = max(0, min(end, len(table.rows)) - start)
        for page, offset in enumerate(range(0, max(rows, 1), PAGE_SIZE)):
            yield Page([blocks[page] for blocks in stored], min(PAGE_SIZE, rows - offset))
