"""In-memory connector: a columnar store over row tuples.

A table keeps the Python row tuples it was created and inserted with; they
are its input of record, and ``ANALYZE`` reads them.  The table is cut
into fixed-size splits for parallel scanning.  The first scan that reads a
column stores it as one block over every row, by the stores' shared rule
(``spi.column_blocks``: a low-cardinality VARCHAR column is one
dictionary), with read-only arrays.  A split's pages, one per 4 096 rows,
are regions of that block (``region``: views, no copy), kept per (split,
column), so every later scan only puts pages together from them, and the
scan joins a task's consecutive pages as one wider region, again with no
copy.  Nested columns, VARCHAR columns holding a non-``str`` value and
values a column's type cannot hold are built split by split instead.

What a scan asks of a table is answered from what the table keeps for
its current version: ``get_splits`` hands out the one split list built
at that version, and a split's ``pages`` for a set of columns are the
``Page`` objects first put together for it (each over the region views,
so keeping them copies no data).

``create_table`` replaces a table and its store; ``insert`` makes a new
version: it drops the split list and only the regions and pages of the
split whose row range it grows, and the next scan stores that split and
the new rows as one more segment of each column.

The connector supports projection pushdown (it only builds and hands out
the requested columns) and declines filter/limit/aggregation pushdown,
making it the baseline against which the pushdown-capable connectors
(Druid, Pinot, MySQL) are compared.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from repro.common.errors import ConnectorError
from repro.core.blocks import (
    BLOCK_VALUE_ERRORS,
    Block,
    DictionaryBlock,
    VarcharBlock,
    block_from_values,
)
from repro.core.page import Page, concat_blocks
from repro.core.types import VARCHAR, PrestoType
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
        # Column name -> channel.
        self.channels = {name: channel for channel, (name, _) in enumerate(columns)}
        self.rows = rows
        # The connector's version when these rows last changed: the
        # fragment-result cache keys each split on it.
        self.data_version = data_version
        # ANALYZE results plus the row count they were computed at, so
        # stale statistics are dropped after inserts rather than served.
        self.statistics = None
        self.statistics_row_count = -1
        # column index -> its stored segments in row order, each
        # (first row, end row, block over the rows from the first on, or
        # None for a column built split by split); together they cover
        # the rows from 0 to the last end.  Built by the first scan
        # reading the column: one segment over every row, until an insert.
        self.stored: dict[int, list[tuple[int, int, Optional[Block]]]] = {}
        # (split start, split end, column index) -> that column's blocks
        # over the split, one per page; built by the first scan reading it.
        self.blocks: dict[tuple[int, int, int], list[Block]] = {}
        # (split start, split end, column names) -> the split's pages of
        # those columns, built by the first scan reading them.
        self.pages: dict[tuple[int, int, tuple[str, ...]], list[Page]] = {}
        # This version's splits, built by the first get_splits.
        self.splits: Optional[list[ConnectorSplit]] = None

    def append(self, rows: Sequence[Sequence[Any]], data_version: int, split_size: int) -> None:
        """Add rows at the end; the split they grow loses its blocks, and
        each stored column ends where that split starts, so the next scan
        stores the grown split and the new rows as a new segment."""
        before = len(self.rows)
        self.rows.extend(tuple(r) for r in rows)
        self.data_version = data_version
        self.splits = None
        if len(self.rows) > before and before % split_size:
            grown = before - before % split_size
            self.blocks = {key: v for key, v in self.blocks.items() if key[0] != grown}
            self.pages = {key: v for key, v in self.pages.items() if key[0] != grown}
            for channel, segments in self.stored.items():
                self.stored[channel] = [
                    (first, min(end, grown), block)
                    for first, end, block in segments
                    if first < grown
                ]

    def split_list(self, schema_name: str, table_name: str, size: int) -> list[ConnectorSplit]:
        """This version's splits, ``size`` rows each (the last one fewer)."""
        if self.splits is None:
            total = len(self.rows)
            self.splits = []
            for start in range(0, total, size):
                end = min(start + size, total)
                self.splits.append(
                    ConnectorSplit(
                        split_id=f"memory:{schema_name}.{table_name}:{start}-{end}",
                        rows=end - start,
                        info=(("start", start), ("end", end), ("data_version", self.data_version)),
                    )
                )
        return self.splits

    def split_pages(self, start: int, end: int, columns: tuple[str, ...]) -> list[Page]:
        """The pages of rows ``start`` to ``end`` over ``columns``, one per
        ``PAGE_SIZE`` rows; a dotted path selects its top-level column."""
        key = (start, end, columns)
        pages = self.pages.get(key)
        if pages is None:
            stored = [
                self.column_blocks(start, end, self.channels[c.split(".")[0]]) for c in columns
            ]
            rows = max(0, min(end, len(self.rows)) - start)
            pages = self.pages[key] = [
                Page([blocks[page] for blocks in stored], min(PAGE_SIZE, rows - offset))
                for page, offset in enumerate(range(0, max(rows, 1), PAGE_SIZE))
            ]
        return pages

    def column_blocks(self, start: int, end: int, channel: int) -> list[Block]:
        key = (start, end, channel)
        blocks = self.blocks.get(key)
        if blocks is None:
            stored, first = self._segment(start, channel)
            if stored is None:
                values = [row[channel] for row in self.rows[start:end]]
                blocks = column_blocks(self.columns[channel][1], values, PAGE_SIZE)
            else:
                blocks = [
                    stored.region(page - first, min(page + PAGE_SIZE, end) - first)
                    for page in range(start, max(end, start + 1), PAGE_SIZE)
                ]
            self.blocks[key] = blocks
        return blocks

    def _segment(self, start: int, channel: int) -> tuple[Optional[Block], int]:
        """``(block, first row)`` of the stored segment of column
        ``channel`` that holds the split starting at row ``start``.  When
        no segment holds it, the rows not yet stored become one."""
        segments = self.stored.setdefault(channel, [])
        covered = segments[-1][1] if segments else 0
        if start >= covered and (covered < len(self.rows) or not segments):
            block = _stored_column(self.columns[channel][1], self.rows, covered, channel)
            segments.append((covered, len(self.rows), block))
        return next((block, first) for first, _, block in reversed(segments) if first <= start)


def _stored_column(
    presto_type: PrestoType, rows: list[tuple], start: int, channel: int
) -> Optional[Block]:
    """Column ``channel`` of the rows from ``start`` on as one read-only
    block, by ``spi.column_blocks``' rule (a low-cardinality VARCHAR column
    is one dictionary), or None when the column is built split by split as
    before: a nested column, a VARCHAR column holding a non-``str`` value,
    or values its type cannot hold (a scan then fails only on the splits
    holding them)."""
    if presto_type.is_nested():
        return None
    try:
        if presto_type is VARCHAR:
            # The dictionary rule needs the column's values at once.
            values = [row[channel] for row in rows[start:]]
            pages = column_blocks(presto_type, values, PAGE_SIZE)
        else:
            # Page by page, each page's values converted while they are
            # still in the processor's cache, then joined.
            pages = [
                block_from_values(
                    presto_type, [row[channel] for row in rows[page : page + PAGE_SIZE]]
                )
                for page in range(start, max(len(rows), start + 1), PAGE_SIZE)
            ]
        block = concat_blocks(presto_type, pages)
    except BLOCK_VALUE_ERRORS:
        return None
    if isinstance(block, DictionaryBlock):
        arrays = [block.ids, block.dictionary.data, block.dictionary.offsets]
    elif isinstance(block, VarcharBlock):
        arrays = [block.data, block.offsets, block.nulls]
    elif presto_type is not VARCHAR:
        arrays = [block.values, block.nulls]
    else:
        return None  # the permissive object lane: per page, as before
    # Pages view these arrays: a write into one raises instead of
    # changing the table.
    for array in arrays:
        if array is not None:
            array.flags.writeable = False
    return block


class MemoryConnector(Connector):
    """Connector over in-memory tables, sharded into splits and scanned from
    regions of column blocks built once per column."""

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
        """The table's splits at its current version: the same split
        objects on every call until the table changes."""
        table = self._table(handle.schema_name, handle.table_name)
        return list(table.split_list(handle.schema_name, handle.table_name, self._split_size))

    def pages(
        self,
        handle: ConnectorTableHandle,
        split: ConnectorSplit,
        columns: Sequence[str],
    ) -> Iterator[Page]:
        """The split's pages, put together from its regions of the stored
        columns once per table version and column list.

        A dotted path selects its top-level column, whole.
        """
        table = self._table(handle.schema_name, handle.table_name)
        info = split.info_dict()
        yield from table.split_pages(info["start"], info["end"], tuple(columns))
