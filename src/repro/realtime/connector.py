"""The hybrid connector: one table spanning the lake and the live tail.

A ``SELECT`` against a hybrid table is answered as a union of two kinds
of splits, pinned to one consistent watermark at split-generation time:

- one **lake split** per sealed parquet data file of the pinned snapshot
  (with predicate pushdown into the parquet reader, and — for time
  travel below the sealed watermark — an offset *cut* that masks rows
  the read watermark does not cover);
- one **tail split** per partition with unsealed visible rows.  Tail
  splits carry their rows *in the split* (``ConnectorSplit.info``), as
  the one page cut from the partition's tail segments: between split
  generation and split execution the concurrent scheduler may interleave
  ingestion polls and compaction cycles, and pinning the page makes the
  query's result a pure function of its splits — no interleaving can
  lose or duplicate a row, and per-seed replay is byte-identical.

Time travel uses the table-name suffix ``events$watermark=5-7-3`` to pin
a historical read watermark; plain names read at the committed watermark
of split-generation time.  Materialized views registered on the
connector are exposed as tables too (their finalized page pinned the
same way), and they are this connector's aggregation pushdown: a view
answering an offered aggregation at the read watermark becomes the
scan, under the engine's FINAL aggregation (section IV.B, figure 2).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.common.clock import charge
from repro.common.errors import ConnectorError
from repro.connectors.lakehouse.connector import data_file_pages
from repro.connectors.spi import (
    AggregationFunction,
    AggregationPushdownResult,
    ColumnMetadata,
    Connector,
    ConnectorSplit,
    ConnectorTableHandle,
    SingleSchemaConnector,
    select_columns,
)
from repro.core.evaluator import Evaluator
from repro.core.page import Page, concat_pages
from repro.core.types import PrestoType
from repro.formats.parquet.file import ParquetFile
from repro.formats.parquet.reader_new import NewParquetReader
from repro.realtime.hybrid import SEALED_WATERMARK_PROPERTY, HybridTable
from repro.realtime.mv import MaterializedView
from repro.realtime.watermark import Watermark

WATERMARK_SUFFIX = "$watermark="

# Simulated nanoseconds to scan one value of a pinned tail row.
TAIL_SCAN_NS_PER_VALUE = 4.0


def parse_table_name(name: str) -> tuple[str, Optional[Watermark]]:
    """``events$watermark=5-7-3`` → ("events", Watermark(5-7-3))."""
    if WATERMARK_SUFFIX in name:
        base, _, encoded = name.partition(WATERMARK_SUFFIX)
        try:
            return base, Watermark.decode(encoded)
        except ValueError as error:
            raise ConnectorError(f"bad watermark in table name {name!r}") from error
    return name, None


def watermark_table_name(base: str, watermark: Watermark) -> str:
    """The time-travel name pinning ``base`` at ``watermark``."""
    return f"{base}{WATERMARK_SUFFIX}{watermark.encode()}"


class HybridTableConnector(SingleSchemaConnector):
    """Connector over registered hybrid tables and materialized views."""

    name = "hybrid"

    def __init__(self, schema_name: str = "rt") -> None:
        self.schema_name = schema_name
        self._tables: dict[str, HybridTable] = {}
        self._views: dict[str, MaterializedView] = {}
        self._evaluator = Evaluator()

    def register_table(self, table: HybridTable) -> None:
        self._tables[table.name] = table

    def register_view(self, view: MaterializedView) -> None:
        if view.name in self._tables:
            raise ConnectorError(f"hybrid: name {view.name!r} already a table")
        self._views[view.name] = view

    def table(self, name: str) -> HybridTable:
        table = self._tables.get(name)
        if table is None:
            raise ConnectorError(f"hybrid: no table {name!r}")
        return table

    def view(self, name: str) -> MaterializedView:
        view = self._views.get(name)
        if view is None:
            raise ConnectorError(f"hybrid: no view {name!r}")
        return view

    def _columns(self, name: str) -> list[tuple[str, PrestoType]]:
        base, _ = parse_table_name(name)
        if base in self._tables:
            return list(self._tables[base].columns)
        if base in self._views:
            return list(self._views[base].columns)
        raise ConnectorError(f"hybrid: no table or view {name!r}")

    def table_names(self) -> list[str]:
        return sorted(self._tables) + sorted(self._views)

    def columns_of(self, table_name: str) -> Optional[list[tuple[str, PrestoType]]]:
        base, watermark = parse_table_name(table_name)
        table = self._tables.get(base)
        view = self._views.get(base)
        if table is None and view is None:
            return None
        if watermark is not None and table is not None:
            if watermark.partitions != table.partitions:
                raise ConnectorError(
                    f"hybrid: watermark arity {watermark.partitions} != "
                    f"{table.partitions} partitions of {base!r}"
                )
            if not table.committed.dominates(watermark):
                raise ConnectorError(
                    f"hybrid: cannot read {base!r} at future watermark "
                    f"{watermark.encode()} (committed "
                    f"{table.committed.encode()})"
                )
        elif watermark is not None and view.watermark != watermark:
            raise ConnectorError(
                f"hybrid: view {base!r} is at {view.watermark.encode()}, "
                f"not {watermark.encode()}"
            )
        return self._columns(table_name)

    # Tail rows are filtered here and lake files by the parquet reader,
    # both with the engine's own evaluator: any predicate is served.
    absorb_conjunct = Connector.absorb_over_own_columns

    apply_projection = Connector.absorb_top_level_columns

    def apply_aggregation(
        self,
        handle: ConnectorTableHandle,
        aggregations: Sequence[AggregationFunction],
        grouping_columns: Sequence[str],
    ) -> Optional[AggregationPushdownResult]:
        """Answer the aggregation from a registered view of the table.

        A view folds the whole table, so nothing may be pushed before it
        (filter, limit, aggregation), and it qualifies only when its
        watermark equals the read watermark (a pinned ``$watermark=``
        suffix, or the committed watermark for plain names): a stale or
        over-fresh view would change results, so it is not offered.  The
        view streams one finalized row per group; the engine's FINAL step
        merges them like any connector's partial results.
        """
        base, pinned = parse_table_name(handle.table_name)
        table = self._tables.get(base)
        if (
            table is None
            or handle.constraint is not None
            or handle.limit is not None
            or handle.aggregation is not None
            or any(len(a.inputs) > 1 for a in aggregations)
        ):
            return None
        read = pinned if pinned is not None else table.committed
        wanted = [
            (a.function_handle.name, a.inputs[0] if a.inputs else None)
            for a in aggregations
        ]
        for name in sorted(self._views):
            view = self._views[name]
            if (
                view.table is table
                and view.watermark == read
                and view.matches(grouping_columns, wanted)
            ):
                types = dict(view.columns)
                outputs = {(a.function, a.input): a.output for a in view.aggregates}
                columns = [*grouping_columns, *(outputs[w] for w in wanted)]
                return AggregationPushdownResult(
                    ConnectorTableHandle(handle.schema_name, name),
                    tuple(ColumnMetadata(c, types[c]) for c in columns),
                )
        return None

    def get_splits(self, handle: ConnectorTableHandle) -> list[ConnectorSplit]:
        base, pinned = parse_table_name(handle.table_name)
        if base in self._views:
            view = self.view(base)
            page = view.page()
            return [
                ConnectorSplit(
                    split_id=f"hybrid:view:{base}@{view.watermark.encode()}",
                    rows=page.position_count,
                    info=(("kind", "view"), ("view", base), ("page", page)),
                )
            ]

        table = self.table(base)
        # Pin one consistent cut: the snapshot, its sealed watermark, and
        # the read watermark are captured together, here, once.
        snapshot = table.lake.current_snapshot()
        sealed_encoded = snapshot.properties_dict().get(SEALED_WATERMARK_PROPERTY)
        sealed = (
            Watermark.decode(sealed_encoded)
            if sealed_encoded is not None
            else Watermark.zero(table.partitions)
        )
        read = pinned if pinned is not None else table.committed

        splits: list[ConnectorSplit] = []
        # Lake side: rows with offset < min(read, sealed).  When the read
        # watermark dominates the sealed one, every lake row qualifies and
        # no cut mask is needed; time travel below it carries the cut.
        cut = None if read.dominates(sealed) else read.meet(sealed).encode()
        for data_file in snapshot.files:
            splits.append(
                ConnectorSplit(
                    split_id=f"hybrid:lake:{data_file.path}@{snapshot.snapshot_id}",
                    # Below the cut, how many rows survive is known only
                    # after reading the file.
                    rows=data_file.row_count if cut is None else None,
                    info=(
                        ("kind", "lake"),
                        ("table", base),
                        ("path", data_file.path),
                        ("data_version", snapshot.snapshot_id),
                        ("cut", cut),
                    ),
                )
            )
        # Tail side: committed rows with sealed[p] <= offset < read[p],
        # pinned as one page so later compaction/pruning cannot touch them.
        for partition in range(table.partitions):
            if read.offset(partition) <= sealed.offset(partition):
                continue
            page = table.visible_tail_page(sealed, read, partition=partition)
            if not page.position_count:
                continue
            splits.append(
                ConnectorSplit(
                    split_id=(
                        f"hybrid:tail:{base}:{partition}"
                        f"@{sealed.offset(partition)}-{read.offset(partition)}"
                    ),
                    rows=page.position_count,
                    info=(
                        ("kind", "tail"),
                        ("table", base),
                        ("partition", partition),
                        ("page", page),
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
        info = split.info_dict()
        kind = info["kind"]
        layout = self._columns(handle.table_name)

        if kind == "lake":
            table = self.table(info["table"])
            file = ParquetFile(table.lake.filesystem.open(info["path"]))
            cut = info.get("cut")
            if cut is None:
                # The whole file is visible: stream straight from the reader
                # with predicate pushdown, exactly like the iceberg connector.
                yield from data_file_pages(file, handle, columns, layout)
                return
            # Time travel below the sealed watermark: read the whole file,
            # then keep the rows below the pinned offset cut.
            reader = NewParquetReader(file, [n for n, _ in layout])
            page = concat_pages(table.types, list(reader.read_pages()))
            partitions, offsets = table.coordinates(page)
            below = offsets < np.asarray(Watermark.decode(cut).offsets)[partitions]
            page = page.take(np.flatnonzero(below))
        else:
            # Tail and view splits carry their page pinned in the split.
            page = info["page"]
            if kind == "tail":
                table = self.table(info["table"])
                # Charge an index-free columnar scan of the pinned micro-batch.
                scan_ms = page.position_count * len(layout) * TAIL_SCAN_NS_PER_VALUE / 1e6
                charge(table.clock, "store", scan_ms)
        page = self._evaluator.filter_page(
            handle.constraint_expression(), [n for n, _ in layout], page
        )
        yield select_columns(layout, page, columns)
