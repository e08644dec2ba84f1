"""A simulated real-time OLAP store: segments, inverted indexes, native
aggregation, and a deterministic latency model.

The store *really executes* queries (filters, group-bys, aggregations over
in-memory segments) so connector results are verifiable, and it *charges*
a cost model calibrated to the systems' defining behaviours: indexed
filters are nearly free, aggregations run close to memory bandwidth, and
segments execute in parallel across nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.common.clock import SimulatedClock
from repro.common.errors import ConnectorError
from repro.connectors.spi import AggregationFunction, stored_page
from repro.core.blocks import Block
from repro.core.evaluator import Evaluator
from repro.core.expressions import (
    RowExpression,
    combine_conjuncts,
    conjuncts,
    expression_from_dict,
    match_column_test,
)
from repro.core.functions import default_registry
from repro.core.page import Page, concat_pages
from repro.core.types import BIGINT, PrestoType, VARCHAR
from repro.execution.kernels import HashAggregation, column_codes, resolve_aggregates


@dataclass(frozen=True)
class NativeQuery:
    """The store's native query model (Druid groupBy/scan, Pinot SQL-ish).

    ``filter`` is a serialized RowExpression over column names — the
    self-contained representation connectors push down (Table I).
    ``aggregations`` are serialized
    :class:`~repro.connectors.spi.AggregationFunction` dicts.
    """

    datasource: str
    columns: tuple[str, ...] = ()
    filter: Optional[dict] = None
    grouping: tuple[str, ...] = ()
    aggregations: tuple[dict, ...] = ()
    limit: Optional[int] = None

    @property
    def is_aggregation(self) -> bool:
        return bool(self.aggregations) or bool(self.grouping)


@dataclass(frozen=True)
class StoreCostModel:
    """Latency model parameters (milliseconds / nanoseconds)."""

    base_latency_ms: float = 15.0  # broker round trip + planning
    index_lookup_ms: float = 0.05  # bitmap/inverted index probe per conjunct
    scan_ns_per_value: float = 4.0  # full-column scan per value
    aggregate_ns_per_value: float = 6.0  # aggregation work per kept value


# Simulated milliseconds to serialize one result row, in every store.
RESULT_MS_PER_ROW = 0.0008


@dataclass
class Segment:
    """One immutable segment: one page of the datasource's columns, in
    order, plus inverted indexes (column name → value → row ids)."""

    page: Page
    inverted: dict[str, dict[Any, np.ndarray]] = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        return self.page.position_count


def postings(block: Block) -> dict[Any, np.ndarray]:
    """An inverted index of one column: each non-null value → its
    ascending row ids, from the column's codes by one stable argsort."""
    codes, uniques = column_codes(block)
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes + 1, minlength=len(uniques) + 1)
    ends = np.cumsum(counts)
    return {
        value: order[start:end]
        for value, start, end in zip(uniques.tolist(), ends[:-1].tolist(), ends[1:].tolist())
    }


class RealtimeOlapStore:
    """The simulated cluster: datasources → segments, spread over nodes."""

    def __init__(
        self,
        name: str = "realtime",
        nodes: int = 100,
        clock: Optional[SimulatedClock] = None,
        cost_model: Optional[StoreCostModel] = None,
    ) -> None:
        self.name = name
        self.nodes = nodes
        self.clock = clock or SimulatedClock()
        self.cost = cost_model or StoreCostModel()
        self._datasources: dict[str, tuple[list[tuple[str, PrestoType]], list[Segment]]] = {}
        self._evaluator = Evaluator()
        self.queries_served = 0

    # -- data management ------------------------------------------------------

    def create_datasource(
        self, name: str, columns: Sequence[tuple[str, PrestoType]]
    ) -> None:
        self._datasources[name] = (list(columns), [])

    def add_segment(self, datasource: str, rows: Sequence[tuple]) -> Segment:
        """Store rows as one segment; its BIGINT and VARCHAR columns are indexed."""
        columns, segments = self._require(datasource)
        page = stored_page([t for _, t in columns], rows)
        indexed = [(c, name) for c, (name, t) in enumerate(columns) if t in (VARCHAR, BIGINT)]
        segments.append(Segment(page, {name: postings(page.block(c)) for c, name in indexed}))
        return segments[-1]

    def datasource_names(self) -> list[str]:
        return sorted(self._datasources)

    def datasource_columns(self, name: str) -> list[tuple[str, PrestoType]]:
        return list(self._require(name)[0])

    def segments(self, datasource: str) -> list[Segment]:
        return self._require(datasource)[1]

    def _require(self, datasource: str):
        entry = self._datasources.get(datasource)
        if entry is None:
            raise ConnectorError(f"{self.name}: no datasource {datasource!r}")
        return entry

    # -- native query execution ---------------------------------------------------

    def query(self, native: NativeQuery) -> list[tuple]:
        """Full-cluster native query: segments fan out across nodes.

        This is the baseline of figure 16 — what a user gets by querying
        Druid/Pinot directly — and the store's one row boundary.
        """
        self.queries_served += 1
        _, segments = self._require(native.datasource)
        per_segment_results: list[Page] = []
        per_segment_cost: list[float] = []
        for segment in segments:
            page, cost_ms = self._execute_segment(segment, native)
            per_segment_results.append(page)
            per_segment_cost.append(cost_ms)
        # Segments run in parallel across nodes, segment i on node i mod
        # nodes; the query waits for the most-loaded node.
        node_costs = [0.0] * max(self.nodes, 1)
        for index, cost_ms in enumerate(per_segment_cost):
            node_costs[index % len(node_costs)] += cost_ms
        self.clock.advance(self.cost.base_latency_ms)
        self.clock.parallel_advance(node_costs)
        merged = self._merge(native, per_segment_results)
        self.clock.advance(merged.position_count * RESULT_MS_PER_ROW)
        return merged.to_rows()

    def query_segment_costed(
        self, datasource: str, segment_index: int, native: NativeQuery
    ) -> tuple[Page, float]:
        """Single-segment query, the unit a connector split executes.

        Returns the result page and the segment's own cost without
        charging it: the caller charges it to the query reading it."""
        self.queries_served += 1
        _, segments = self._require(datasource)
        page, cost_ms = self._execute_segment(segments[segment_index], native)
        return page, cost_ms + page.position_count * RESULT_MS_PER_ROW

    # -- execution internals ---------------------------------------------------------

    def _execute_segment(
        self, segment: Segment, native: NativeQuery
    ) -> tuple[Page, float]:
        cost_ms = 0.0
        predicate = (
            expression_from_dict(native.filter) if native.filter is not None else None
        )

        selected: Optional[np.ndarray] = None
        residual_conjuncts: list[RowExpression] = []
        if predicate is not None:
            indexed_row_sets: list[np.ndarray] = []
            for conjunct in conjuncts(predicate):
                rows = self._probe_index(segment, conjunct)
                if rows is not None:
                    indexed_row_sets.append(rows)
                    cost_ms += self.cost.index_lookup_ms
                else:
                    residual_conjuncts.append(conjunct)
            if indexed_row_sets:
                selected = indexed_row_sets[0]
                for rows in indexed_row_sets[1:]:
                    selected = np.intersect1d(selected, rows, assume_unique=True)

        # Only the columns the query reads: the residual's, then the result's.
        if native.is_aggregation:
            functions, types, aggregation = self._pushed(native, merge_mode=False)
            read = [*native.grouping, *(c for f in functions for c in f.inputs)]
        else:
            read = list(native.columns)
        residual = combine_conjuncts(residual_conjuncts) if residual_conjuncts else None
        if residual is not None:
            read = [v.name for v in residual.variables()] + read
            kept = segment.num_rows if selected is None else len(selected)
            cost_ms += kept * len(residual_conjuncts) * self.cost.scan_ns_per_value / 1e6
        names = list(dict.fromkeys(read))
        layout = [n for n, _ in self._require(native.datasource)[0]]
        page = segment.page.select_channels([layout.index(n) for n in names])
        if selected is not None:
            page = page.take(selected)
        page = self._evaluator.filter_page(residual, names, page)
        blocks = dict(zip(names, page.blocks))

        if native.is_aggregation:
            aggregation.add(
                [blocks[c] for c in native.grouping],
                [[blocks[c] for c in f.inputs] for f in functions],
                page.position_count,
            )
            cost_ms += (
                page.position_count
                * max(len(native.aggregations), 1)
                * self.cost.aggregate_ns_per_value
                / 1e6
            )
            return aggregation.page(types), cost_ms
        page = _head(Page([blocks[c] for c in native.columns], page.position_count), native.limit)
        cost_ms += (
            page.position_count * len(native.columns) * self.cost.scan_ns_per_value / 1e6
        )
        return page, cost_ms

    def _probe_index(
        self, segment: Segment, conjunct: RowExpression
    ) -> Optional[np.ndarray]:
        """Serve equality/IN conjuncts from the inverted index."""
        test = match_column_test(conjunct)
        if (
            test is None
            or test.op not in ("equal", "in")
            or test.column not in segment.inverted
        ):
            return None
        postings = segment.inverted[test.column]
        parts = [postings[value] for value in test.values if value in postings]
        if not parts:
            return np.array([], dtype=np.int64)
        if len(parts) == 1:
            return parts[0]  # a posting list is already sorted and unique
        return np.unique(np.concatenate(parts))

    def _merge(self, native: NativeQuery, per_segment: list[Page]) -> Page:
        if not native.is_aggregation:
            types = dict(self._require(native.datasource)[0])
            merged = concat_pages([types[c] for c in native.columns], per_segment)
        else:
            # Segments hand back *finalized* values; merging them as partial
            # states is right because only MERGEABLE_AGGREGATES are pushed
            # down (planner/rules/aggregation_pushdown.py).
            _, types, aggregation = self._pushed(native, merge_mode=True)
            pages = concat_pages(types, per_segment)
            key_count = len(native.grouping)
            aggregation.add(
                pages.blocks[:key_count],
                [[state] for state in pages.blocks[key_count:]],
                pages.position_count,
            )
            merged = aggregation.page(types)
        return _head(merged, native.limit)

    def _pushed(
        self, native: NativeQuery, merge_mode: bool
    ) -> tuple[list[AggregationFunction], list[PrestoType], HashAggregation]:
        """The aggregates of ``native``, the column types of its rows, and
        an empty aggregation that computes them."""
        functions = [AggregationFunction.from_dict(a) for a in native.aggregations]
        layout = aggregation_layout(
            dict(self._require(native.datasource)[0]), native.grouping, functions
        )
        aggregation = HashAggregation(
            len(native.grouping),
            resolve_aggregates(
                [(f.function_handle, False) for f in functions], default_registry()
            ),
            merge_mode,
        )
        return functions, [t for _, t in layout], aggregation


def _head(page: Page, limit: Optional[int]) -> Page:
    """The first ``limit`` positions of ``page`` (all when ``None``)."""
    if limit is None or page.position_count <= limit:
        return page
    return page.take(np.arange(limit))


def aggregation_layout(
    columns: dict[str, PrestoType],
    grouping: Sequence[str],
    functions: Sequence[AggregationFunction],
) -> list[tuple[str, PrestoType]]:
    """``(name, type)`` of each column of a pushed aggregation's rows: the
    grouping columns, then one per aggregate.  ``columns`` are the
    datasource's."""
    return [(c, columns[c]) for c in grouping] + [
        (f.output_name, f.function_handle.resolved_return_type()) for f in functions
    ]
