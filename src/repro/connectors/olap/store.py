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
from repro.core.blocks import Block, PrimitiveBlock
from repro.core.evaluator import Evaluator
from repro.core.expressions import (
    RowExpression,
    combine_conjuncts,
    conjuncts,
    expression_from_dict,
    match_column_test,
)
from repro.core.functions import GroupFold, default_registry
from repro.core.types import BIGINT, DOUBLE, PrestoType, VARCHAR


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
    """One immutable segment: columnar data plus inverted indexes."""

    columns: dict[str, list[Any]]
    inverted: dict[str, dict[Any, np.ndarray]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError("segment columns must have equal lengths")
        self.num_rows = lengths.pop() if lengths else 0

    def build_inverted_index(self, column: str) -> None:
        """Build an inverted index (value → row ids) for a column."""
        postings: dict[Any, list[int]] = {}
        for row_id, value in enumerate(self.columns[column]):
            postings.setdefault(value, []).append(row_id)
        self.inverted[column] = {
            value: np.array(rows, dtype=np.int64) for value, rows in postings.items()
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
        columns, segments = self._require(datasource)
        segment = Segment(
            {name: [row[i] for row in rows] for i, (name, _) in enumerate(columns)}
        )
        for column, presto_type in columns:
            if presto_type is VARCHAR or presto_type is BIGINT:
                segment.build_inverted_index(column)
        segments.append(segment)
        return segment

    def remove_segment(self, datasource: str, segment: Segment) -> None:
        """Drop one segment (by identity) from a datasource.

        Real-time stores hand their in-memory tail segments off to deep
        storage and drop them; the streaming compactor does the same after
        sealing a tail segment into a lakehouse snapshot.
        """
        _, segments = self._require(datasource)
        segments.remove(segment)

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
        Druid/Pinot directly.
        """
        self.queries_served += 1
        _, segments = self._require(native.datasource)
        per_segment_results: list[list[tuple]] = []
        per_segment_cost: list[float] = []
        for segment in segments:
            rows, cost_ms = self._execute_segment(segment, native)
            per_segment_results.append(rows)
            per_segment_cost.append(cost_ms)
        # Segments run in parallel across nodes; each node sums its share.
        node_costs = [0.0] * max(self.nodes, 1)
        for index, cost_ms in enumerate(per_segment_cost):
            node_costs[index % len(node_costs)] += cost_ms
        self.clock.advance(self.cost.base_latency_ms)
        self.clock.parallel_advance(node_costs)
        merged = self._merge(native, per_segment_results)
        self.clock.advance(len(merged) * RESULT_MS_PER_ROW)
        return merged

    def query_segment(self, datasource: str, segment_index: int, native: NativeQuery) -> list[tuple]:
        """Single-segment query, the unit a connector split executes.

        Only the segment's own cost is charged — the engine's scheduler
        accounts for cross-split parallelism.
        """
        rows, cost_ms = self.query_segment_costed(datasource, segment_index, native)
        self.clock.advance(cost_ms)
        return rows

    def query_segment_costed(
        self, datasource: str, segment_index: int, native: NativeQuery
    ) -> tuple[list[tuple], float]:
        """Like :meth:`query_segment` but returns the cost instead of
        charging it, so a parallel caller can account lanes itself."""
        self.queries_served += 1
        _, segments = self._require(datasource)
        rows, cost_ms = self._execute_segment(segments[segment_index], native)
        return rows, cost_ms + len(rows) * RESULT_MS_PER_ROW

    # -- execution internals ---------------------------------------------------------

    def _execute_segment(
        self, segment: Segment, native: NativeQuery
    ) -> tuple[list[tuple], float]:
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

        if selected is None:
            selected = np.arange(segment.num_rows)
            if predicate is not None and residual_conjuncts:
                cost_ms += (
                    segment.num_rows
                    * len(residual_conjuncts)
                    * self.cost.scan_ns_per_value
                    / 1e6
                )
        elif residual_conjuncts:
            cost_ms += (
                len(selected) * len(residual_conjuncts) * self.cost.scan_ns_per_value / 1e6
            )

        if residual_conjuncts:
            residual = combine_conjuncts(residual_conjuncts)
            bindings = self._bindings(segment, selected, residual.variables())
            mask = self._evaluator.filter_mask(residual, bindings, len(selected))
            selected = selected[np.nonzero(mask)[0]]

        if native.is_aggregation:
            rows = self._aggregate(segment, selected, native)
            cost_ms += (
                len(selected)
                * max(len(native.aggregations), 1)
                * self.cost.aggregate_ns_per_value
                / 1e6
            )
        else:
            if native.limit is not None:
                selected = selected[: native.limit]
            columns = [list(segment.columns[c]) for c in native.columns]
            rows = [tuple(columns[i][r] for i in range(len(columns))) for r in selected]
            cost_ms += len(selected) * len(native.columns) * self.cost.scan_ns_per_value / 1e6
        return rows, cost_ms

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

    def _bindings(
        self, segment: Segment, selected: np.ndarray, variables
    ) -> dict[str, Block]:
        bindings: dict[str, Block] = {}
        for variable in variables:
            values = segment.columns[variable.name]
            bindings[variable.name] = PrimitiveBlock.from_values(
                variable.type, [values[r] for r in selected]
            )
        return bindings

    def _aggregate(
        self, segment: Segment, selected: np.ndarray, native: NativeQuery
    ) -> list[tuple]:
        group_columns = [segment.columns[c] for c in native.grouping]
        input_names, implementations = _pushed_aggregates(native)
        agg_inputs = [[segment.columns[c] for c in names] for names in input_names]
        fold = GroupFold(implementations)
        for row_id in selected:
            fold.fold(
                tuple(column[row_id] for column in group_columns),
                [tuple(column[row_id] for column in inputs) for inputs in agg_inputs],
            )
        return fold.rows()

    def _merge(
        self, native: NativeQuery, per_segment: list[list[tuple]]
    ) -> list[tuple]:
        if not native.is_aggregation:
            merged = [row for rows in per_segment for row in rows]
        else:
            # Segments hand back *finalized* values; merging them as partial
            # states is right because only MERGEABLE_AGGREGATES are pushed
            # down (planner/rules/aggregation_pushdown.py).
            fold = GroupFold(_pushed_aggregates(native)[1], merge=True)
            key_width = len(native.grouping)
            for rows in per_segment:
                for row in rows:
                    fold.fold(row[:key_width], row[key_width:])
            merged = fold.rows()
        if native.limit is not None:
            merged = merged[: native.limit]
        return merged


def _pushed_aggregates(native: NativeQuery) -> tuple[list[tuple[str, ...]], list]:
    """(input column names, implementation) of each aggregate in ``native``."""
    from repro.connectors.spi import AggregationFunction

    registry = default_registry()
    functions = [AggregationFunction.from_dict(a) for a in native.aggregations]
    return (
        [f.inputs for f in functions],
        [registry.aggregate_for(f.function_handle) for f in functions],
    )
