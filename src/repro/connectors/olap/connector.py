"""The shared Presto connector for real-time OLAP stores (section IV.B).

Implements the full pushdown surface: predicate pushdown (absorbed into
the native query's filter), limit pushdown, projection pushdown, and —
the one figure 2 illustrates — aggregation pushdown, where the store
executes partial aggregations per segment and the engine runs only the
final merge.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.common.clock import charge
from repro.connectors.olap.store import (
    NativeQuery,
    RealtimeOlapStore,
    aggregation_layout,
)
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
from repro.core.page import Page
from repro.core.types import PrestoType


class RealtimeOlapConnector(SingleSchemaConnector):
    """Connector over a :class:`RealtimeOlapStore` (Druid/Pinot)."""

    # Network cost of streaming a row from the store into the engine.
    stream_ms_per_row: float = 0.001

    def __init__(self, store: RealtimeOlapStore, schema_name: str = "default") -> None:
        self.store = store
        self.schema_name = schema_name
        self.name = store.name

    def table_names(self) -> list[str]:
        return self.store.datasource_names()

    def columns_of(self, table_name: str) -> Optional[list[tuple[str, PrestoType]]]:
        if table_name not in self.store.datasource_names():
            return None
        return self.store.datasource_columns(table_name)

    # The store evaluates arbitrary RowExpressions over its columns (indexed
    # conjuncts are served from inverted indexes, the rest by scanning).
    absorb_conjunct = Connector.absorb_over_own_columns

    apply_limit = Connector.absorb_limit
    apply_projection = Connector.absorb_top_level_columns

    def apply_aggregation(
        self,
        handle: ConnectorTableHandle,
        aggregations: Sequence[AggregationFunction],
        grouping_columns: Sequence[str],
    ) -> Optional[AggregationPushdownResult]:
        if handle.aggregation is not None:
            return None
        store_columns = dict(self.store.datasource_columns(handle.table_name))
        for aggregation in aggregations:
            if not all(c in store_columns for c in aggregation.inputs):
                return None
        if not all(c in store_columns for c in grouping_columns):
            return None
        spec = {
            "grouping": list(grouping_columns),
            "aggregations": [a.to_dict() for a in aggregations],
        }
        layout = aggregation_layout(store_columns, grouping_columns, aggregations)
        return AggregationPushdownResult(
            handle.with_(aggregation=spec),
            tuple(ColumnMetadata(name, presto_type) for name, presto_type in layout),
        )

    def get_splits(self, handle: ConnectorTableHandle) -> list[ConnectorSplit]:
        segments = self.store.segments(handle.table_name)
        return [
            ConnectorSplit(
                split_id=f"{self.name}:{handle.table_name}:{index}",
                rows=segment.num_rows,
                info=(("segment", index),),
            )
            for index, segment in enumerate(segments)
        ]

    def pages(
        self,
        handle: ConnectorTableHandle,
        split: ConnectorSplit,
        columns: Sequence[str],
    ) -> Iterator[Page]:
        store = self.store
        segment_index = split.info_dict()["segment"]

        types = dict(store.datasource_columns(handle.table_name))
        if handle.aggregation is not None:
            spec = handle.aggregation
            native = NativeQuery(
                datasource=handle.table_name,
                filter=handle.constraint,
                grouping=tuple(spec["grouping"]),
                aggregations=tuple(spec["aggregations"]),
                limit=handle.limit,
            )
            layout = aggregation_layout(
                types,
                spec["grouping"],
                [AggregationFunction.from_dict(a) for a in spec["aggregations"]],
            )
        else:
            native = NativeQuery(
                datasource=handle.table_name,
                columns=tuple(c.split(".")[0] for c in columns),
                filter=handle.constraint,
                limit=handle.limit,
            )
            layout = [(c, types[c]) for c in native.columns]

        page, cost_ms = store.query_segment_costed(
            handle.table_name, segment_index, native
        )
        # The segment's work, then streaming its rows into the engine, both
        # on the reading task's stage lane.
        charge(store.clock, "store", cost_ms)
        charge(store.clock, "network", page.position_count * self.stream_ms_per_row)

        yield select_columns(layout, page, columns)
