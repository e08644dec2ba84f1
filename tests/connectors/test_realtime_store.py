"""Unit tests for the realtime OLAP store internals."""

import pytest

from repro.common.clock import SimulatedClock
from repro.connectors.olap.store import (
    NativeQuery,
    RealtimeOlapStore,
    Segment,
)
from repro.connectors.spi import AggregationFunction
from repro.core.blocks import block_from_values
from repro.core.expressions import (
    CallExpression,
    and_,
    constant,
    variable,
)
from repro.core.functions import default_registry
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, VARCHAR


def scalar(name, column, column_type, value):
    handle, _ = default_registry().resolve_scalar(name, [column_type, column_type])
    return CallExpression(
        name,
        handle,
        handle.resolved_return_type(),
        (variable(column, column_type), constant(value, column_type)),
    )


def agg(name, inputs, input_types, output):
    handle, _ = default_registry().resolve_aggregate(name, list(input_types))
    return AggregationFunction(handle, tuple(inputs), output).to_dict()


@pytest.fixture
def store():
    store = RealtimeOlapStore(nodes=2, clock=SimulatedClock())
    store.create_datasource(
        "m", [("tag", VARCHAR), ("bucket", BIGINT), ("value", DOUBLE)]
    )
    store.add_segment("m", [("a", 1, 1.0), ("b", 2, 2.0), ("a", 1, 3.0)])
    store.add_segment("m", [("a", 2, 4.0), ("c", 1, 5.0)])
    return store


class TestSegments:
    def test_inverted_index_on_varchar_and_bigint(self, store):
        segment = store.segments("m")[0]
        assert "tag" in segment.inverted
        assert "bucket" in segment.inverted
        assert "value" not in segment.inverted  # doubles are not indexed

    def test_index_postings(self, store):
        segment = store.segments("m")[0]
        assert list(segment.inverted["tag"]["a"]) == [0, 2]

    def test_uneven_columns_rejected(self):
        with pytest.raises(ValueError):
            Segment(Page([block_from_values(BIGINT, [1, 2]), block_from_values(BIGINT, [1])]))


class TestNativeExecution:
    def test_indexed_equality(self, store):
        rows = store.query(
            NativeQuery("m", columns=("value",), filter=scalar("equal", "tag", VARCHAR, "a").to_dict())
        )
        assert sorted(r[0] for r in rows) == [1.0, 3.0, 4.0]

    def test_indexed_conjunction_intersects(self, store):
        predicate = and_(
            scalar("equal", "tag", VARCHAR, "a"),
            scalar("equal", "bucket", BIGINT, 1),
        )
        rows = store.query(NativeQuery("m", columns=("value",), filter=predicate.to_dict()))
        assert sorted(r[0] for r in rows) == [1.0, 3.0]

    def test_residual_scan_filter(self, store):
        predicate = scalar("greater_than", "value", DOUBLE, 2.5)
        rows = store.query(NativeQuery("m", columns=("value",), filter=predicate.to_dict()))
        assert sorted(r[0] for r in rows) == [3.0, 4.0, 5.0]

    def test_mixed_indexed_and_residual(self, store):
        predicate = and_(
            scalar("equal", "tag", VARCHAR, "a"),
            scalar("less_than", "value", DOUBLE, 3.5),
        )
        rows = store.query(NativeQuery("m", columns=("value",), filter=predicate.to_dict()))
        assert sorted(r[0] for r in rows) == [1.0, 3.0]

    def test_merge_aggregates_across_segments(self, store):
        native = NativeQuery(
            "m",
            grouping=("tag",),
            aggregations=(
                agg("count", (), (), "cnt"),
                agg("sum", ("value",), (DOUBLE,), "total"),
                agg("min", ("value",), (DOUBLE,), "low"),
            ),
        )
        rows = {r[0]: r[1:] for r in store.query(native)}
        assert rows["a"] == (3, 8.0, 1.0)
        assert rows["b"] == (1, 2.0, 2.0)
        assert rows["c"] == (1, 5.0, 5.0)

    def test_scan_limit_applied_to_merged_result(self, store):
        rows = store.query(NativeQuery("m", columns=("tag",), limit=2))
        assert len(rows) == 2

    def test_per_segment_query_matches_union(self, store):
        native = NativeQuery("m", columns=("tag", "value"))
        merged = store.query(native)
        per_segment = [
            row
            for index in range(len(store.segments("m")))
            for row in store.query_segment_costed("m", index, native)[0].to_rows()
        ]
        assert sorted(map(repr, merged)) == sorted(map(repr, per_segment))

    def test_costed_variant_charges_nothing(self, store):
        clock = store.clock
        before = clock.now_ms()
        page, cost = store.query_segment_costed(
            "m", 0, NativeQuery("m", columns=("tag",))
        )
        assert clock.now_ms() == before
        assert cost > 0
        assert page.position_count == 3

    def test_queries_served_counter(self, store):
        served = store.queries_served
        store.query(NativeQuery("m", columns=("tag",)))
        assert store.queries_served == served + 1
