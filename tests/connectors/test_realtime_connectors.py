"""Tests for the Druid/Pinot stores and their connectors (section IV.B)."""

import pytest

from repro.common.clock import SimulatedClock
from repro.connectors.olap import (
    DruidCluster,
    DruidConnector,
    NativeQuery,
    PinotCluster,
    PinotConnector,
)
from repro.connectors.spi import AggregationFunction
from repro.core.expressions import CallExpression, constant, variable
from repro.core.functions import default_registry
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from repro.planner.plan import AggregationNode, TableScanNode


def make_druid(rows_per_segment=100, segments=4, clock=None):
    cluster = DruidCluster(nodes=10, clock=clock or SimulatedClock())
    cluster.create_datasource(
        "events",
        [("city", VARCHAR), ("status", VARCHAR), ("value", DOUBLE), ("ts", BIGINT)],
    )
    for s in range(segments):
        rows = [
            (
                f"city{(s * rows_per_segment + i) % 7}",
                "ok" if i % 3 else "err",
                float(i),
                s * rows_per_segment + i,
            )
            for i in range(rows_per_segment)
        ]
        cluster.add_segment("events", rows)
    return cluster


def make_engine(cluster, connector_cls=DruidConnector, catalog="druid"):
    engine = PrestoEngine(session=Session(catalog=catalog, schema=catalog))
    engine.register_connector(catalog, connector_cls(cluster, schema_name=catalog))
    return engine


def eq(column, value, presto_type=VARCHAR):
    handle, _ = default_registry().resolve_scalar("equal", [presto_type, presto_type])
    return CallExpression(
        "equal",
        handle,
        handle.resolved_return_type(),
        (variable(column, presto_type), constant(value, presto_type)),
    )


class TestNativeQueries:
    def test_scan_query(self):
        cluster = make_druid()
        rows = cluster.query(NativeQuery("events", columns=("city", "value")))
        assert len(rows) == 400

    def test_filtered_scan_uses_index(self):
        cluster = make_druid()
        native = NativeQuery(
            "events", columns=("value",), filter=eq("status", "err").to_dict()
        )
        rows = cluster.query(native)
        # Every 3rd row per segment has status err (i % 3 == 0).
        assert len(rows) == 4 * 34

    def test_aggregation_query(self):
        cluster = make_druid()
        handle, _ = default_registry().resolve_aggregate("count", [])
        native = NativeQuery(
            "events",
            grouping=("city",),
            aggregations=(
                AggregationFunction(handle, (), "cnt").to_dict(),
            ),
        )
        rows = cluster.query(native)
        assert sum(r[1] for r in rows) == 400
        assert len(rows) == 7

    def test_limit(self):
        cluster = make_druid()
        rows = cluster.query(NativeQuery("events", columns=("city",), limit=5))
        assert len(rows) == 5

    def test_indexed_filter_cheaper_than_scan(self):
        # Compare two filters of (near) identical selectivity — one served
        # by the inverted index, one requiring a column scan.
        clock = SimulatedClock()
        rows_per_segment = 50_000
        cluster = make_druid(rows_per_segment=rows_per_segment, clock=clock)
        start = clock.now_ms()
        cluster.query(
            NativeQuery("events", columns=("value",), filter=eq("status", "err").to_dict())
        )
        indexed_cost = clock.now_ms() - start

        handle, _ = default_registry().resolve_scalar("less_than", [DOUBLE, DOUBLE])
        scan_filter = CallExpression(
            "less_than",
            handle,
            handle.resolved_return_type(),
            (variable("value", DOUBLE), constant(rows_per_segment / 3.0, DOUBLE)),
        )
        start = clock.now_ms()
        cluster.query(
            NativeQuery("events", columns=("value",), filter=scan_filter.to_dict())
        )
        scan_cost = clock.now_ms() - start
        assert indexed_cost < scan_cost


class TestConnectorQueries:
    def test_scan_through_engine(self):
        engine = make_engine(make_druid())
        assert engine.execute("SELECT count(*) FROM events").rows == [(400,)]

    def test_filter_matches_native(self):
        cluster = make_druid()
        engine = make_engine(cluster)
        via_presto = engine.execute(
            "SELECT value FROM events WHERE status = 'err' ORDER BY value"
        ).rows
        native = sorted(
            cluster.query(
                NativeQuery("events", columns=("value",), filter=eq("status", "err").to_dict())
            )
        )
        assert via_presto == native

    def test_aggregation_pushdown_result_correct(self):
        cluster = make_druid()
        engine = make_engine(cluster)
        result = engine.execute(
            "SELECT city, count(*), sum(value) FROM events GROUP BY city ORDER BY city"
        )
        assert len(result.rows) == 7
        assert sum(r[1] for r in result.rows) == 400

    def test_aggregation_pushdown_in_plan(self):
        engine = make_engine(make_druid())
        plan = engine.plan("SELECT city, max(value) FROM events GROUP BY city")
        scans = [n for n in plan.walk() if isinstance(n, TableScanNode)]
        assert len(scans) == 1
        assert scans[0].handle.aggregation is not None
        aggs = [n for n in plan.walk() if isinstance(n, AggregationNode)]
        assert len(aggs) == 1
        assert aggs[0].step == "FINAL"  # engine merges per-segment partials

    def test_aggregation_pushdown_streams_fewer_rows(self):
        cluster = make_druid()
        engine = make_engine(cluster)
        pushed = engine.execute("SELECT city, count(*) FROM events GROUP BY city")
        assert pushed.stats.rows_scanned <= 7 * 4  # ≤ groups × segments

        from repro.planner.optimizer import Optimizer

        engine._optimizer = Optimizer(engine.catalog, pushdown=False)
        unpushed = engine.execute("SELECT city, count(*) FROM events GROUP BY city")
        assert unpushed.stats.rows_scanned == 400
        assert pushed.rows == unpushed.rows or sorted(pushed.rows) == sorted(unpushed.rows)

    def test_avg_not_pushed_down(self):
        # avg partials don't merge losslessly from finalized values.
        engine = make_engine(make_druid())
        plan = engine.plan("SELECT city, avg(value) FROM events GROUP BY city")
        scans = [n for n in plan.walk() if isinstance(n, TableScanNode)]
        assert scans[0].handle.aggregation is None

    def test_limit_pushdown(self):
        engine = make_engine(make_druid())
        plan = engine.plan("SELECT city FROM events LIMIT 3")
        scans = [n for n in plan.walk() if isinstance(n, TableScanNode)]
        assert scans[0].handle.limit == 3
        assert len(engine.execute("SELECT city FROM events LIMIT 3")) == 3

    def test_join_druid_with_druid(self):
        # "bridge the gap between sub-second query latency and full SQL":
        # joins run in Presto on top of connector streams.
        cluster = make_druid()
        engine = make_engine(cluster)
        result = engine.execute(
            "SELECT a.city, count(*) FROM events a JOIN events b ON a.ts = b.ts "
            "GROUP BY a.city ORDER BY a.city"
        )
        assert sum(r[1] for r in result.rows) == 400


class TestPinot:
    def test_pinot_connector_works(self):
        cluster = PinotCluster(nodes=10)
        cluster.create_datasource("metrics", [("name", VARCHAR), ("value", DOUBLE)])
        cluster.add_segment("metrics", [("m1", 1.0), ("m2", 2.0), ("m1", 3.0)])
        engine = make_engine(cluster, PinotConnector, catalog="pinot")
        result = engine.execute(
            "SELECT name, sum(value) FROM metrics GROUP BY name ORDER BY name"
        )
        assert result.rows == [("m1", 4.0), ("m2", 2.0)]

    def test_pinot_faster_aggregation_profile(self):
        assert PinotCluster().cost.aggregate_ns_per_value < DruidCluster().cost.aggregate_ns_per_value
