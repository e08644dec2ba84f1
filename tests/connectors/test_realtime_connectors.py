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
from repro.connectors.spi import AggregationFunction, ConnectorTableHandle
from repro.core.expressions import CallExpression, constant, variable
from repro.core.functions import default_registry
from repro.core.types import BIGINT, DOUBLE, VARCHAR, RowType
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from repro.planner.plan import AggregationNode, TableScanNode


ROW = RowType.of(("x", BIGINT), ("y", VARCHAR))


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

    def test_splits_do_not_renegotiate_the_pushdown(self):
        # The pushdown is negotiated while planning; a split reads the
        # handle's spec, so the count is the same however many segments.
        calls = []
        for segments in (1, 4):
            engine = make_engine(make_druid(segments=segments))
            connector = engine.catalog.connector("druid")
            offer = connector.apply_aggregation

            def counting(*args, **kwargs):
                calls.append(segments)
                return offer(*args, **kwargs)

            connector.apply_aggregation = counting
            engine.execute("SELECT city, count(*) FROM events GROUP BY city")
        assert calls.count(1) == calls.count(4) > 0

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

    def test_a_dotted_path_reads_its_column_whole(self):
        cluster = DruidCluster(nodes=2)
        cluster.create_datasource("t", [("k", BIGINT), ("r", ROW)])
        cluster.add_segment("t", [(1, {"x": 1, "y": "a"}), (2, None)])
        connector = DruidConnector(cluster)
        handle = ConnectorTableHandle("druid", "t")
        (split,) = connector.get_splits(handle)
        (page,) = connector.pages(handle, split, ["r.y", "k", "r"])
        assert page.to_rows() == [
            ({"x": 1, "y": "a"}, 1, {"x": 1, "y": "a"}),
            (None, 2, None),
        ]
        engine = make_engine(cluster)
        assert engine.execute("SELECT r.y, k FROM t ORDER BY k").rows == [("a", 1), (None, 2)]


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


NAN = float("nan")


def nan_cluster(cluster_cls):
    """Two segments where a NaN follows a number inside a group, beside
    NULL and NaN group keys and NULL measures."""
    cluster = cluster_cls(nodes=10)
    cluster.create_datasource(
        "m", [("tag", VARCHAR), ("bucket", DOUBLE), ("n", BIGINT), ("v", DOUBLE)]
    )
    cluster.add_segment(
        "m",
        [
            ("a", 1.0, 5, 1.0),
            ("a", NAN, 2, NAN),
            ("a", 1.0, None, 3.0),
            (None, None, 7, 2.0),
            ("b", NAN, 1, None),
        ],
    )
    cluster.add_segment(
        "m",
        [
            ("b", 2.0, 4, 7.0),
            ("a", None, 3, 0.5),
            (None, 2.0, None, NAN),
            ("c", 1.0, 9, 4.0),
        ],
    )
    return cluster


def comparable(rows):
    """Rows with NaN spelled out (NaN equals nothing), in a fixed order."""
    spelled = [
        tuple("NaN" if isinstance(v, float) and v != v else v for v in row)
        for row in rows
    ]
    return sorted(spelled, key=repr)


AGGREGATES = "count(*), count(v), sum(v), min(v), max(v), sum(n), min(n), max(n)"


class TestPushdownAgreesWithEngine:
    """The store's native aggregation returns what the engine computes
    over the same rows with the pushdowns off."""

    @pytest.mark.parametrize(
        "cluster_cls, connector_cls",
        [(DruidCluster, DruidConnector), (PinotCluster, PinotConnector)],
        ids=["druid", "pinot"],
    )
    @pytest.mark.parametrize(
        "sql",
        [
            f"SELECT tag, {AGGREGATES} FROM m GROUP BY tag",
            f"SELECT bucket, {AGGREGATES} FROM m GROUP BY bucket",
            f"SELECT tag, bucket, {AGGREGATES} FROM m GROUP BY tag, bucket",
            f"SELECT {AGGREGATES} FROM m",
            f"SELECT {AGGREGATES} FROM m WHERE tag = 'zzz'",
            f"SELECT {AGGREGATES} FROM m WHERE v > 100.0",
            f"SELECT tag, {AGGREGATES} FROM m WHERE tag = 'zzz' GROUP BY tag",
            f"SELECT tag, {AGGREGATES} FROM m WHERE n >= 2 GROUP BY tag",
        ],
        ids=[
            "by-tag", "by-nan-key", "by-two-keys", "global", "global-indexed-none",
            "global-scanned-none", "grouped-none", "grouped-filtered",
        ],
    )
    def test_pushed_aggregation_matches_engine(self, cluster_cls, connector_cls, sql):
        from repro.planner.optimizer import Optimizer

        engine = make_engine(nan_cluster(cluster_cls), connector_cls, catalog="olap")
        scans = [n for n in engine.plan(sql).walk() if isinstance(n, TableScanNode)]
        assert scans[0].handle.aggregation is not None
        pushed = engine.execute(sql).rows
        engine._optimizer = Optimizer(engine.catalog, pushdown=False)
        assert comparable(pushed) == comparable(engine.execute(sql).rows)

    def test_store_answers_nan_as_the_engine_does(self):
        # min/max over a group whose NaN follows a number is NaN, and a
        # NaN key groups with NULL.
        rows = make_engine(nan_cluster(DruidCluster)).execute(
            "SELECT bucket, min(v), max(v) FROM m GROUP BY bucket"
        ).rows
        assert comparable(rows) == comparable(
            [(1.0, 1.0, 4.0), (2.0, NAN, NAN), (None, NAN, NAN)]
        )
