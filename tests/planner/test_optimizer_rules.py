"""Direct plan-shape tests for individual optimizer rules."""

import pytest

from repro.connectors.memory import MemoryConnector
from repro.connectors.olap import DruidCluster, DruidConnector
from repro.core.types import BIGINT, DOUBLE, GEOMETRY, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from repro.planner.optimizer import Optimizer
from repro.planner.plan import (
    AggregationNode,
    FilterNode,
    JoinNode,
    LimitNode,
    ProjectNode,
    SortNode,
    SpatialJoinNode,
    TableScanNode,
    TopNNode,
)


@pytest.fixture
def engine():
    connector = MemoryConnector()
    connector.create_table(
        "db", "t", [("a", BIGINT), ("b", BIGINT), ("s", VARCHAR)], [(1, 2, "x")]
    )
    connector.create_table("db", "u", [("a", BIGINT), ("r", VARCHAR)], [(1, "y")])
    connector.create_table(
        "db",
        "geo_t",
        [("lng", DOUBLE), ("lat", DOUBLE)],
        [(0.5, 0.5)],
    )
    connector.create_table("db", "fences", [("shape", GEOMETRY)], [])
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    return engine


def nodes(plan, kind):
    return [n for n in plan.walk() if isinstance(n, kind)]


class TestPredicatePushdown:
    def test_filter_sinks_below_projection(self, engine):
        plan = engine.plan("SELECT a + b AS c FROM t WHERE a > 1")
        # Memory connector declines filters, so the Filter sits directly on
        # the scan — below the projection computing c.
        filters = nodes(plan, FilterNode)
        assert len(filters) == 1
        assert isinstance(filters[0].source, TableScanNode)

    def test_join_sides_filtered_independently(self, engine):
        plan = engine.plan(
            "SELECT count(*) FROM t JOIN u ON t.a = u.a WHERE t.b > 1 AND u.r = 'y'"
        )
        join = nodes(plan, JoinNode)[0]
        # Each conjunct moved to its own side of the join.
        left_filters = nodes(join.left, FilterNode)
        right_filters = nodes(join.right, FilterNode)
        assert left_filters and right_filters
        assert not isinstance(plan.source, FilterNode)

    def test_cross_side_conjunct_stays_above_join(self, engine):
        plan = engine.plan(
            "SELECT count(*) FROM t JOIN u ON t.a = u.a WHERE t.b > u.a"
        )
        join = nodes(plan, JoinNode)[0]
        above = [
            f for f in nodes(plan, FilterNode) if join in list(f.walk())
        ]
        assert above  # the two-sided conjunct could not be pushed


class TestLimitRules:
    def test_sort_limit_becomes_topn(self, engine):
        plan = engine.plan("SELECT a FROM t ORDER BY a LIMIT 3")
        assert nodes(plan, TopNNode)
        assert not nodes(plan, SortNode)
        assert not nodes(plan, LimitNode)

    def test_limit_passes_through_projection(self, engine):
        plan = engine.plan("SELECT a + 1 FROM t LIMIT 3")
        limits = nodes(plan, LimitNode)
        assert limits
        assert isinstance(limits[0].source, TableScanNode)

    def test_limit_does_not_cross_filter(self, engine):
        plan = engine.plan("SELECT a FROM t WHERE b > 0 LIMIT 3")
        limits = nodes(plan, LimitNode)
        assert isinstance(limits[0].source, FilterNode)

    def test_stacked_limits_collapse(self, engine):
        plan = engine.plan(
            "SELECT x FROM (SELECT a AS x FROM t LIMIT 10) s LIMIT 3"
        )
        limits = nodes(plan, LimitNode)
        assert len(limits) == 1
        assert limits[0].count == 3


class TestColumnPruning:
    def test_unused_columns_dropped_from_scan(self, engine):
        plan = engine.plan("SELECT a FROM t WHERE b > 0")
        scan = nodes(plan, TableScanNode)[0]
        read = {c for _, c in scan.assignments}
        assert read == {"a", "b"}  # s was pruned

    def test_count_star_keeps_one_column(self, engine):
        plan = engine.plan("SELECT count(*) FROM t")
        scan = nodes(plan, TableScanNode)[0]
        assert len(scan.assignments) == 1

    def test_projection_pushdown_reaches_handle(self, engine):
        plan = engine.plan("SELECT s FROM t")
        scan = nodes(plan, TableScanNode)[0]
        assert scan.handle.projected_columns == ("s",)


class TestGeoRewrite:
    def test_st_contains_join_becomes_spatial_join(self, engine):
        plan = engine.plan(
            "SELECT count(*) FROM geo_t g JOIN fences f "
            "ON st_contains(f.shape, st_point(g.lng, g.lat))"
        )
        assert nodes(plan, SpatialJoinNode)
        assert not nodes(plan, JoinNode)

    def test_residual_condition_preserved(self, engine):
        plan = engine.plan(
            "SELECT count(*) FROM geo_t g JOIN fences f "
            "ON st_contains(f.shape, st_point(g.lng, g.lat)) AND g.lng > 0"
        )
        spatial = nodes(plan, SpatialJoinNode)[0]
        # The non-spatial conjunct survives as a filter (pushed to the
        # probe side by the follow-up predicate pushdown pass).
        assert nodes(plan, FilterNode)

    def test_session_property_disables_index(self, engine):
        engine.session.properties["geo_index_enabled"] = False
        plan = engine.plan(
            "SELECT count(*) FROM geo_t g JOIN fences f "
            "ON st_contains(f.shape, st_point(g.lng, g.lat))"
        )
        assert not nodes(plan, SpatialJoinNode)[0].use_index
        engine.session.properties.clear()


class TestCleanupRules:
    def test_no_identity_projections_survive(self, engine):
        plan = engine.plan("SELECT a, b, s FROM t")
        for project in nodes(plan, ProjectNode):
            assert not project.is_identity()

    def test_adjacent_filters_merged(self, engine):
        plan = engine.plan(
            "SELECT x FROM (SELECT a AS x FROM t WHERE b > 0) s WHERE x < 5"
        )
        # Both predicates over the same scan end up in a single Filter.
        assert len(nodes(plan, FilterNode)) == 1


class TestPushdownSwitch:
    """``Optimizer(pushdown=False)`` is Figure 16's no-pushdown ablation."""

    FILTER_LIMIT = "SELECT city FROM events WHERE status = 'err' LIMIT 3"
    AGGREGATE = "SELECT city, count(*) FROM events GROUP BY city"

    @staticmethod
    def druid_engine(pushdown):
        cluster = DruidCluster(nodes=2)
        cluster.create_datasource("events", [("city", VARCHAR), ("status", VARCHAR)])
        cluster.add_segment("events", [("a", "ok"), ("b", "err"), ("a", "err")])
        engine = PrestoEngine(session=Session(catalog="druid", schema="druid"))
        engine.register_connector("druid", DruidConnector(cluster, schema_name="druid"))
        engine._optimizer = Optimizer(engine.catalog, pushdown=pushdown)
        return engine

    def test_one_keyword_gates_predicate_limit_and_aggregation_pushdown(self):
        pushed, kept = self.druid_engine(True), self.druid_engine(False)

        plan = pushed.plan(self.FILTER_LIMIT)
        handle = nodes(plan, TableScanNode)[0].handle
        assert handle.constraint is not None and handle.limit == 3
        assert nodes(plan, FilterNode) == []
        plan = pushed.plan(self.AGGREGATE)
        assert nodes(plan, TableScanNode)[0].handle.aggregation is not None
        assert [a.step for a in nodes(plan, AggregationNode)] == ["FINAL"]

        plan = kept.plan(self.FILTER_LIMIT)
        scan = nodes(plan, TableScanNode)[0]
        assert (scan.handle.constraint, scan.handle.limit) == (None, None)
        (limit,) = nodes(plan, LimitNode)
        (filter_node,) = nodes(limit, FilterNode)
        assert filter_node.source is scan
        plan = kept.plan(self.AGGREGATE)
        scan = nodes(plan, TableScanNode)[0]
        assert scan.handle.aggregation is None
        (aggregation,) = nodes(plan, AggregationNode)
        assert aggregation.step == "SINGLE" and scan in list(aggregation.walk())
        for engine in (pushed, kept):
            assert sorted(engine.execute(self.AGGREGATE).rows) == [("a", 2), ("b", 1)]
