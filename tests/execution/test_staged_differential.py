"""Differential suite: staged execution agrees with the direct pipeline.

Every query runs twice — through the default staged path (fragments →
stages → tasks → exchanges, section III) and through the retained
single-pipeline oracle (``execute_direct``) — and must return the same
rows.  Staged group-by output arrives partition-major, so comparisons are
order-insensitive unless the query's ORDER BY fully determines the order.
"""

import pytest

from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, BOOLEAN, DOUBLE, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from repro.workloads.tpch import LINEITEM_COLUMNS, generate_lineitem
from repro.workloads.trips import TRIPS_BASE_TYPE, generate_trips_rows

from tests.obs.helpers import assert_query_observable
from tests.reference.pipeline import execute_direct


def normalize(row):
    # Partial sums merge in a different order than a sequential fold, so
    # float results may differ in the last ulp (true of any distributed
    # engine); compare at 10 significant digits.
    return tuple(
        float(f"{value:.10g}") if isinstance(value, float) else value for value in row
    )


def canonical(rows):
    return sorted(map(repr, map(normalize, rows)))


def assert_same(engine, sql, ordered=False):
    staged = engine.execute(sql)
    direct = execute_direct(engine, sql)
    assert staged.column_names == direct.column_names
    if ordered:
        assert list(map(normalize, staged.rows)) == list(map(normalize, direct.rows)), sql
    else:
        assert canonical(staged.rows) == canonical(direct.rows), sql
    # The staged run really was staged: at least scan + output stages.
    assert staged.stats.stages_total >= 2, sql
    # Every differential query also checks the observability invariants:
    # well-formed span tree, critical path == simulated ms, span rows ==
    # QueryStats counters == metrics registry series.
    assert_query_observable(staged, engine.metrics)
    return staged


@pytest.fixture(scope="module")
def engine():
    connector = MemoryConnector(split_size=47)
    connector.create_table("db", "lineitem", LINEITEM_COLUMNS, generate_lineitem(300))
    connector.create_table(
        "db",
        "trips",
        [("base", TRIPS_BASE_TYPE), ("fare_usd", DOUBLE), ("completed", BOOLEAN)],
        generate_trips_rows(150, num_cities=12),
    )
    connector.create_table(
        "db",
        "nullable",
        [("k", VARCHAR), ("v", BIGINT)],
        [("a", 1), (None, 2), ("b", None), (None, None), ("a", 5), ("b", 6)] * 20,
    )
    connector.create_table(
        "db",
        "dim",
        [("orderkey", BIGINT), ("label", VARCHAR)],
        [(i, f"order-{i}") for i in range(1, 60)],
    )
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    return engine


TPCH_QUERIES = [
    # Q1-style pricing summary: grouped partial/final aggregation.
    (
        "SELECT returnflag, linestatus, sum(quantity), sum(extendedprice), "
        "avg(quantity), avg(extendedprice), avg(discount), count(*) "
        "FROM lineitem WHERE shipdate <= '1998-09-02' "
        "GROUP BY returnflag, linestatus ORDER BY returnflag, linestatus",
        True,
    ),
    # Q6-style revenue: global aggregation over a filter.
    (
        "SELECT sum(extendedprice * discount) FROM lineitem "
        "WHERE discount >= 0.03 AND quantity < 24",
        True,
    ),
    ("SELECT count(*), count(DISTINCT orderkey) FROM lineitem", True),
    (
        "SELECT shipmode, min(shipdate), max(receiptdate), count(*) "
        "FROM lineitem GROUP BY shipmode",
        False,
    ),
    ("SELECT orderkey, quantity FROM lineitem ORDER BY quantity DESC, orderkey LIMIT 10", True),
    ("SELECT DISTINCT returnflag FROM lineitem", False),
]


TRIPS_QUERIES = [
    ("SELECT count(*), sum(fare_usd) FROM trips WHERE completed", True),
    (
        "SELECT base.city_id, count(*), avg(fare_usd) FROM trips "
        "GROUP BY base.city_id ORDER BY 1",
        True,
    ),
    (
        "SELECT base.status, count(DISTINCT base.payment_method) FROM trips "
        "GROUP BY base.status",
        False,
    ),
    ("SELECT base.fare.breakdown.tip FROM trips WHERE fare_usd > 30", False),
]


class TestTpchDifferential:
    @pytest.mark.parametrize("sql,ordered", TPCH_QUERIES)
    def test_query(self, engine, sql, ordered):
        assert_same(engine, sql, ordered)


class TestTripsDifferential:
    @pytest.mark.parametrize("sql,ordered", TRIPS_QUERIES)
    def test_query(self, engine, sql, ordered):
        assert_same(engine, sql, ordered)


class TestShapeDifferential:
    def test_partitioned_join(self, engine):
        assert_same(
            engine,
            "SELECT d.label, count(*) FROM lineitem l JOIN dim d "
            "ON l.orderkey = d.orderkey GROUP BY d.label",
        )

    def test_broadcast_join(self, engine):
        engine.session.properties["join_distribution_type"] = "broadcast"
        try:
            assert_same(
                engine,
                "SELECT count(*) FROM lineitem l JOIN dim d ON l.orderkey = d.orderkey",
                ordered=True,
            )
        finally:
            engine.session.properties.clear()

    def test_union_all(self, engine):
        assert_same(
            engine,
            "SELECT orderkey FROM lineitem WHERE quantity < 10 "
            "UNION ALL SELECT orderkey FROM dim",
        )

    def test_union_of_aggregations(self, engine):
        assert_same(
            engine,
            "SELECT count(*) FROM lineitem UNION ALL SELECT count(*) FROM trips",
        )

    def test_null_group_keys(self, engine):
        assert_same(
            engine,
            "SELECT k, count(*), sum(v), count(v) FROM nullable GROUP BY k",
        )

    def test_null_join_keys_do_not_match(self, engine):
        assert_same(
            engine,
            "SELECT a.v, b.v FROM nullable a JOIN nullable b ON a.k = b.k",
        )

    def test_limit_over_many_splits(self, engine):
        # Each task caps at the partial limit; the final limit applies
        # after the gather, so exactly 7 rows come back.
        staged = engine.execute("SELECT orderkey FROM lineitem LIMIT 7")
        assert len(staged.rows) == 7

    def test_empty_result(self, engine):
        assert_same(
            engine, "SELECT orderkey FROM lineitem WHERE quantity < 0", ordered=True
        )

    def test_global_aggregation_over_empty_input(self, engine):
        assert_same(
            engine,
            "SELECT count(*), sum(quantity) FROM lineitem WHERE quantity < 0",
            ordered=True,
        )
