"""End-to-end tests: SQL in, rows out, through the full engine pipeline."""

import pytest

from repro.common.errors import InsufficientResourcesError, SemanticError
from repro.connectors.memory import MemoryConnector
from repro.connectors.spi import Catalog
from repro.core.types import BIGINT, BOOLEAN, DOUBLE, RowType, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session

from tests.obs.helpers import assert_query_observable


@pytest.fixture
def engine():
    connector = MemoryConnector(split_size=3)  # force multiple splits
    connector.create_table(
        "sales",
        "orders",
        [("order_id", BIGINT), ("city", VARCHAR), ("amount", DOUBLE), ("open", BOOLEAN)],
        [
            (1, "sf", 10.0, True),
            (2, "sf", 20.0, False),
            (3, "nyc", 5.0, True),
            (4, "nyc", 15.0, True),
            (5, "chi", 7.5, False),
            (6, "sf", 2.5, True),
            (7, "chi", 30.0, True),
        ],
    )
    connector.create_table(
        "sales",
        "cities",
        [("city", VARCHAR), ("state", VARCHAR)],
        [("sf", "CA"), ("nyc", "NY"), ("chi", "IL")],
    )
    engine = PrestoEngine(session=Session(catalog="memory", schema="sales"))
    engine.register_connector("memory", connector)
    return engine


class TestBasicQueries:
    def test_select_all(self, engine):
        result = engine.execute("SELECT * FROM orders")
        assert len(result.rows) == 7
        assert result.column_names == ["order_id", "city", "amount", "open"]

    def test_projection(self, engine):
        result = engine.execute("SELECT city, amount FROM orders")
        assert result.column_names == ["city", "amount"]
        assert (result.rows[0]) == ("sf", 10.0)

    def test_filter(self, engine):
        result = engine.execute("SELECT order_id FROM orders WHERE amount > 10")
        assert sorted(r[0] for r in result.rows) == [2, 4, 7]

    def test_arithmetic_projection(self, engine):
        result = engine.execute("SELECT order_id, amount * 2 AS double_amount FROM orders WHERE order_id = 1")
        assert result.rows == [(1, 20.0)]

    def test_in_predicate(self, engine):
        result = engine.execute("SELECT order_id FROM orders WHERE city IN ('sf', 'chi')")
        assert sorted(r[0] for r in result.rows) == [1, 2, 5, 6, 7]

    def test_between(self, engine):
        result = engine.execute("SELECT order_id FROM orders WHERE amount BETWEEN 7 AND 16")
        assert sorted(r[0] for r in result.rows) == [1, 4, 5]

    def test_like(self, engine):
        result = engine.execute("SELECT order_id FROM orders WHERE city LIKE 's%'")
        assert sorted(r[0] for r in result.rows) == [1, 2, 6]

    def test_boolean_column_filter(self, engine):
        result = engine.execute("SELECT count(*) FROM orders WHERE open")
        assert result.rows == [(5,)]

    def test_limit(self, engine):
        result = engine.execute("SELECT order_id FROM orders LIMIT 3")
        assert len(result.rows) == 3

    def test_select_without_from(self, engine):
        result = engine.execute("SELECT 1 + 1 AS two, 'x' AS s")
        assert result.rows == [(2, "x")]

    def test_case_expression(self, engine):
        result = engine.execute(
            "SELECT order_id, CASE WHEN amount > 10 THEN 'big' ELSE 'small' END AS size "
            "FROM orders WHERE order_id <= 2 ORDER BY order_id"
        )
        assert result.rows == [(1, "small"), (2, "big")]

    def test_cast(self, engine):
        result = engine.execute("SELECT cast(amount AS bigint) FROM orders WHERE order_id = 2")
        assert result.rows == [(20,)]


class TestAggregation:
    def test_global_count(self, engine):
        assert engine.execute("SELECT count(*) FROM orders").rows == [(7,)]

    def test_group_by(self, engine):
        result = engine.execute(
            "SELECT city, count(*), sum(amount) FROM orders GROUP BY city ORDER BY city"
        )
        assert result.rows == [
            ("chi", 2, 37.5),
            ("nyc", 2, 20.0),
            ("sf", 3, 32.5),
        ]

    def test_group_by_ordinal(self, engine):
        result = engine.execute("SELECT city, max(amount) FROM orders GROUP BY 1 ORDER BY 1")
        assert result.rows[0] == ("chi", 30.0)

    def test_having(self, engine):
        result = engine.execute(
            "SELECT city, count(*) AS c FROM orders GROUP BY city HAVING count(*) > 2"
        )
        assert result.rows == [("sf", 3)]

    def test_avg_and_min(self, engine):
        result = engine.execute("SELECT avg(amount), min(amount) FROM orders")
        assert result.rows[0][0] == pytest.approx(90.0 / 7)
        assert result.rows[0][1] == 2.5

    def test_count_distinct(self, engine):
        result = engine.execute("SELECT count(DISTINCT city) FROM orders")
        assert result.rows == [(3,)]

    def test_approx_distinct(self, engine):
        result = engine.execute("SELECT approx_distinct(city) FROM orders")
        assert result.rows == [(3,)]

    def test_group_key_expression(self, engine):
        result = engine.execute(
            "SELECT amount > 10, count(*) FROM orders GROUP BY amount > 10 ORDER BY 2"
        )
        assert result.rows == [(True, 3), (False, 4)]

    def test_empty_group_produces_single_row(self, engine):
        result = engine.execute("SELECT count(*) FROM orders WHERE amount > 1000")
        assert result.rows == [(0,)]

    def test_bare_column_outside_group_rejected(self, engine):
        with pytest.raises(SemanticError):
            engine.execute("SELECT city, amount FROM orders GROUP BY city")


class TestOrderingAndDistinct:
    def test_order_by(self, engine):
        result = engine.execute("SELECT order_id FROM orders ORDER BY amount DESC")
        assert result.rows[0] == (7,)
        assert result.rows[-1] == (6,)

    def test_order_by_alias(self, engine):
        result = engine.execute("SELECT amount AS a FROM orders ORDER BY a LIMIT 2")
        assert [r[0] for r in result.rows] == [2.5, 5.0]

    def test_order_by_hidden_column(self, engine):
        # ORDER BY a column not in the SELECT list.
        result = engine.execute("SELECT order_id FROM orders ORDER BY amount LIMIT 1")
        assert result.rows == [(6,)]
        assert result.column_names == ["order_id"]

    def test_distinct(self, engine):
        result = engine.execute("SELECT DISTINCT city FROM orders")
        assert sorted(r[0] for r in result.rows) == ["chi", "nyc", "sf"]

    def test_topn_via_order_limit(self, engine):
        result = engine.execute("SELECT city, amount FROM orders ORDER BY amount DESC LIMIT 2")
        assert result.rows == [("chi", 30.0), ("sf", 20.0)]


class TestJoins:
    def test_inner_join(self, engine):
        result = engine.execute(
            "SELECT o.order_id, c.state FROM orders o JOIN cities c ON o.city = c.city "
            "WHERE o.amount > 10 ORDER BY o.order_id"
        )
        assert result.rows == [(2, "CA"), (4, "NY"), (7, "IL")]

    def test_join_group_by(self, engine):
        result = engine.execute(
            "SELECT c.state, sum(o.amount) FROM orders o JOIN cities c ON o.city = c.city "
            "GROUP BY c.state ORDER BY 1"
        )
        assert result.rows == [("CA", 32.5), ("IL", 37.5), ("NY", 20.0)]

    def test_left_join(self, engine):
        connector = engine.catalog.connector("memory")
        connector.create_table(
            "sales", "extra", [("city", VARCHAR), ("note", VARCHAR)], [("sf", "hq")]
        )
        result = engine.execute(
            "SELECT o.city, e.note FROM orders o LEFT JOIN extra e ON o.city = e.city "
            "WHERE o.order_id IN (1, 3) ORDER BY o.order_id"
        )
        assert result.rows == [("sf", "hq"), ("nyc", None)]

    def test_cross_join(self, engine):
        result = engine.execute(
            "SELECT count(*) FROM orders CROSS JOIN cities"
        )
        assert result.rows == [(21,)]

    def test_join_with_non_equi_filter(self, engine):
        result = engine.execute(
            "SELECT count(*) FROM orders o JOIN cities c ON o.city = c.city AND o.amount > 10"
        )
        assert result.rows == [(3,)]

    def test_big_join_raises_insufficient_resources(self, engine):
        # Section XII.C: "Presto has limitations for big joins ... will
        # return an error, with message 'Insufficient Resource'".
        engine.max_build_rows = 2
        with pytest.raises(InsufficientResourcesError):
            engine.execute("SELECT count(*) FROM orders o JOIN cities c ON o.city = c.city")


class TestSubqueries:
    def test_subquery_in_from(self, engine):
        result = engine.execute(
            "SELECT sub.c FROM (SELECT city AS c, count(*) AS n FROM orders GROUP BY city) sub "
            "WHERE sub.n > 2"
        )
        assert result.rows == [("sf",)]


class TestNestedData:
    def test_struct_dereference(self):
        base_type = RowType.of(("city_id", BIGINT), ("driver_uuid", VARCHAR))
        connector = MemoryConnector()
        connector.create_table(
            "rawdata",
            "trips",
            [("base", base_type), ("datestr", VARCHAR)],
            [
                ({"city_id": 12, "driver_uuid": "d1"}, "2017-03-02"),
                ({"city_id": 7, "driver_uuid": "d2"}, "2017-03-02"),
                ({"city_id": 12, "driver_uuid": "d3"}, "2017-03-03"),
            ],
        )
        engine = PrestoEngine(session=Session(catalog="memory", schema="rawdata"))
        engine.register_connector("memory", connector)
        # The paper's section V.C example query shape.
        result = engine.execute(
            "SELECT base.driver_uuid FROM trips "
            "WHERE datestr = '2017-03-02' AND base.city_id IN (12)"
        )
        assert result.rows == [("d1",)]

    def test_group_by_nested_field(self):
        base_type = RowType.of(("city_id", BIGINT),)
        connector = MemoryConnector()
        connector.create_table(
            "rawdata",
            "trips",
            [("base", base_type)],
            [({"city_id": 1},), ({"city_id": 1},), ({"city_id": 2},)],
        )
        engine = PrestoEngine(session=Session(catalog="memory", schema="rawdata"))
        engine.register_connector("memory", connector)
        result = engine.execute(
            "SELECT base.city_id, count(*) FROM trips GROUP BY base.city_id ORDER BY 1"
        )
        assert result.rows == [(1, 2), (2, 1)]


class TestErrors:
    def test_unknown_table(self, engine):
        with pytest.raises(SemanticError):
            engine.execute("SELECT * FROM nope")

    def test_unknown_column(self, engine):
        with pytest.raises(SemanticError):
            engine.execute("SELECT missing FROM orders")

    def test_type_mismatch(self, engine):
        with pytest.raises(SemanticError):
            engine.execute("SELECT city + 1 FROM orders")

    def test_ambiguous_column(self, engine):
        with pytest.raises(SemanticError):
            engine.execute("SELECT city FROM orders o JOIN cities c ON o.city = c.city")


class TestExplain:
    def test_explain_renders_plan(self, engine):
        text = engine.explain("SELECT city FROM orders WHERE amount > 10")
        assert "TableScan" in text
        assert "Output" in text

    def test_stats_populated(self, engine):
        result = engine.execute("SELECT count(*) FROM orders")
        assert result.stats.splits_scanned >= 3  # split_size=3 over 7 rows
        assert result.stats.rows_scanned == 7


class TestObservability:
    # Every shape this suite exercises — scans, joins, aggregations,
    # limits — must also pass the trace/metrics invariants.
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM orders",
            "SELECT order_id FROM orders WHERE amount > 10",
            "SELECT city, sum(amount) FROM orders GROUP BY city",
            "SELECT o.order_id, c.state FROM orders o JOIN cities c ON o.city = c.city",
            "SELECT order_id FROM orders ORDER BY amount DESC LIMIT 3",
        ],
    )
    def test_queries_are_observable(self, engine, sql):
        result = engine.execute(sql)
        assert_query_observable(result, engine.metrics)
