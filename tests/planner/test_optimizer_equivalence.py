"""Property: the optimizer never changes query results.

Runs a corpus of generated queries against the same data twice — once with
every optimizer rule enabled, once with the optimizer disabled entirely —
and asserts identical results.  This guards the whole rule set (predicate/
limit/aggregation pushdown, column pruning, TopN, geo rewrite) at once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectors.memory import MemoryConnector
from repro.connectors.olap.druid import DruidCluster, DruidConnector
from repro.core.types import BIGINT, BOOLEAN, DOUBLE, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session


def build_engines():
    connector = MemoryConnector(split_size=7)
    rows = [
        (i, f"name{i % 5}", float(i % 13) * 1.5, i % 3 == 0)
        for i in range(60)
    ]
    connector.create_table(
        "db",
        "t",
        [("id", BIGINT), ("name", VARCHAR), ("score", DOUBLE), ("flag", BOOLEAN)],
        rows,
    )
    connector.create_table(
        "db",
        "names",
        [("name", VARCHAR), ("category", VARCHAR)],
        [(f"name{i}", f"cat{i % 2}") for i in range(5)],
    )
    druid = DruidCluster(nodes=2)
    druid.create_datasource("events", [("name", VARCHAR), ("value", DOUBLE)])
    druid.add_segment("events", [(f"name{i % 5}", float(i)) for i in range(40)])
    druid.add_segment("events", [(f"name{i % 3}", float(i) * 2) for i in range(40)])

    engines = []
    for enabled in (True, False):
        engine = PrestoEngine(
            session=Session(catalog="memory", schema="db"),
            enable_optimizer=enabled,
        )
        engine.register_connector("memory", connector)
        engine.register_connector("druid", DruidConnector(druid))
        engines.append(engine)
    return engines


OPTIMIZED, UNOPTIMIZED = build_engines()

# A hand-built corpus hitting every rule.
CORPUS = [
    "SELECT id FROM t WHERE score > 5 AND name = 'name2'",
    "SELECT name, count(*), sum(score) FROM t GROUP BY name",
    "SELECT id, score FROM t ORDER BY score DESC LIMIT 4",
    "SELECT DISTINCT name FROM t WHERE flag",
    "SELECT count(*) FROM t WHERE id BETWEEN 10 AND 30",
    "SELECT t.id, n.category FROM t JOIN names n ON t.name = n.name WHERE t.score > 3",
    "SELECT n.category, avg(t.score) FROM t JOIN names n ON t.name = n.name GROUP BY n.category",
    "SELECT name FROM t WHERE id IN (1, 2, 3) OR score < 1",
    "SELECT sub.name, sub.c FROM (SELECT name, count(*) AS c FROM t GROUP BY name) sub WHERE sub.c > 10",
    "SELECT id FROM t WHERE NOT flag ORDER BY id LIMIT 100",
    "SELECT name, max(value) FROM druid.druid.events GROUP BY name",
    "SELECT value FROM druid.druid.events WHERE name = 'name1' LIMIT 5",
    "SELECT count(*) FROM druid.druid.events WHERE value >= 10",
    "SELECT t.name, count(*) FROM t LEFT JOIN names n ON t.name = n.name GROUP BY t.name HAVING count(*) > 5",
    "SELECT CASE WHEN score > 10 THEN 'hi' ELSE 'lo' END AS bucket, count(*) FROM t GROUP BY 1",
    "SELECT id + 1, score * 2 FROM t WHERE flag AND score > 2 ORDER BY 1",
    "SELECT count(DISTINCT name) FROM t",
    "SELECT name FROM t GROUP BY name ORDER BY count(*) DESC LIMIT 2",
]


@pytest.mark.parametrize("sql", CORPUS)
def test_corpus_query_equivalence(sql):
    optimized = OPTIMIZED.execute(sql)
    unoptimized = UNOPTIMIZED.execute(sql)
    assert optimized.column_names == unoptimized.column_names
    if "ORDER BY" in sql and "LIMIT" not in sql:
        assert optimized.rows == unoptimized.rows
    else:
        assert sorted(map(repr, optimized.rows)) == sorted(map(repr, unoptimized.rows))


# -- generated filter expressions over the same table ------------------------

comparisons = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
numeric_column = st.sampled_from(["id", "score"])


@st.composite
def predicates(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            column = draw(numeric_column)
            op = draw(comparisons)
            value = draw(st.integers(-5, 70))
            return f"{column} {op} {value}"
        if kind == 1:
            values = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
            names = ", ".join(f"'name{v}'" for v in values)
            return f"name IN ({names})"
        if kind == 2:
            low = draw(st.integers(0, 30))
            high = draw(st.integers(20, 70))
            return f"id BETWEEN {low} AND {high}"
        return "flag"
    left = draw(predicates(depth=depth - 1))
    right = draw(predicates(depth=depth - 1))
    connective = draw(st.sampled_from(["AND", "OR"]))
    negate = draw(st.booleans())
    combined = f"({left} {connective} {right})"
    return f"NOT {combined}" if negate else combined


@given(predicates())
@settings(max_examples=120, deadline=None)
def test_generated_filter_equivalence(predicate):
    sql = f"SELECT id FROM t WHERE {predicate}"
    optimized = OPTIMIZED.execute(sql)
    unoptimized = UNOPTIMIZED.execute(sql)
    assert sorted(optimized.rows) == sorted(unoptimized.rows)


@given(predicates(), st.sampled_from(["name", "flag"]), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_generated_aggregation_equivalence(predicate, group_column, limit):
    sql = (
        f"SELECT {group_column}, count(*), sum(score) FROM t "
        f"WHERE {predicate} GROUP BY {group_column} "
        f"ORDER BY 2 DESC, 1 LIMIT {limit}"
    )
    optimized = OPTIMIZED.execute(sql)
    unoptimized = UNOPTIMIZED.execute(sql)
    assert sorted(map(repr, optimized.rows)) == sorted(map(repr, unoptimized.rows))
