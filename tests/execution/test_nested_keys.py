"""Nested values as keys, through the engine.

ARRAY keys run on the kernels in every operator that keys on values:
GROUP BY, ORDER BY (Sort and TopN) and equi-joins, staged and direct.  ROW
and MAP values have no order, so the analyzer rejects them wherever a key
is required, naming the clause and the type.  A raw exception raised while
a stage starts (where dynamic filters are built) is categorized like one
raised inside a task attempt.
"""

import re

import pytest

from repro.common.errors import EngineDefectError, InvalidValueError, SemanticError
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, ArrayType, parse_type
from repro.execution import scheduler
from repro.execution.cluster import PrestoClusterSim
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session

ROW = parse_type("row(x bigint, y varchar)")
MAP = parse_type("map(varchar, bigint)")
ARRAYS = [[1, 2], [], [2], [1], None, [1, 2, 3], [10], [1, 2]]
ROWS = [
    (i, ARRAYS[i % len(ARRAYS)], {"x": i % 3, "y": "r"}, {"m": i % 2})
    for i in range(40)
]


@pytest.fixture(scope="module")
def engine():
    connector = MemoryConnector(split_size=7)
    connector.create_table(
        "db",
        "t",
        [("k", BIGINT), ("a", ArrayType(BIGINT)), ("r", ROW), ("m", MAP)],
        ROWS,
    )
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    return engine


def both(engine):
    return (engine.execute, engine.execute_direct)


def list_order(value):
    """Python's list order with NULL last, as ORDER BY ranks them."""
    return (value is None, value or [])


class TestArrayKeys:
    def test_group_by(self, engine):
        expected: dict = {}
        for k, a, _, _ in ROWS:
            count, total = expected.get(None if a is None else tuple(a), (0, 0))
            expected[None if a is None else tuple(a)] = (count + 1, total + k)
        for run in both(engine):
            result = run("SELECT a, count(*), sum(k) FROM t GROUP BY a")
            assert sorted(result.rows, key=lambda row: list_order(row[0])) == sorted(
                ((None if a is None else list(a), c, s) for a, (c, s) in expected.items()),
                key=lambda row: list_order(row[0]),
            )
            assert result.stats.rows_processed_fallback == 0

    def test_order_by_and_top_n(self, engine):
        pairs = sorted(((a, k) for k, a, _, _ in ROWS), key=lambda r: r[1])
        ascending = sorted(pairs, key=lambda r: list_order(r[0]))
        # Descending, NULL first; the stable sort keeps k ascending in ties.
        descending = sorted(pairs, key=lambda r: (r[0] is None, r[0] or []), reverse=True)
        for run in both(engine):
            everything = run("SELECT a, k FROM t ORDER BY a, k")
            top = run("SELECT a, k FROM t ORDER BY a DESC, k LIMIT 5")
            assert everything.rows == ascending
            assert top.rows == descending[:5]
            for result in (everything, top):
                assert result.stats.rows_processed_fallback == 0

    def test_equi_join_succeeds_without_a_dynamic_filter(self, engine):
        # An ARRAY key has no expression form, so it gets no dynamic filter
        # and the stage start never summarizes its lists.
        sql = "SELECT t1.k, t2.k FROM t t1 JOIN t t2 ON t1.a = t2.a"
        expected = sorted(
            (k1, k2)
            for k1, a1, _, _ in ROWS
            for k2, a2, _, _ in ROWS
            if a1 is not None and a1 == a2
        )
        for run in both(engine):
            result = run(sql)
            assert sorted(result.rows) == expected
            assert result.stats.rows_processed_fallback == 0
        assert engine.execute(sql).stats.dynamic_filters_built == 0

    def test_the_cluster_runs_the_join_and_admits_the_next_query(self, engine):
        cluster = PrestoClusterSim(workers=2)
        cluster.resource_group("one", max_running=1)
        handles = [
            engine.submit("SELECT count(*) FROM t t1 JOIN t t2 ON t1.a = t2.a"),
            engine.submit("SELECT count(*) FROM t"),
        ]
        for handle in handles:
            cluster.submit_handle(handle, resource_group="one")
        cluster.run_until_idle()
        assert [h.state for h in handles] == ["finished", "finished"]
        assert handles[1].result().rows == [(40,)]


# Each clause with a query that keys on the column ``{c}``.
CLAUSES = {
    "GROUP BY": "SELECT {c}, count(*) FROM t GROUP BY {c}",
    "ORDER BY": "SELECT k FROM t ORDER BY {c}",
    "JOIN ON": "SELECT t1.k FROM t t1 JOIN t t2 ON t1.{c} = t2.{c}",
    "SELECT DISTINCT": "SELECT DISTINCT {c} FROM t",
}


@pytest.mark.parametrize("column, presto_type", [("r", ROW), ("m", MAP)])
@pytest.mark.parametrize("clause", sorted(CLAUSES))
def test_row_and_map_keys_are_rejected_at_analysis(engine, clause, column, presto_type):
    message = re.escape(f"{clause} key of type {presto_type.display()} is not orderable")
    for run in both(engine):
        with pytest.raises(SemanticError, match=message):
            run(CLAUSES[clause].format(c=column))


@pytest.mark.parametrize(
    "raised, category",
    [(RuntimeError("broken summary"), EngineDefectError), (ZeroDivisionError("x"), InvalidValueError)],
)
def test_a_raw_error_starting_a_stage_is_categorized(engine, monkeypatch, raised, category):
    def broken(blocks):
        raise raised

    monkeypatch.setattr(scheduler, "dynamic_filter_for", broken)
    join = "SELECT count(*) FROM t t1 JOIN t t2 ON t1.k = t2.k"
    with pytest.raises(category):
        engine.execute(join)

    cluster = PrestoClusterSim(workers=2)
    cluster.resource_group("one", max_running=1)
    handles = [engine.submit(join), engine.submit("SELECT count(*) FROM t")]
    for handle in handles:
        cluster.submit_handle(handle, resource_group="one")
    cluster.run_until_idle()
    assert [h.state for h in handles] == ["failed", "finished"]
    assert isinstance(handles[0].error, category)
    assert handles[1].result().rows == [(40,)]
