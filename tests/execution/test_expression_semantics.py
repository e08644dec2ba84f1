"""IN, CASE and the lambdas through SQL, on the staged and the direct lane.

A NULL candidate makes a non-matching IN NULL; IN lists and CASE branches
must share one type (integer → bigint → double, NULL with anything), or
the query fails at analysis; ``any_match`` is NULL when nothing matches
and the predicate is NULL for some element.  Every one of these runs on
the compiled kernels, so none counts a row-at-a-time position.
"""

from functools import partial

import pytest

from repro.common.errors import SemanticError
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, DOUBLE, VARCHAR, ArrayType, MapType
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from tests.reference.pipeline import execute_direct

ROWS = [
    # x, y, z, d, s, a, m
    (1, 2, None, 0.5, "p", [1, None, 3], None),
    (3, None, 4, 2.5, "q", [], None),
    (2, 5, 2, None, None, None, None),
]


@pytest.fixture(scope="module")
def engine():
    connector = MemoryConnector()
    connector.create_table(
        "db",
        "t",
        [("x", BIGINT), ("y", BIGINT), ("z", BIGINT), ("d", DOUBLE), ("s", VARCHAR),
         ("a", ArrayType(BIGINT)), ("m", MapType(BIGINT, BIGINT))],
        ROWS,
    )
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    return engine


@pytest.fixture(params=["execute", "execute_direct"])
def run(request, engine):
    if request.param == "execute_direct":
        return partial(execute_direct, engine)
    return getattr(engine, request.param)


@pytest.mark.parametrize(
    "select, expected",
    [
        ("x IN (y, z), NOT (x IN (y, z))", [(None, None), (True, False), (None, None)]),
        ("x IN (d)", [(False,), (None,), (False,)]),
        ("any_match(a, v -> v > 3)", [(None,), (None,), (False,)]),
        ("filter(a, v -> v > 1)", [([3],), (None,), ([],)]),
        ("transform(a, v -> v * x)", [([1, None, 3],), (None,), ([],)]),
        ("transform(a, v -> any_match(a, w -> w > v))", [([True, None, None],), (None,), ([],)]),
        # map_keys of an all-NULL page is a NULL block, not an ArrayBlock.
        ("transform(map_keys(m), k -> k + 1)", [(None,), (None,), (None,)]),
    ],
)
def test_three_valued_answers(run, select, expected):
    # Rows in ORDER BY x: x = 1, 2, 3.
    result = run(f"SELECT {select} FROM t ORDER BY x")
    assert result.rows == expected
    assert result.stats.expr_positions_fallback == 0


def test_case_takes_the_common_type_of_its_branches(run):
    result = run("SELECT x, CASE WHEN x > 1 THEN d ELSE x END FROM t ORDER BY x")
    assert result.rows == [(1, 1.0), (2, None), (3, 2.5)]
    assert all(isinstance(row[1], float) for row in result.rows if row[1] is not None)


@pytest.mark.parametrize(
    "select",
    ["x IN ('a')", "s IN (1, 2)", "CASE WHEN x > 1 THEN 'a' ELSE 1 END"],
)
def test_operands_without_a_common_type_fail_at_analysis(run, select):
    with pytest.raises(SemanticError, match="incompatible types"):
        run(f"SELECT {select} FROM t")
