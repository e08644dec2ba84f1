"""Regression: GROUP BY over a double column containing NaN and NULL.

IEEE NaN compares unequal to itself, so a naive vectorized factorizer
either mints one group per NaN row or (sorting bit patterns) disagrees
with the row-at-a-time oracle.  The engine canonicalizes NaN keys to the
null sentinel before factorization, in both the vectorized lane and the
row oracle: NaN and NULL rows land in one shared group, and staged vs
direct execution agree row-for-row.
"""

import math
from functools import partial

import pytest

from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, DOUBLE
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from tests.reference.pipeline import execute_direct

ROWS = [
    (1.0, 1),
    (float("nan"), 2),
    (None, 3),
    (2.0, 4),
    (float("nan"), 5),
    (1.0, 6),
    (None, 7),
    (float("nan"), 8),
]


@pytest.fixture(scope="module")
def engine():
    connector = MemoryConnector(split_size=3)
    connector.create_table("db", "measurements", [("d", DOUBLE), ("n", BIGINT)], ROWS)
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    return engine


def canonical_groups(rows):
    def key(row):
        d = row[0]
        if d is not None and isinstance(d, float) and math.isnan(d):
            return "nan-or-null"
        return "nan-or-null" if d is None else repr(d)

    return sorted((key(r), r[1]) for r in rows)


def test_nan_and_null_share_a_group(engine):
    result = engine.execute("SELECT d, count(*) FROM measurements GROUP BY d")
    # Groups: 1.0 (x2), 2.0 (x1), and the merged NaN/NULL sentinel (x5).
    assert len(result.rows) == 3
    counts = {}
    for d, count in result.rows:
        if d is None or (isinstance(d, float) and math.isnan(d)):
            counts["nan-or-null"] = counts.get("nan-or-null", 0) + count
        else:
            counts[d] = count
    assert counts == {1.0: 2, 2.0: 1, "nan-or-null": 5}


def test_nan_groups_staged_matches_direct(engine):
    sql = "SELECT d, count(*), sum(n) FROM measurements GROUP BY d"
    staged = engine.execute(sql)
    direct = execute_direct(engine, sql)
    assert canonical_groups(staged.rows) == canonical_groups(direct.rows)


def test_nan_aggregate_inputs_survive(engine):
    # Canonicalization applies to *keys* only; NaN measure values still
    # flow into aggregates (sum over a NaN-free group stays exact).
    result = engine.execute(
        "SELECT d, sum(n) FROM measurements WHERE n <= 6 GROUP BY d"
    )
    sums = {}
    for d, total in result.rows:
        if d is None or (isinstance(d, float) and math.isnan(d)):
            sums["nan-or-null"] = sums.get("nan-or-null", 0) + total
        else:
            sums[d] = total
    assert sums == {1.0: 7, 2.0: 4, "nan-or-null": 10}


# -- negative zero ------------------------------------------------------------

ZERO_ROWS = [(0.0, 1), (0.0, 2), (-0.0, 3), (-0.0, 4), (1.0, 5), (1.0, 6)]


@pytest.mark.parametrize("split_size", [6, 2], ids=["one_split", "three_splits"])
def test_negative_zero_and_zero_are_one_group(split_size):
    # -0.0 == 0.0 in SQL, but the two print differently: with a partial
    # aggregation per split, each task emits its own representative, and
    # the repartition exchange must send both to one FINAL task.
    connector = MemoryConnector(split_size=split_size)
    connector.create_table("db", "t", [("x", DOUBLE), ("v", BIGINT)], ZERO_ROWS)
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    sql = "SELECT x, count(*), sum(v) FROM t GROUP BY x"
    for run in (engine.execute, partial(execute_direct, engine)):
        assert sorted(run(sql).rows) == [(0.0, 4, 10), (1.0, 2, 11)]
