"""The TPC-H-style workload takes the compiled vectorized lane end to end.

The interpreter-fallback counter must stay at zero for the whitelisted
function set.  (The ``--smoke`` run of ``bench_expressions.py`` that used
to sit here is one case of ``test_bench_committed_figures.py::test_smoke_run``.)
"""

import pytest

from repro.connectors.memory import MemoryConnector
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from repro.workloads.tpch import LINEITEM_COLUMNS, generate_lineitem


@pytest.fixture(scope="module")
def engine():
    connector = MemoryConnector(split_size=47)
    connector.create_table("db", "lineitem", LINEITEM_COLUMNS, generate_lineitem(300))
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    return engine


# TPC-H-style queries restricted to the whitelisted vectorized function
# set: comparisons (incl. varchar dates), arithmetic, BETWEEN, IN, LIKE,
# and the string kernels.
TPCH_VECTORIZED_QUERIES = [
    "SELECT returnflag, sum(quantity) FROM lineitem "
    "WHERE shipdate <= '1998-09-02' GROUP BY returnflag",
    "SELECT sum(extendedprice * discount) FROM lineitem "
    "WHERE discount >= 0.03 AND quantity < 24",
    "SELECT count(*) FROM lineitem "
    "WHERE quantity BETWEEN 5 AND 30 AND shipmode IN ('AIR', 'MAIL')",
    "SELECT orderkey, extendedprice * (1 - discount) FROM lineitem "
    "WHERE shipmode LIKE 'A%' LIMIT 50",
    "SELECT upper(shipmode), count(*) FROM lineitem GROUP BY upper(shipmode)",
]


@pytest.mark.parametrize("sql", TPCH_VECTORIZED_QUERIES)
def test_tpch_workload_takes_vectorized_lane(engine, sql):
    result = engine.execute(sql)
    stats = result.stats
    assert stats.expr_positions_vectorized > 0, sql
    assert stats.expr_positions_fallback == 0, (
        f"{sql}: {stats.expr_positions_fallback} positions fell back to the interpreter"
    )
