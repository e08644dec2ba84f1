"""Which lane ran: ``rows_processed_vectorized`` / ``rows_processed_fallback``
through the engine, staged over several splits.

Each relational operator has one vectorized lane and one retained
reference, and counts every input row in exactly one of the two counters.
These checks pin which queries stay entirely on the kernels, and that the
lane never changes the rows.
"""

import importlib
from pathlib import Path

import pytest

from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from repro.workloads.tpch import LINEITEM_COLUMNS, generate_lineitem

REPO_ROOT = Path(__file__).resolve().parents[2]
LINEITEM_ROWS = 2000
SPLIT_SIZE = 250


@pytest.fixture(scope="module")
def engine():
    nan = float("nan")
    keyed = [
        (
            i % 7 if i % 11 else None,
            [1.5, -0.0, 0.0, None, nan, -3.0][i % 6],
            f"s{i % 5}" if i % 4 else None,
        )
        for i in range(120)
    ]
    connector = MemoryConnector(split_size=17)
    connector.create_table("db", "t", [("k", BIGINT), ("d", DOUBLE), ("s", VARCHAR)], keyed)
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    return engine


def test_final_count_star_merges_on_the_kernel(engine):
    sql = "SELECT k, count(*) FROM t GROUP BY k"
    staged = engine.execute(sql)
    assert staged.stats.splits_scanned >= 2
    assert staged.stats.rows_processed_fallback == 0
    # 120 rows into the PARTIAL steps, then their states into the FINAL ones.
    assert staged.stats.rows_processed_vectorized > 120
    assert sorted(map(repr, staged.rows)) == sorted(map(repr, engine.execute_direct(sql).rows))


@pytest.mark.parametrize(
    "order_by",
    [
        "k DESC, d, s",
        "d, k DESC",  # NULL, NaN, -0.0 beside 0.0, and ties from every split
        "s DESC, k",
        "d DESC",
    ],
)
@pytest.mark.parametrize("limit", [1, 10, 500])
def test_order_by_limit_is_the_head_of_order_by(engine, order_by, limit):
    full = f"SELECT k, d, s FROM t ORDER BY {order_by}"
    for run in (engine.execute, engine.execute_direct):
        top = run(f"{full} LIMIT {limit}")
        everything = run(full)
        # repr keeps NaN comparable and tells -0.0 from 0.0.
        assert list(map(repr, top.rows)) == list(map(repr, everything.rows[:limit]))
        assert top.stats.rows_processed_fallback == 0
        assert top.stats.rows_processed_vectorized == 120


@pytest.fixture(scope="module")
def dashboard():
    """The e2e benchmark's dashboard texts and tables, at its smoke size."""
    with pytest.MonkeyPatch.context() as patch:
        # workloads.py imports its siblings and bench_traffic_storm by bare name.
        patch.syspath_prepend(str(REPO_ROOT / "benchmarks"))
        patch.syspath_prepend(str(REPO_ROOT / "benchmarks" / "e2e"))
        workloads = importlib.import_module("workloads")
    fact = MemoryConnector(split_size=SPLIT_SIZE)
    fact.create_table(
        "db", "lineitem", LINEITEM_COLUMNS, generate_lineitem(LINEITEM_ROWS, seed=7)
    )
    dim = MemoryConnector()
    dim.create_table(
        "db", "supplier", workloads.SUPPLIER_COLUMNS, workloads.generate_supplier(8)
    )
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", fact)
    engine.register_connector("dim", dim)
    return {t.name: engine.execute(t.sql).stats for t in workloads.MIX}


def test_dashboard_mix_fallback_rows_are_avg_states_and_varchar_min(dashboard):
    assert len(dashboard) == 7
    fallback = {name: s.rows_processed_fallback for name, s in dashboard.items()}
    # FINAL avg merges (sum, count) states and min(varchar) compares Python
    # strings; both are GenericAccumulator's.  Nothing else leaves the kernels.
    assert {name for name, rows in fallback.items() if rows} == {
        "q1_pricing_summary",
        "varchar_filter",
    }
    topn = dashboard["topn_wide"]
    assert topn.splits_scanned == LINEITEM_ROWS // SPLIT_SIZE
    # The plan has one TopN, beyond the gather: every scanned row enters it.
    assert topn.rows_processed_vectorized == LINEITEM_ROWS
    assert dashboard["highcard_groupby"].rows_processed_vectorized > 2 * LINEITEM_ROWS
