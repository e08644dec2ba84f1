"""Which lane ran: ``rows_processed_vectorized`` / ``rows_processed_fallback``
through the engine, staged over several splits.

Each relational operator has one production lane, the kernels; its
row-at-a-time reference is test-only, so nothing counts a fallback row.
These checks pin the rows each operator counts, and that staging never
changes the rows.
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
    # A TopN counts the rows entering it, once per fragment it runs in.  The
    # direct plan has one.  Staged, every scanned row enters a per-task
    # partial TopN in the source fragment (splits of 17 rows: seven full and
    # one of a single row) and each task's survivors the final one beyond
    # the gather.
    survivors = 7 * min(limit, 17) + 1
    for run, topn_rows in ((engine.execute, 120 + survivors), (engine.execute_direct, 120)):
        top = run(f"{full} LIMIT {limit}")
        everything = run(full)
        # repr keeps NaN comparable and tells -0.0 from 0.0.
        assert list(map(repr, top.rows)) == list(map(repr, everything.rows[:limit]))
        assert top.stats.rows_processed_fallback == 0
        assert top.stats.rows_processed_vectorized == topn_rows


@pytest.mark.parametrize("limit", [0, 3, 500])
def test_topn_above_a_final_aggregation_runs_in_the_hash_fragment(engine, limit):
    # count(*) ties on every k, so the order rests on the second key; the
    # per-task TopN sits above the FINAL aggregation, below the gather.
    full = "SELECT k, count(*) AS c FROM t GROUP BY k ORDER BY c DESC, k DESC"
    everything = engine.execute_direct(full).rows
    assert len(everything) == 8  # k in 0..6 and NULL
    for run in (engine.execute, engine.execute_direct):
        top = run(f"{full} LIMIT {limit}")
        assert top.rows == everything[:limit]
        assert top.stats.rows_processed_fallback == 0
    staged = engine.execute(f"{full} LIMIT {limit}").stats
    hash_stage = [s for s in staged.stage_summaries if s["distribution"] == "hash"]
    assert [s["rows_out"] for s in hash_stage] == [min(limit, 8) * hash_stage[0]["tasks"]]


def test_limit_zero_is_empty_on_both_paths(engine):
    sql = "SELECT k, d FROM t ORDER BY d, k LIMIT 0"
    for run in (engine.execute, engine.execute_direct):
        assert run(sql).rows == []
    # Nothing survives a task's partial TopN, so nothing is exchanged.
    assert engine.execute(sql).stats.rows_exchanged == 0


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


def test_dashboard_mix_has_no_fallback_rows(dashboard):
    assert len(dashboard) == 7
    # FINAL avg merges its intermediate rows and min(varchar) reduces ranks:
    # every text stays on the kernels.
    assert {name: s.rows_processed_fallback for name, s in dashboard.items()} == dict.fromkeys(
        dashboard, 0
    )
    topn = dashboard["topn_wide"]
    assert topn.splits_scanned == LINEITEM_ROWS // SPLIT_SIZE
    # TopN rows count once per fragment: every scanned row enters its task's
    # partial TopN, and each task's 100 survivors the final one beyond the gather.
    assert topn.rows_processed_vectorized == LINEITEM_ROWS + topn.splits_scanned * 100
    assert dashboard["highcard_groupby"].rows_processed_vectorized > 2 * LINEITEM_ROWS
