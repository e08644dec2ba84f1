"""ANALYZE statistics and cost-based optimization tests.

Covers the ANALYZE TABLE statement, the StatsProvider bridge from
connector statistics into plan-variable space (including staleness after
inserts), the self-gating cost-based join reorder (no statistics → the
plan is byte-identical to the rule-free pipeline), broadcast-vs-
partitioned selection, and EXPLAIN's estimated row counts.
"""

import pytest

from repro.common.errors import SemanticError
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.metastore.statistics import ColumnStatisticsEntry, TableStatistics
from repro.planner.analyzer import Session
from repro.planner.plan import JoinNode, PlanNode, TableScanNode
from repro.planner.stats import StatsProvider


def make_engine(session=None):
    connector = MemoryConnector(split_size=100)
    connector.create_table(
        "db",
        "big",
        [("k", BIGINT), ("v", BIGINT)],
        [(i % 40, i) for i in range(1000)],
    )
    connector.create_table(
        "db",
        "mid",
        [("k", BIGINT), ("label", VARCHAR)],
        [(i, f"m{i}") for i in range(100)],
    )
    connector.create_table(
        "db", "small", [("k", BIGINT)], [(i,) for i in range(10)]
    )
    engine = PrestoEngine(session=session or Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    return engine, connector


def analyze_all(engine):
    for table in ("big", "mid", "small"):
        engine.execute(f"ANALYZE TABLE {table}")


def scan_order(plan: PlanNode) -> list[str]:
    """Table names in plan tree order (probe side first)."""
    names = []

    def walk(node):
        if isinstance(node, TableScanNode):
            names.append(node.handle.table_name)
        for source in node.sources():
            walk(source)

    walk(plan)
    return names


class TestAnalyzeStatement:
    def test_analyze_returns_summary_row(self):
        engine, _ = make_engine()
        result = engine.execute("ANALYZE TABLE big")
        assert result.column_names == ["Table", "Rows", "Columns Analyzed"]
        [(table, rows, columns)] = result.rows
        assert "big" in table and rows == 1000 and columns == 2

    def test_analyze_without_table_keyword(self):
        engine, _ = make_engine()
        assert engine.execute("ANALYZE small").rows[0][1] == 10

    def test_analyze_missing_table_raises(self):
        engine, _ = make_engine()
        with pytest.raises(SemanticError):
            engine.execute("ANALYZE TABLE no_such_table")

    def test_column_statistics_roundtrip(self):
        entry = ColumnStatisticsEntry(
            ndv=40, min_value=0, max_value=39, null_fraction=0.25
        )
        assert ColumnStatisticsEntry.from_dict(entry.to_dict()) == entry


class TestStatsProvider:
    def scan_for(self, engine, table):
        plan = engine.plan(f"SELECT * FROM {table}")
        [name] = [
            n for n in scan_order(plan)
        ]  # single-table plan: exactly one scan
        node = plan
        while not isinstance(node, TableScanNode):
            (node,) = node.sources()
        return node

    def test_unanalyzed_table_has_no_stats(self):
        engine, _ = make_engine()
        provider = StatsProvider(engine.catalog)
        assert provider.stats_for_scan(self.scan_for(engine, "big")) is None

    def test_analyzed_stats_keyed_by_variable(self):
        engine, _ = make_engine()
        engine.execute("ANALYZE TABLE big")
        provider = StatsProvider(engine.catalog)
        scan = self.scan_for(engine, "big")
        row_count, columns = provider.stats_for_scan(scan)
        assert row_count == 1000
        # Keys are plan variable names (e.g. "k$0"), not connector columns.
        [k_variable] = [v for v, column in scan.assignments if column == "k"]
        assert columns[k_variable].ndv == 40
        assert (columns[k_variable].min_value, columns[k_variable].max_value) == (0, 39)

    def test_insert_staleness_drops_stats(self):
        # The memory connector versions statistics by row count; inserts
        # after ANALYZE make them stale, and stale stats are dropped
        # rather than served (the paper's reason for not using a CBO).
        engine, connector = make_engine()
        engine.execute("ANALYZE TABLE small")
        provider = StatsProvider(engine.catalog)
        assert provider.stats_for_scan(self.scan_for(engine, "small")) is not None
        connector.insert("db", "small", [(99,)])
        fresh_provider = StatsProvider(engine.catalog)
        assert fresh_provider.stats_for_scan(self.scan_for(engine, "small")) is None

    def test_reanalyze_refreshes(self):
        engine, connector = make_engine()
        engine.execute("ANALYZE TABLE small")
        connector.insert("db", "small", [(99,)])
        engine.execute("ANALYZE TABLE small")
        provider = StatsProvider(engine.catalog)
        row_count, _ = provider.stats_for_scan(self.scan_for(engine, "small"))
        assert row_count == 11


THREE_WAY_SQL = (
    "SELECT count(*) FROM small s "
    "JOIN mid m ON s.k = m.k "
    "JOIN big b ON m.k = b.k"
)


class TestCostBasedJoinOrdering:
    def test_without_stats_plan_is_unchanged(self):
        # Self-gating: un-analyzed relations must produce the exact plan
        # the rule-free pipeline builds (SQL order preserved).
        engine, _ = make_engine()
        assert scan_order(engine.plan(THREE_WAY_SQL)) == ["small", "mid", "big"]

    def test_with_stats_largest_becomes_probe(self):
        engine, _ = make_engine()
        analyze_all(engine)
        order = scan_order(engine.plan(THREE_WAY_SQL))
        assert order[0] == "big", f"largest relation should stream first, got {order}"
        assert order[-1] == "small", f"smallest build should be innermost, got {order}"

    def test_reordered_results_match_unordered(self):
        plain_engine, _ = make_engine()
        cbo_engine, _ = make_engine()
        analyze_all(cbo_engine)
        assert (
            cbo_engine.execute(THREE_WAY_SQL).rows
            == plain_engine.execute(THREE_WAY_SQL).rows
        )

    def test_outer_joins_are_not_reordered(self):
        engine, _ = make_engine()
        analyze_all(engine)
        sql = "SELECT count(*) FROM small s LEFT JOIN big b ON s.k = b.k"
        assert scan_order(engine.plan(sql)) == ["small", "big"]


class TestBroadcastSelection:
    def join_node(self, plan):
        node = plan
        while not isinstance(node, JoinNode):
            (node,) = node.sources()
        return node

    def test_automatic_with_small_analyzed_build_broadcasts(self):
        session = Session(
            catalog="memory",
            schema="db",
            properties={"join_distribution_type": "automatic"},
        )
        engine, _ = make_engine(session)
        analyze_all(engine)
        plan = engine.plan("SELECT count(*) FROM big b JOIN small s ON b.k = s.k")
        assert self.join_node(plan).distribution == "broadcast"

    def test_automatic_without_stats_stays_partitioned(self):
        session = Session(
            catalog="memory",
            schema="db",
            properties={"join_distribution_type": "automatic"},
        )
        engine, _ = make_engine(session)
        plan = engine.plan("SELECT count(*) FROM big b JOIN small s ON b.k = s.k")
        assert self.join_node(plan).distribution == "partitioned"

    def test_threshold_property_forces_partitioned(self):
        session = Session(
            catalog="memory",
            schema="db",
            properties={
                "join_distribution_type": "automatic",
                "broadcast_join_threshold_rows": 5,
            },
        )
        engine, _ = make_engine(session)
        analyze_all(engine)
        plan = engine.plan("SELECT count(*) FROM big b JOIN small s ON b.k = s.k")
        assert self.join_node(plan).distribution == "partitioned"

    def test_broadcast_results_match_partitioned(self):
        sql = "SELECT count(*) FROM big b JOIN small s ON b.k = s.k"
        partitioned_engine, _ = make_engine()
        auto = Session(
            catalog="memory",
            schema="db",
            properties={"join_distribution_type": "automatic"},
        )
        broadcast_engine, _ = make_engine(auto)
        analyze_all(broadcast_engine)
        assert (
            broadcast_engine.execute(sql).rows == partitioned_engine.execute(sql).rows
        )


class TestExplainEstimates:
    def test_unanalyzed_explain_has_no_estimates(self):
        engine, _ = make_engine()
        assert "{rows:" not in engine.explain("SELECT * FROM big")

    def test_analyzed_explain_annotates_rows(self):
        engine, _ = make_engine()
        engine.execute("ANALYZE TABLE big")
        text = engine.explain("SELECT * FROM big WHERE k = 3")
        assert "{rows:" in text

    def test_scan_estimate_is_exact_row_count(self):
        engine, _ = make_engine()
        engine.execute("ANALYZE TABLE small")
        text = engine.explain("SELECT * FROM small")
        assert "{rows: 10}" in text

    def test_equi_join_divides_by_the_larger_key_ndv(self):
        engine, _ = make_engine()
        analyze_all(engine)
        # big.k has 40 distinct values, small.k 10: 1000 × 10 / 40.
        text = engine.explain("SELECT * FROM big b JOIN small s ON b.k = s.k")
        assert "Join[inner, partitioned](k$0 = k$2) {rows: 250}" in text
        # An outer join keeps at least its preserved side.
        text = engine.explain("SELECT * FROM big b LEFT JOIN small s ON b.k = s.k")
        assert "Join[left, partitioned](k$0 = k$2) {rows: 1000}" in text
        # A cross join divides by nothing.
        text = engine.explain("SELECT * FROM mid CROSS JOIN small")
        assert "{rows: 1000}" in text.splitlines()[0]

    def test_range_filter_interpolates_between_min_and_max(self):
        engine, _ = make_engine()
        engine.execute("ANALYZE TABLE big")
        # v spans [0, 999]: 1000 × (999 - 900) / 999.
        text = engine.explain("SELECT * FROM big WHERE v >= 900")
        assert "Filter[(v$1 >= 900)] {rows: 99.10}" in text
        # The constant on the left flips the comparison: 1000 × 50 / 999.
        assert "{rows: 50.05}" in engine.explain("SELECT * FROM big WHERE 50 > v")
        # A bound outside [min, max] clamps.
        assert "{rows: 0}" in engine.explain("SELECT * FROM big WHERE v > 5000")
