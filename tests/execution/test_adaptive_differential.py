"""Differential oracle for the adaptive execution stack.

Every query runs with the full adaptive stack on — ANALYZE statistics
feeding cost-based join ordering, runtime dynamic filters, and hash
stages sized from observed rows — and must return exactly what the direct
in-process pipeline (the repo's standing oracle) returns: with fault
injection at 10% rates, under the concurrent cluster event loop, and
bit-for-bit deterministically across identical runs.
"""

import pytest

from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, VARCHAR
from repro.execution.cluster import PrestoClusterSim
from repro.execution.engine import PrestoEngine
from repro.execution.faults import FaultInjector
from repro.planner.analyzer import Session
from repro.workloads.tpch import LINEITEM_COLUMNS, generate_lineitem
from tests.reference.pipeline import execute_direct


def normalize(row):
    return tuple(
        float(f"{value:.10g}") if isinstance(value, float) else value for value in row
    )


def canonical(rows):
    return sorted(map(repr, map(normalize, rows)))


def make_adaptive_engine(analyzed=True, **engine_kwargs):
    connector = MemoryConnector(split_size=47)
    connector.create_table("db", "lineitem", LINEITEM_COLUMNS, generate_lineitem(300))
    connector.create_table(
        "db",
        "orders",
        [("orderkey", BIGINT), ("priority", VARCHAR)],
        [(i, f"p{i % 3}") for i in range(1, 80)],
    )
    connector.create_table(
        "db",
        "priorities",
        [("priority", VARCHAR), ("rank", BIGINT)],
        [("p0", 1), ("p1", 2), ("p2", 3)],
    )
    engine = PrestoEngine(
        session=Session(catalog="memory", schema="db"),
        **engine_kwargs,
    )
    engine.register_connector("memory", connector)
    if analyzed:
        for table in ("lineitem", "orders", "priorities"):
            engine.execute(f"ANALYZE TABLE {table}")
    return engine


QUERIES = [
    # Join with a selective build side: dynamic filter prunes the probe.
    "SELECT count(*), sum(l.quantity) FROM lineitem l "
    "JOIN orders o ON l.orderkey = o.orderkey WHERE o.priority = 'p1'",
    # Three-way chain: CBO reorders, dynamic filters stack per join.
    "SELECT p.rank, count(*) FROM lineitem l "
    "JOIN orders o ON l.orderkey = o.orderkey "
    "JOIN priorities p ON o.priority = p.priority "
    "GROUP BY p.rank",
    # Empty build side: every probe split skips.
    "SELECT count(*) FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey "
    "WHERE o.priority = 'no-such'",
    # Grouped aggregation through a hash stage sized from its input.
    "SELECT returnflag, linestatus, sum(extendedprice), count(*) "
    "FROM lineitem GROUP BY returnflag, linestatus",
    # Left join must bypass dynamic filtering yet still agree.
    "SELECT count(o.priority) FROM lineitem l "
    "LEFT JOIN orders o ON l.orderkey = o.orderkey",
]

STATS_FIELDS = [
    "tasks_total",
    "tasks_retried",
    "stages_total",
    "rows_scanned",
    "rows_output",
    "rows_exchanged",
    "dynamic_filters_built",
    "dynamic_filter_rows_pruned",
    "dynamic_filter_splits_skipped",
    "simulated_ms",
]


class TestAdaptiveDifferential:
    def test_staged_agrees_with_direct_oracle(self):
        engine = make_adaptive_engine()
        for sql in QUERIES:
            staged = engine.execute(sql)
            direct = execute_direct(engine, sql)
            assert canonical(staged.rows) == canonical(direct.rows), sql

    def test_adaptive_stack_actually_engaged(self):
        engine = make_adaptive_engine()
        result = engine.execute(QUERIES[0])
        assert result.stats.dynamic_filters_built >= 1
        assert result.stats.dynamic_filter_rows_pruned > 0

    def test_unanalyzed_engine_still_agrees(self):
        engine = make_adaptive_engine(analyzed=False)
        for sql in QUERIES:
            staged = engine.execute(sql)
            direct = execute_direct(engine, sql)
            assert canonical(staged.rows) == canonical(direct.rows), sql


class TestAdaptiveUnderFaults:
    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_task_faults_converge_to_oracle(self, seed):
        clean = [make_adaptive_engine().execute(sql).rows for sql in QUERIES]
        engine = make_adaptive_engine(
            fault_injector=FaultInjector(seed=seed, task_failure_rate=0.1)
        )
        retried = 0
        for sql, expected in zip(QUERIES, clean):
            result = engine.execute(sql)
            retried += result.stats.tasks_retried
            assert canonical(result.rows) == canonical(expected), sql
        assert retried > 0, "10% task fault rate never fired across the suite"

    def test_split_faults_converge_to_oracle(self):
        clean = [make_adaptive_engine().execute(sql).rows for sql in QUERIES]
        # lineitem's one source task reads its seven splits; a split rate of
        # 1 - 0.9 ** (1 / 7) fails 10 % of that task's attempts (fewer of
        # the two-split orders task's and the one-split priorities task's).
        engine = make_adaptive_engine(
            fault_injector=FaultInjector(seed=5, split_failure_rate=1 - 0.9 ** (1 / 7))
        )
        for sql, expected in zip(QUERIES, clean):
            assert canonical(engine.execute(sql).rows) == canonical(expected), sql


class TestAdaptiveConcurrent:
    def run_concurrent(self, fault_injector=None):
        engine = make_adaptive_engine(fault_injector=fault_injector)
        cluster = PrestoClusterSim(workers=4, slots_per_worker=2)
        handles = []
        for sql in QUERIES:
            handles.append(engine.submit(sql))
            cluster.submit_handle(handles[-1])
        cluster.run_until_idle()
        assert cluster.max_concurrent_running() > 1, "nothing actually overlapped"
        return handles

    def test_concurrent_matches_sequential(self):
        sequential_engine = make_adaptive_engine()
        sequential = [sequential_engine.execute(sql) for sql in QUERIES]
        handles = self.run_concurrent()
        for sql, handle, expected in zip(QUERIES, handles, sequential):
            assert handle.error is None, f"{sql}: {handle.error}"
            result = handle.result()
            assert canonical(result.rows) == canonical(expected.rows), sql
            for field in STATS_FIELDS:
                assert getattr(result.stats, field) == getattr(
                    expected.stats, field
                ), f"{field} diverged for {sql}"

    def test_concurrent_with_faults_matches_sequential(self):
        injector = FaultInjector(seed=11, task_failure_rate=0.1)
        sequential_engine = make_adaptive_engine(fault_injector=injector)
        sequential = [sequential_engine.execute(sql) for sql in QUERIES]
        handles = self.run_concurrent(
            fault_injector=FaultInjector(seed=11, task_failure_rate=0.1)
        )
        for sql, handle, expected in zip(QUERIES, handles, sequential):
            result = handle.result()
            assert canonical(result.rows) == canonical(expected.rows), sql
            assert result.stats.tasks_retried == expected.stats.tasks_retried, sql


class TestDeterminism:
    def run_suite(self):
        engine = make_adaptive_engine(
            fault_injector=FaultInjector(seed=42, task_failure_rate=0.1)
        )
        outputs = []
        for sql in QUERIES:
            result = engine.execute(sql)
            stats = result.stats.as_dict()
            stats.pop("query_id", None)
            outputs.append((result.rows, stats))
        return outputs

    def test_identical_runs_are_byte_identical(self):
        # Same seed, same submission order: rows, retry decisions, and
        # every stats counter (including simulated time) must reproduce.
        first, second = self.run_suite(), self.run_suite()
        assert repr(first) == repr(second)
