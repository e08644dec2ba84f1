"""Fault injection and task-level retries in staged execution.

The acceptance bar: with a seeded injector at a 10% task-failure rate, a
TPC-H staged query returns results identical to the zero-fault run,
``tasks_retried > 0``, and two runs with the same seed produce
byte-identical ``task_records``; a USER_ERROR is never retried while an
INTERNAL_ERROR is retried up to the bound then surfaces with its
category.
"""

import pytest

from repro.common.errors import (
    ErrorCategory,
    InjectedFaultError,
    PrestoError,
    SemanticError,
    TaskTimeoutError,
)
from repro.connectors.memory import MemoryConnector
from repro.connectors.spi import ConnectorTableHandle
from repro.core.types import BIGINT, VARCHAR
from repro.execution.faults import FaultInjector
from repro.execution.engine import PrestoEngine
from repro.execution.scheduler import RETRY_BACKOFF_MS
from repro.planner.analyzer import Session
from repro.workloads.tpch import LINEITEM_COLUMNS, generate_lineitem

from tests.obs.helpers import assert_query_observable
from tests.reference.pipeline import execute_direct

TPCH_SQL = (
    "SELECT returnflag, linestatus, sum(quantity), avg(extendedprice), count(*) "
    "FROM lineitem GROUP BY returnflag, linestatus ORDER BY returnflag, linestatus"
)


def make_engine(**kwargs):
    connector = MemoryConnector(split_size=31)
    connector.create_table("db", "lineitem", LINEITEM_COLUMNS, generate_lineitem(250))
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"), **kwargs)
    engine.register_connector("memory", connector)
    return engine


def normalize(rows):
    return [
        tuple(float(f"{v:.10g}") if isinstance(v, float) else v for v in row)
        for row in rows
    ]


class TestErrorTaxonomy:
    def test_categories_and_retryability(self):
        assert ErrorCategory.USER_ERROR.retryable is False
        assert ErrorCategory.INSUFFICIENT_RESOURCES.retryable is False
        assert ErrorCategory.INTERNAL_ERROR.retryable is True
        assert ErrorCategory.EXTERNAL.retryable is True

    def test_error_classes_carry_categories(self):
        from repro.common.errors import (
            ExecutionError,
            InsufficientResourcesError,
            StorageError,
            SyntaxError_,
        )

        assert SyntaxError_("bad").category is ErrorCategory.USER_ERROR
        assert SemanticError("bad").category is ErrorCategory.USER_ERROR
        assert ExecutionError("boom").category is ErrorCategory.INTERNAL_ERROR
        assert StorageError("s3").category is ErrorCategory.EXTERNAL
        assert InsufficientResourcesError().category is (
            ErrorCategory.INSUFFICIENT_RESOURCES
        )
        assert not InsufficientResourcesError().retryable
        assert ExecutionError("boom").retryable

    def test_injected_fault_takes_configured_category(self):
        error = InjectedFaultError("x", category=ErrorCategory.EXTERNAL)
        assert error.category is ErrorCategory.EXTERNAL
        assert error.retryable


class TestFaultInjector:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultInjector(task_failure_rate=1.5)

    def test_decisions_are_deterministic(self):
        a = FaultInjector(seed=11, task_failure_rate=0.3)
        b = FaultInjector(seed=11, task_failure_rate=0.3)
        decisions_a = [a.should_fail_task("q", 0, t, 1) for t in range(200)]
        decisions_b = [b.should_fail_task("q", 0, t, 1) for t in range(200)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_seed_changes_pattern(self):
        a = FaultInjector(seed=1, task_failure_rate=0.3)
        b = FaultInjector(seed=2, task_failure_rate=0.3)
        assert [a.should_fail_task("q", 0, t, 1) for t in range(200)] != [
            b.should_fail_task("q", 0, t, 1) for t in range(200)
        ]

    def test_rate_roughly_respected(self):
        injector = FaultInjector(seed=5, task_failure_rate=0.2)
        failures = sum(
            injector.should_fail_task("q", 0, t, 1) for t in range(2000)
        )
        assert 300 < failures < 500  # ~400 expected

    def test_attempt_number_changes_outcome(self):
        # A doomed attempt is usually followed by a surviving retry: the
        # attempt number is hashed into the decision.
        injector = FaultInjector(seed=3, task_failure_rate=0.2)
        doomed = [
            (t, a)
            for t in range(50)
            for a in (1, 2)
            if injector.should_fail_task("q", 0, t, a)
        ]
        failed_both = {t for t, a in doomed if a == 1} & {t for t, a in doomed if a == 2}
        assert doomed and len(failed_both) < len(doomed)

    def test_storage_injector_plugs_into_s3(self):
        from repro.storage.s3 import S3Client, S3ServerError

        injector = FaultInjector(seed=9, storage_failure_rate=1.0)
        client = S3Client(failure_injector=injector.storage_failure_injector())
        with pytest.raises(S3ServerError):
            client.put_object("b", "k", b"data")
        assert injector.storage_requests_failed == 1
        assert client.stats.failed_requests == 1


class TestTaskRetries:
    def test_results_identical_to_zero_fault_run(self):
        # Differential: 10% injected task failures with retries on must
        # not change a single row vs the direct oracle.
        faulty = make_engine(
            fault_injector=FaultInjector(seed=7, task_failure_rate=0.1)
        )
        clean = make_engine()
        result = faulty.execute(TPCH_SQL)
        oracle = execute_direct(clean, TPCH_SQL)
        assert normalize(result.rows) == normalize(oracle.rows)
        assert result.stats.tasks_retried > 0
        assert result.stats.tasks_failed == 0
        # The retried run's span tree still reconciles with its stats.
        assert_query_observable(result, faulty.metrics)

    def test_same_seed_produces_identical_task_records(self):
        first = make_engine(
            fault_injector=FaultInjector(seed=7, task_failure_rate=0.1)
        ).execute(TPCH_SQL)
        second = make_engine(
            fault_injector=FaultInjector(seed=7, task_failure_rate=0.1)
        ).execute(TPCH_SQL)
        assert first.stats.task_records == second.stats.task_records
        assert first.stats.simulated_ms == second.stats.simulated_ms

    def test_different_seed_changes_retry_pattern(self):
        runs = [
            make_engine(
                fault_injector=FaultInjector(seed=seed, task_failure_rate=0.25)
            )
            .execute(TPCH_SQL)
            .stats.tasks_retried
            for seed in range(4)
        ]
        assert len(set(runs)) > 1

    def test_retried_tasks_record_attempts_and_backoff(self):
        engine = make_engine(
            fault_injector=FaultInjector(seed=7, task_failure_rate=0.1),
        )
        result = engine.execute(TPCH_SQL)
        retried = [r for r in result.stats.task_records if r["attempts"] > 1]
        assert retried
        clean = make_engine().execute(TPCH_SQL)
        # Each retry charges its exponential backoff to simulated time.
        assert result.stats.simulated_ms > clean.stats.simulated_ms
        for record in retried:
            assert record["failed"] is False
            assert record["sim_ms"] >= RETRY_BACKOFF_MS

    def test_internal_error_retried_to_bound_then_surfaces(self):
        injector = FaultInjector(seed=1, task_failure_rate=1.0)
        engine = make_engine(fault_injector=injector, max_task_retries=3)
        with pytest.raises(InjectedFaultError) as excinfo:
            engine.execute(TPCH_SQL)
        # Surfaces with its category after 1 original + 3 retried attempts.
        assert excinfo.value.category is ErrorCategory.INTERNAL_ERROR
        assert injector.tasks_failed == 4

    def test_user_error_never_retried(self):
        engine = make_engine(
            fault_injector=FaultInjector(
                seed=1,
                task_failure_rate=1.0,
                task_error_category=ErrorCategory.USER_ERROR,
            )
        )
        injector = engine.fault_injector
        with pytest.raises(InjectedFaultError) as excinfo:
            engine.execute(TPCH_SQL)
        assert excinfo.value.category is ErrorCategory.USER_ERROR
        # Exactly one doomed attempt: fail fast, no retries.
        assert injector.tasks_failed == 1

    def test_split_faults_are_retryable_external(self):
        # One source task reads all nine splits; a split rate of
        # 1 - 0.9 ** (1 / 9) fails 10 % of its attempts.
        engine = make_engine(
            fault_injector=FaultInjector(seed=3, split_failure_rate=1 - 0.9 ** (1 / 9))
        )
        result = engine.execute(TPCH_SQL)
        oracle = execute_direct(make_engine(), TPCH_SQL)
        assert normalize(result.rows) == normalize(oracle.rows)
        assert engine.fault_injector.splits_failed > 0
        assert result.stats.tasks_retried > 0
        assert_query_observable(result, engine.metrics)

    def test_split_faults_compound_over_a_tasks_splits(self):
        # A task holding k splits at split rate r fails an attempt with
        # probability 1 - (1 - r) ** k: an attempt fails exactly when the
        # coin of at least one of its splits says so.
        injector = FaultInjector(seed=3, split_failure_rate=0.1)
        engine = make_engine(fault_injector=injector, max_task_retries=10)
        result = engine.execute(TPCH_SQL)
        (source,) = [r for r in result.stats.task_records if r["splits"]]
        splits = (
            engine.catalog.connector("memory")
            .split_manager()
            .get_splits(ConnectorTableHandle("db", "lineitem"))
        )
        assert source["splits"] == len(splits) == 9
        doomed = [
            any(
                injector.should_fail_split(
                    result.stats.query_id, source["stage"], source["task"],
                    split.split_id, attempt,
                )
                for split in splits
            )
            for attempt in range(1, source["attempts"] + 1)
        ]
        assert source["attempts"] > 1
        assert doomed == [True] * (source["attempts"] - 1) + [False]
        outcomes = [
            span.attributes["outcome"]
            for span in result.trace.find("attempt")
            if span.attributes["stage"] == source["stage"]
        ]
        assert outcomes == ["failed"] * (source["attempts"] - 1) + ["ok"]
        # The first doomed split ends its attempt: one failure counted each.
        assert injector.splits_failed == source["attempts"] - 1

    def test_task_timeout_is_bounded_and_surfaces(self):
        # A 0.5ms budget is below the 1ms per-task overhead, so every
        # attempt deterministically times out; the retry bound stops the
        # loop instead of spinning forever.
        engine = make_engine(task_timeout_ms=0.5, max_task_retries=2)
        with pytest.raises(TaskTimeoutError):
            engine.execute(TPCH_SQL)

    def test_generous_timeout_is_harmless(self):
        engine = make_engine(task_timeout_ms=10_000.0)
        result = engine.execute(TPCH_SQL)
        assert result.stats.tasks_failed == 0
        assert result.stats.tasks_retried == 0


class TestFailureAccounting:
    def test_exhausted_retries_counted_as_failed(self):
        from repro.execution.context import ExecutionContext, QueryStats
        from repro.execution.scheduler import QueryScheduler
        from repro.execution.stage import stage_templates
        from repro.planner.fragmenter import Fragmenter

        engine = make_engine()
        plan = engine.plan(TPCH_SQL)
        ctx = ExecutionContext(
            catalog=engine.catalog,
            session=engine.session,
            registry=engine.registry,
            stats=QueryStats(query_id="query-x"),
        )
        query = QueryScheduler(
            ctx,
            stage_templates(Fragmenter().fragment(plan), engine.registry),
            fault_injector=FaultInjector(seed=1, task_failure_rate=1.0),
            max_task_retries=2,
        )
        with pytest.raises(InjectedFaultError):
            while not query.done:
                query.step()
        assert query.done
        assert ctx.stats.tasks_failed == 1
        assert ctx.stats.tasks_retried == 2
        failed = [r for r in ctx.stats.task_records if r["failed"]]
        assert len(failed) == 1
        assert failed[0]["attempts"] == 3  # 1 original + 2 retries
        assert failed[0]["rows_out"] == 0

    def test_explain_analyze_renders_retries(self):
        engine = make_engine(
            fault_injector=FaultInjector(seed=7, task_failure_rate=0.1)
        )
        result = engine.execute(f"EXPLAIN ANALYZE {TPCH_SQL}")
        text = "\n".join(row[0] for row in result.rows)
        assert "retried" in text and "failed" in text

    def test_stats_as_dict_includes_fault_counters(self):
        engine = make_engine()
        stats = engine.execute(TPCH_SQL).stats.as_dict()
        assert stats["tasks_failed"] == 0
        assert stats["tasks_retried"] == 0
        assert stats["query_id"].startswith("query-")

    def test_query_ids_increment_per_query(self):
        engine = make_engine()
        first = engine.execute(TPCH_SQL).stats.query_id
        second = engine.execute(TPCH_SQL).stats.query_id
        assert first != second
