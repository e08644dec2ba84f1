"""Engine edge cases: empty inputs, nulls everywhere, odd-but-legal SQL."""

import math
import warnings

import numpy as np
import pytest

from repro.common.errors import (
    ErrorCategory,
    ExecutionError,
    InvalidValueError,
    PrestoError,
    SemanticError,
)
from repro.connectors.memory import MemoryConnector
from repro.core.types import ArrayType, BIGINT, BOOLEAN, DOUBLE, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session


def make_engine(rows, columns=None, split_size=4):
    connector = MemoryConnector(split_size=split_size)
    connector.create_table(
        "db",
        "t",
        columns or [("k", BIGINT), ("v", DOUBLE), ("s", VARCHAR)],
        rows,
    )
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    return engine


class TestEmptyTable:
    def setup_method(self):
        self.engine = make_engine([])

    def test_scan(self):
        assert self.engine.execute("SELECT * FROM t").rows == []

    def test_global_aggregates(self):
        result = self.engine.execute("SELECT count(*), sum(v), min(s) FROM t")
        assert result.rows == [(0, None, None)]

    def test_group_by_empty(self):
        assert self.engine.execute("SELECT k, count(*) FROM t GROUP BY k").rows == []

    def test_join_against_empty(self):
        assert (
            self.engine.execute(
                "SELECT count(*) FROM t a JOIN t b ON a.k = b.k"
            ).rows
            == [(0,)]
        )

    def test_order_limit_empty(self):
        assert self.engine.execute("SELECT v FROM t ORDER BY v LIMIT 5").rows == []


class TestNullHeavyData:
    def setup_method(self):
        self.engine = make_engine(
            [
                (None, None, None),
                (1, None, "a"),
                (None, 2.0, None),
                (1, 3.0, "a"),
            ]
        )

    def test_group_by_null_key_forms_a_group(self):
        result = self.engine.execute(
            "SELECT k, count(*) FROM t GROUP BY k ORDER BY 2 DESC"
        )
        assert sorted(result.rows, key=repr) == sorted([(1, 2), (None, 2)], key=repr)

    def test_null_join_keys_never_match(self):
        result = self.engine.execute(
            "SELECT count(*) FROM t a JOIN t b ON a.k = b.k"
        )
        assert result.rows == [(4,)]  # only the two k=1 rows join (2x2)

    def test_aggregates_skip_nulls(self):
        result = self.engine.execute("SELECT count(v), sum(v), avg(v) FROM t")
        assert result.rows == [(2, 5.0, 2.5)]

    def test_where_null_comparison_filters_out(self):
        assert self.engine.execute("SELECT count(*) FROM t WHERE v > 0").rows == [(2,)]

    def test_is_null_predicates(self):
        assert self.engine.execute("SELECT count(*) FROM t WHERE k IS NULL").rows == [(2,)]
        assert self.engine.execute("SELECT count(*) FROM t WHERE k IS NOT NULL").rows == [(2,)]

    def test_order_by_places_nulls_last_ascending(self):
        result = self.engine.execute("SELECT v FROM t ORDER BY v")
        assert result.rows == [(2.0,), (3.0,), (None,), (None,)]

    def test_distinct_includes_null(self):
        result = self.engine.execute("SELECT DISTINCT k FROM t")
        assert sorted(map(repr, result.rows)) == sorted(map(repr, [(1,), (None,)]))


class TestOddButLegal:
    def setup_method(self):
        self.engine = make_engine([(i, float(i), str(i)) for i in range(10)])

    def test_limit_zero(self):
        assert self.engine.execute("SELECT k FROM t LIMIT 0").rows == []

    def test_limit_larger_than_table(self):
        assert len(self.engine.execute("SELECT k FROM t LIMIT 1000").rows) == 10

    def test_constant_only_group(self):
        result = self.engine.execute("SELECT count(*) FROM t GROUP BY k > 100")
        assert result.rows == [(10,)]

    def test_select_same_column_twice(self):
        result = self.engine.execute("SELECT k, k FROM t WHERE k = 3")
        assert result.rows == [(3, 3)]
        assert result.column_names == ["k", "k"]

    def test_expression_only_select(self):
        assert self.engine.execute("SELECT 2 + 2").rows == [(4,)]

    def test_where_false_literal(self):
        assert self.engine.execute("SELECT k FROM t WHERE false").rows == []

    def test_where_true_literal(self):
        assert len(self.engine.execute("SELECT k FROM t WHERE true").rows) == 10

    def test_nested_subqueries(self):
        result = self.engine.execute(
            "SELECT max(x) FROM (SELECT k AS x FROM (SELECT k FROM t WHERE k < 8) inner_q) outer_q"
        )
        assert result.rows == [(7,)]

    def test_self_join_three_way(self):
        result = self.engine.execute(
            "SELECT count(*) FROM t a JOIN t b ON a.k = b.k JOIN t c ON b.k = c.k"
        )
        assert result.rows == [(10,)]

    def test_having_without_matching_groups(self):
        result = self.engine.execute(
            "SELECT k, count(*) FROM t GROUP BY k HAVING count(*) > 99"
        )
        assert result.rows == []

    def test_order_by_multiple_directions(self):
        engine = make_engine(
            [(1, 2.0, "b"), (1, 1.0, "a"), (2, 9.0, "c")],
        )
        result = engine.execute("SELECT k, v FROM t ORDER BY k DESC, v ASC")
        assert result.rows == [(2, 9.0), (1, 1.0), (1, 2.0)]


class TestRuntimeErrorsAreCategorized:
    """Only ``PrestoError`` leaves a task; raw exceptions become its cause."""

    def setup_method(self):
        self.engine = make_engine([(1, 1.0, "x"), (2, 2.0, "y")])

    @pytest.mark.parametrize(
        "sql, cause",
        [
            ("SELECT k / 0 FROM t", ZeroDivisionError),
            ("SELECT CAST(s AS bigint) FROM t", ValueError),
            ("SELECT -9223372036854775808 - 1 FROM t", OverflowError),
        ],
    )
    def test_value_errors_are_user_errors(self, sql, cause):
        handle = self.engine.submit(sql)
        with pytest.raises(PrestoError) as raised:
            handle.run_to_completion()
        error = raised.value
        assert error.category is ErrorCategory.USER_ERROR and not error.retryable
        assert isinstance(error.__cause__, cause)
        assert handle.state == "failed" and handle.error is error
        # Fail fast: a user error is never retried.
        assert handle.stats.tasks_retried == 0
        assert handle.stats.tasks_failed == 1
        assert all(span.end_ms is not None for span in handle.trace.spans)
        with pytest.raises(PrestoError):
            self.engine.execute(sql)

    def test_any_other_raw_exception_is_a_non_retryable_defect(self, monkeypatch):
        def broken_pipeline(plan, ctx):
            raise KeyError("operator bug")

        monkeypatch.setattr(
            "repro.execution.scheduler.execute_plan", broken_pipeline
        )
        handle = self.engine.submit("SELECT k FROM t")
        with pytest.raises(ExecutionError, match="KeyError") as raised:
            handle.run_to_completion()
        error = raised.value
        assert error.category is ErrorCategory.INTERNAL_ERROR
        assert not error.retryable
        assert isinstance(error.__cause__, KeyError)
        assert handle.state == "failed"
        assert handle.stats.tasks_retried == 0


class TestBigintSumLeavesInt64:
    """``sum(bigint)`` past int64 is NUMERIC_VALUE_OUT_OF_RANGE, never a wrap."""

    COLUMNS = [("k", BIGINT), ("g", BIGINT)]

    @pytest.mark.parametrize("split_size", [4, 1])  # one task; a FINAL merge of three
    @pytest.mark.parametrize(
        "sql", ["SELECT sum(k) FROM t", "SELECT g, sum(k) FROM t GROUP BY g"]
    )
    def test_overflow_raises_on_every_path(self, sql, split_size):
        engine = make_engine([(2**62, 1)] * 3, self.COLUMNS, split_size)
        for run in (engine.execute, engine.execute_direct):
            with pytest.raises(InvalidValueError) as raised:
                run(sql)
            assert raised.value.category is ErrorCategory.USER_ERROR

    @pytest.mark.parametrize("split_size", [4, 1])
    def test_sums_that_fit_are_exact(self, split_size):
        # Each group's running bound passes int64 (so it is added exactly)
        # while the sum itself stays inside, at either end of the range.
        rows = [
            (2**62, 1), (2**62 - 1, 1),
            (-(2**62), 2), (-(2**62), 2),
            (2**62, 3), (-(2**62), 3), (5, 3),
        ]  # fmt: skip
        engine = make_engine(rows, self.COLUMNS, split_size)
        expected = [(1, 2**63 - 1), (2, -(2**63)), (3, 5)]
        for run in (engine.execute, engine.execute_direct):
            assert sorted(run("SELECT g, sum(k) FROM t GROUP BY g").rows) == expected
            assert run("SELECT sum(k) FROM t WHERE g = 3").rows == [(5,)]


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

# operator → (function, [(operands, result or None when it leaves int64)])
ARITHMETIC_EDGES = {
    "+": ("add", [
        ((INT64_MAX - 1, 1), INT64_MAX),
        ((INT64_MAX, 1), None),
        ((INT64_MIN, -1), None),
        ((24, 9223372036854775807), None),
    ]),
    "-": ("subtract", [
        ((INT64_MIN + 1, 1), INT64_MIN),
        ((INT64_MIN, 1), None),
        ((INT64_MAX, -1), None),
    ]),
    "*": ("multiply", [
        ((2**62, -2), INT64_MIN),
        ((2**62, 2), None),
        ((INT64_MIN, -1), None),
        ((24, 4611686018427387904), None),  # wrapped to 0 once
    ]),
    "unary -": ("negate", [
        ((INT64_MAX,), -INT64_MAX),
        ((INT64_MIN,), None),
    ]),
}  # fmt: skip


def _literal(value: int) -> str:
    # 9223372036854775808 is not a bigint literal, so neither is its negation.
    return "(-9223372036854775807 - 1)" if value == INT64_MIN else f"({value})"


class TestBigintArithmeticLeavesInt64:
    """``+``, ``-``, ``*`` and unary ``-`` on bigints raise a categorized
    error exactly when the true result leaves int64, never wrap."""

    @pytest.mark.parametrize("operator", sorted(ARITHMETIC_EDGES))
    @pytest.mark.parametrize("operands_from", ["column", "literal"])
    def test_raises_exactly_when_the_result_leaves_int64(self, operands_from, operator):
        function, cases = ARITHMETIC_EDGES[operator]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for operands, expected in cases:
                if operands_from == "column":
                    names = ["a", "b"][: len(operands)]
                    engine = make_engine([operands], [(n, BIGINT) for n in names])
                    source = " FROM t"
                else:
                    names = [_literal(value) for value in operands]
                    engine = make_engine([])
                    source = ""
                expression = (
                    f"-{names[0]}" if operator == "unary -" else f" {operator} ".join(names)
                )
                sql = f"SELECT {expression}{source}"
                for run in (engine.execute, engine.execute_direct):
                    if expected is not None:
                        assert run(sql).rows == [(expected,)], sql
                        continue
                    with pytest.raises(InvalidValueError, match="bigint .* overflow") as raised:
                        run(sql)
                    assert raised.value.category is ErrorCategory.USER_ERROR

    @pytest.mark.parametrize("operator", sorted(ARITHMETIC_EDGES))
    def test_row_and_vector_lanes_agree(self, operator):
        function, cases = ARITHMETIC_EDGES[operator]
        _, implementation = make_engine([]).registry.resolve_scalar(
            function, [BIGINT] * len(cases[0][0])
        )
        for operands, expected in cases:
            arrays = [np.array([value], dtype=np.int64) for value in operands]
            if expected is None:
                for call, arguments in (
                    (implementation.row_fn, operands),
                    (implementation.vectorized, arrays),
                ):
                    with pytest.raises(InvalidValueError):
                        call(*arguments)
            else:
                assert implementation.row_fn(*operands) == expected
                assert implementation.vectorized(*arrays).tolist() == [expected]

    def test_double_modulus_is_nan_without_a_warning(self):
        inf = float("inf")
        engine = make_engine([(1, inf, "a"), (0, 2.5, "b")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (engine.execute, engine.execute_direct):
                rows = run("SELECT v % v, v % 0.0, 1e999 % 1e999 FROM t ORDER BY k").rows
                assert [[math.isnan(x) for x in row] for row in rows] == [
                    [False, True, True],
                    [True, True, True],
                ]
            # A bigint has no NaN: its modulus by zero is an error, not 0.
            with pytest.raises(InvalidValueError, match="modulo by zero"):
                engine.execute("SELECT k % 0 FROM t")


class TestMinMaxOverNaN:
    def test_no_warning_and_nan_propagates(self):
        nan = float("nan")
        rows = [
            (1, nan, "a"), (1, 1.0, "a"), (1, 3.0, "a"),
            (2, 2.0, "b"), (2, nan, "b"),
            (3, None, "c"),
        ]  # fmt: skip
        engine = make_engine(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (engine.execute, engine.execute_direct):
                result = run("SELECT k, max(v), min(v) FROM t GROUP BY k")
                by_key = {k: (hi, lo) for k, hi, lo in result.rows}
                # np.maximum / np.minimum propagate NaN wherever it arrives.
                assert all(math.isnan(x) for k in (1, 2) for x in by_key[k])
                assert by_key[3] == (None, None)
                assert result.stats.rows_processed_fallback == 0


class TestSessionProperties:
    def test_broadcast_join_property_reaches_plan(self):
        engine = make_engine([(1, 1.0, "a")])
        engine.session.properties["join_distribution_type"] = "broadcast"
        plan = engine.plan("SELECT count(*) FROM t a JOIN t b ON a.k = b.k")
        from repro.planner.plan import JoinNode

        joins = [n for n in plan.walk() if isinstance(n, JoinNode)]
        assert joins[0].distribution == "broadcast"

    def test_default_is_partitioned(self):
        # Section XII.A: "we configure distributed hash join as default to
        # support larger joins."
        engine = make_engine([(1, 1.0, "a")])
        plan = engine.plan("SELECT count(*) FROM t a JOIN t b ON a.k = b.k")
        from repro.planner.plan import JoinNode

        joins = [n for n in plan.walk() if isinstance(n, JoinNode)]
        assert joins[0].distribution == "partitioned"
