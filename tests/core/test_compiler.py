"""Tests for the expression compiler (core/compiler.py).

Covers the tentpole behaviours: null-aware vectorized apply (no Python
loop on null-bearing pages), string/object kernels, dictionary-aware
evaluation, constant folding, the compile cache, and the QueryStats lane
counters the EXPLAIN ANALYZE output reports.
"""

from functools import partial

import numpy as np
import pytest

from repro.core.blocks import ArrayBlock, DictionaryBlock, PrimitiveBlock
from repro.common.errors import ExecutionError, InvalidValueError, SemanticError
from repro.core import compiler
from repro.core.compiler import (
    CallKernel,
    ConstantKernel,
    ExpressionCompiler,
    canonical_form,
    compile_cached,
)
from repro.core.evaluator import Evaluator
from repro.core.expressions import (
    CallExpression,
    ConstantExpression,
    LambdaDefinitionExpression,
    SpecialForm,
    SpecialFormExpression,
    and_,
    constant,
    not_,
    or_,
    variable,
)
from repro.core.functions import FunctionHandle, default_registry
from repro.core.types import BIGINT, BOOLEAN, DOUBLE, VARCHAR, ArrayType, RowType
from repro.execution.context import QueryStats
from tests.reference.interpreter import evaluate_interpreted


def call(name, args, arg_types):
    handle, _ = default_registry().resolve_scalar(name, arg_types)
    return CallExpression(name, handle, handle.resolved_return_type(), tuple(args))


@pytest.fixture
def stats():
    return QueryStats()


@pytest.fixture
def evaluator(stats):
    return Evaluator(stats=stats)


@pytest.fixture
def oracle():
    return partial(evaluate_interpreted, default_registry())


class TestNullAwareApply:
    def test_null_page_stays_vectorized(self, evaluator, stats):
        x = PrimitiveBlock.from_values(BIGINT, [1, None, 3, None])
        expr = call("add", [variable("x", BIGINT), constant(10, BIGINT)], [BIGINT, BIGINT])
        result = evaluator.evaluate(expr, {"x": x}, 4)
        assert result.to_list() == [11, None, 13, None]
        assert stats.expr_positions_vectorized == 4
        assert stats.expr_positions_fallback == 0

    def test_null_divisor_lane_does_not_raise(self, evaluator):
        # The null lane's divisor is 0 in storage; the sentinel fill must
        # keep the vectorized divide from seeing it.
        x = PrimitiveBlock.from_values(BIGINT, [10, 20, 30])
        y = PrimitiveBlock(
            BIGINT,
            np.array([2, 0, 5], dtype=np.int64),
            np.array([False, True, False]),
        )
        expr = call("divide", [variable("x", BIGINT), variable("y", BIGINT)], [BIGINT, BIGINT])
        assert evaluator.evaluate(expr, {"x": x, "y": y}, 3).to_list() == [5, None, 6]

    def test_real_division_by_zero_still_raises(self, evaluator):
        x = PrimitiveBlock.from_values(BIGINT, [1, None])
        expr = call("divide", [variable("x", BIGINT), constant(0, BIGINT)], [BIGINT, BIGINT])
        with pytest.raises(ZeroDivisionError):
            evaluator.evaluate(expr, {"x": x}, 2)

    def test_all_null_page_short_circuits(self, evaluator, stats):
        x = PrimitiveBlock.from_values(BIGINT, [None, None])
        expr = call("add", [variable("x", BIGINT), constant(1, BIGINT)], [BIGINT, BIGINT])
        assert evaluator.evaluate(expr, {"x": x}, 2).to_list() == [None, None]
        assert stats.expr_positions_fallback == 0

    def test_matches_interpreter_on_nullable_doubles(self, evaluator, oracle):
        x = PrimitiveBlock.from_values(DOUBLE, [1.5, None, -2.25, 4.0])
        expr = call(
            "multiply", [variable("x", DOUBLE), constant(2.0, DOUBLE)], [DOUBLE, DOUBLE]
        )
        compiled = evaluator.evaluate(expr, {"x": x}, 4).to_list()
        interpreted = oracle(expr, {"x": x}, 4).to_list()
        assert compiled == interpreted


class TestStringKernels:
    def test_vectorized_string_functions_with_nulls(self, evaluator, stats):
        s = PrimitiveBlock.from_values(VARCHAR, ["Hello", None, "wOrLd"])
        expr = call("upper", [variable("s", VARCHAR)], [VARCHAR])
        assert evaluator.evaluate(expr, {"s": s}, 3).to_list() == ["HELLO", None, "WORLD"]
        assert stats.expr_positions_fallback == 0
        assert stats.expr_positions_vectorized == 3

    def test_substr_and_concat(self, evaluator, stats):
        s = PrimitiveBlock.from_values(VARCHAR, ["presto", None, "engine"])
        expr = call(
            "concat",
            [
                call(
                    "substr",
                    [variable("s", VARCHAR), constant(1, BIGINT), constant(3, BIGINT)],
                    [VARCHAR, BIGINT, BIGINT],
                ),
                constant("!", VARCHAR),
            ],
            [VARCHAR, VARCHAR],
        )
        assert evaluator.evaluate(expr, {"s": s}, 3).to_list() == ["pre!", None, "eng!"]
        assert stats.expr_positions_fallback == 0

    def test_trim(self, evaluator):
        s = PrimitiveBlock.from_values(VARCHAR, ["  a  ", "b", None])
        expr = call("trim", [variable("s", VARCHAR)], [VARCHAR])
        assert evaluator.evaluate(expr, {"s": s}, 3).to_list() == ["a", "b", None]

    def test_like_constant_pattern_precompiled(self, evaluator, stats):
        s = PrimitiveBlock.from_values(VARCHAR, ["air%plane", "airline", None, "jet"])
        expr = call(
            "like", [variable("s", VARCHAR), constant("air%", VARCHAR)], [VARCHAR, VARCHAR]
        )
        compiled = evaluator.compiled(expr)
        from repro.core.compiler import DictionaryKernel, LikeConstantKernel

        kernel = compiled.kernel
        if isinstance(kernel, DictionaryKernel):
            kernel = kernel.inner
        assert isinstance(kernel, LikeConstantKernel)
        assert evaluator.evaluate(expr, {"s": s}, 4).to_list() == [True, True, None, False]
        assert stats.expr_positions_fallback == 0

    def test_like_underscore_and_regex_metachars(self, evaluator, oracle):
        s = PrimitiveBlock.from_values(VARCHAR, ["a.c", "abc", "a%c", "ac"])
        for pattern in ["a_c", "a.c", "a%", "%c", "a%c"]:
            expr = call(
                "like",
                [variable("s", VARCHAR), constant(pattern, VARCHAR)],
                [VARCHAR, VARCHAR],
            )
            assert (
                evaluator.evaluate(expr, {"s": s}, 4).to_list()
                == oracle(expr, {"s": s}, 4).to_list()
            ), pattern


class TestDictionaryEvaluation:
    def test_compound_expression_runs_on_dictionary(self, evaluator, stats):
        dictionary = PrimitiveBlock.from_values(VARCHAR, ["aa", "bbbb"])
        ids = np.array([0, 1, 0, 0, 1, 0, 1, 0])
        block = DictionaryBlock(dictionary, ids)
        # length(s) > 3 — a multi-node subtree, not just a single call.
        expr = call(
            "greater_than",
            [call("length", [variable("s", VARCHAR)], [VARCHAR]), constant(3, BIGINT)],
            [BIGINT, BIGINT],
        )
        result = evaluator.evaluate(expr, {"s": block}, 8)
        assert isinstance(result, DictionaryBlock)
        assert result.to_list() == [False, True, False, False, True, False, True, False]
        # 8 positions requested, 2 dictionary entries evaluated.
        assert stats.expr_positions_dictionary_saved == 6

    def test_null_ids_stay_null(self, evaluator, oracle):
        dictionary = PrimitiveBlock.from_values(VARCHAR, ["x", "yy"])
        ids = np.array([0, -1, 1, -1])
        block = DictionaryBlock(dictionary, ids)
        expr = call("length", [variable("s", VARCHAR)], [VARCHAR])
        compiled = evaluator.evaluate(expr, {"s": block}, 4).to_list()
        interpreted = oracle(expr, {"s": block}, 4).to_list()
        assert compiled == interpreted == [1, None, 2, None]

    def test_is_null_not_dictionary_evaluated(self, evaluator):
        # IS_NULL maps null→True; wrapping it in the ids would lose that.
        dictionary = PrimitiveBlock.from_values(BIGINT, [1, 2])
        block = DictionaryBlock(dictionary, np.array([0, -1, 1]))
        expr = SpecialFormExpression(SpecialForm.IS_NULL, BOOLEAN, (variable("x", BIGINT),))
        assert evaluator.evaluate(expr, {"x": block}, 3).to_list() == [False, True, False]

    def test_plain_block_unaffected(self, evaluator):
        x = PrimitiveBlock.from_values(BIGINT, [1, 2, 3])
        expr = call("negate", [variable("x", BIGINT)], [BIGINT])
        assert evaluator.evaluate(expr, {"x": x}, 3).to_list() == [-1, -2, -3]


class TestConstantFolding:
    def test_literal_subtree_folds(self, evaluator):
        expr = call("multiply", [constant(6, BIGINT), constant(7, BIGINT)], [BIGINT, BIGINT])
        compiled = evaluator.compiled(expr)
        assert isinstance(compiled.kernel, ConstantKernel)
        assert compiled.kernel.value == 42

    def test_where_one_equals_one_vanishes(self, evaluator):
        x_pred = call(
            "greater_than", [variable("x", BIGINT), constant(0, BIGINT)], [BIGINT, BIGINT]
        )
        one_eq_one = call("equal", [constant(1, BIGINT), constant(1, BIGINT)], [BIGINT, BIGINT])
        folded = evaluator.compiled(and_(x_pred, one_eq_one)).expression
        # The 1=1 conjunct is pruned; only the real predicate remains.
        assert folded == x_pred

    def test_always_true_predicate_detected(self, evaluator):
        one_eq_one = call("equal", [constant(1, BIGINT), constant(1, BIGINT)], [BIGINT, BIGINT])
        assert evaluator.predicate_is_always_true(one_eq_one)
        assert evaluator.predicate_is_always_true(and_(one_eq_one, constant(True, BOOLEAN)))
        real = call("less_than", [variable("x", BIGINT), constant(5, BIGINT)], [BIGINT, BIGINT])
        assert not evaluator.predicate_is_always_true(real)

    def test_false_conjunct_short_circuits(self, evaluator):
        real = call("less_than", [variable("x", BIGINT), constant(5, BIGINT)], [BIGINT, BIGINT])
        folded = evaluator.compiled(and_(real, constant(False, BOOLEAN))).expression
        assert folded == ConstantExpression(False, BOOLEAN)

    def test_null_conjunct_not_pruned(self, evaluator, oracle):
        # AND(x, NULL) is not AND(x): false AND null = false, true AND null = null.
        x = PrimitiveBlock.from_values(BOOLEAN, [True, False, None])
        expr = and_(variable("x", BOOLEAN), constant(None, BOOLEAN))
        compiled = evaluator.evaluate(expr, {"x": x}, 3).to_list()
        interpreted = oracle(expr, {"x": x}, 3).to_list()
        assert compiled == interpreted == [None, False, None]

    def test_folding_never_raises_at_compile_time(self, evaluator):
        # 1/0 must raise when evaluated, not when compiled.
        expr = call("divide", [constant(1, BIGINT), constant(0, BIGINT)], [BIGINT, BIGINT])
        compiled = evaluator.compiled(expr)
        with pytest.raises(ZeroDivisionError):
            compiled.evaluate({}, 1)

    @pytest.mark.parametrize(
        "expr, value, display",
        [
            (call("divide", [constant(7, BIGINT), constant(-2, BIGINT)], [BIGINT, BIGINT]), -3, "-3"),
            (call("sqrt", [constant(2.25, DOUBLE)], [DOUBLE]), 1.5, "1.5"),
            (call("upper", [constant("ab", VARCHAR)], [VARCHAR]), "AB", "'AB'"),
            (call("length", [constant("héllo", VARCHAR)], [VARCHAR]), 5, "5"),
            (call("cast_bigint", [constant("12", VARCHAR)], [VARCHAR]), 12, "12"),
            (call("cast_varchar", [constant(2.0, DOUBLE)], [DOUBLE]), "2.0", "'2.0'"),
            (call("cast_date", [constant("2020-01-02", VARCHAR)], [VARCHAR]), "2020-01-02", "'2020-01-02'"),
            (call("power", [constant(2.0, DOUBLE), constant(3.0, DOUBLE)], [DOUBLE, DOUBLE]), 8.0, "8.0"),
            (call("like", [constant("air", VARCHAR), constant("a%", VARCHAR)], [VARCHAR, VARCHAR]), True, "True"),
            (call("add", [constant(1, BIGINT), constant(None, BIGINT)], [BIGINT, BIGINT]), None, "None"),
            (
                SpecialFormExpression(
                    SpecialForm.IN, BOOLEAN,
                    (constant("b", VARCHAR), constant("a", VARCHAR), constant("b", VARCHAR)),
                ),
                True,
                "True",
            ),
            (
                SpecialFormExpression(
                    SpecialForm.IN, BOOLEAN, (constant(3, BIGINT), constant(1, BIGINT), constant(None, BIGINT))
                ),
                None,
                "None",
            ),
            (not_(call("equal", [constant(1, BIGINT), constant(1.0, DOUBLE)], [BIGINT, DOUBLE])), False, "False"),
        ],
    )
    def test_folded_constants_are_the_references_python_values(self, evaluator, oracle, expr, value, display):
        # Folding runs the kernels; the value, its Python type, EXPLAIN's
        # text and the compile-cache key are what the row reference gives.
        folded = evaluator.compiled(expr).expression
        reference = oracle(expr, {}, 1).get(0)
        assert isinstance(folded, ConstantExpression)
        assert (type(folded.value), folded.value) == (type(reference), reference) == (type(value), value)
        assert folded.display() == display
        assert canonical_form(folded) == canonical_form(ConstantExpression(value, expr.type))


class TestLanes:
    def test_kleene_and_not_in_are_vectorized(self, evaluator, stats):
        a = PrimitiveBlock.from_values(BOOLEAN, [True, None, False])
        x = PrimitiveBlock.from_values(BIGINT, [1, 2, None])
        expr = and_(
            or_(variable("a", BOOLEAN), not_(variable("a", BOOLEAN))),
            SpecialFormExpression(
                SpecialForm.IN,
                BOOLEAN,
                (variable("x", BIGINT), constant(1, BIGINT), constant(2, BIGINT)),
            ),
        )
        result = evaluator.evaluate(expr, {"a": a, "x": x}, 3)
        assert result.to_list() == [True, None, None]
        assert stats.expr_positions_fallback == 0

    def test_lambdas_and_column_in_lists_are_vectorized(self, evaluator, stats, oracle):
        arrays = ArrayType(BIGINT)
        a = ArrayBlock.from_values(arrays, [[1, None, 3], [], None, [4, 5]])
        x = PrimitiveBlock.from_values(BIGINT, [1, 3, 2, 4])
        y = PrimitiveBlock.from_values(BIGINT, [2, None, 5, 4])
        bindings = {"a": a, "x": x, "y": y}
        v = variable("v", BIGINT)

        def higher_order(name, body, return_type):
            handle = FunctionHandle(name, (arrays.display(), "function"), return_type.display())
            lam = LambdaDefinitionExpression(("v",), (BIGINT,), body, body.type)
            return CallExpression(name, handle, return_type, (variable("a", arrays), lam))

        plus_x = call("add", [v, variable("x", BIGINT)], [BIGINT, BIGINT])
        above_y = call("greater_than", [v, variable("y", BIGINT)], [BIGINT, BIGINT])
        cases = {
            higher_order("transform", plus_x, arrays): [[2, None, 4], [], None, [8, 9]],
            higher_order("filter", above_y, arrays): [[3], [], None, [5]],
            higher_order("any_match", above_y, BOOLEAN): [True, False, None, True],
            SpecialFormExpression(
                SpecialForm.IN, BOOLEAN, (variable("x", BIGINT), variable("y", BIGINT), constant(None, BIGINT))
            ): [None, None, None, True],
        }
        for expr, expected in cases.items():
            assert evaluator.evaluate(expr, bindings, 4).to_list() == expected
            assert oracle(expr, bindings, 4).to_list() == expected
        assert stats.expr_positions_fallback == 0


class TestCompileCache:
    def test_shared_across_evaluators(self):
        registry = default_registry()
        a = Evaluator(registry)
        b = Evaluator(registry)
        expr_a = call("add", [variable("x", BIGINT), constant(1, BIGINT)], [BIGINT, BIGINT])
        expr_b = call("add", [variable("x", BIGINT), constant(1, BIGINT)], [BIGINT, BIGINT])
        assert expr_a is not expr_b
        assert a.compiled(expr_a) is b.compiled(expr_b)

    def test_lru_bound(self, monkeypatch):
        monkeypatch.setattr(compiler, "COMPILE_CACHE_SIZE", 2)
        registry = default_registry()
        exprs = [
            call("add", [variable("x", BIGINT), constant(i, BIGINT)], [BIGINT, BIGINT])
            for i in range(4)
        ]
        first = compile_cached(registry, exprs[0])
        for e in exprs[1:]:
            compile_cached(registry, e)
        # exprs[0] was evicted; recompiling yields a fresh object.
        assert compile_cached(registry, exprs[0]) is not first


def unknown_call(argument):
    """A call whose handle names no registered function: the
    ``SemanticError`` that ``implementation_for`` raises."""
    handle = FunctionHandle("no_such_function", ("bigint",), "bigint")
    return CallExpression("no_such_function", handle, BIGINT, (argument,))


class TestFallbackTriggers:
    """Folding catches the errors it names, and only those; what cannot
    compile raises at compile time, never on the first page."""

    @pytest.mark.parametrize(
        "error", [InvalidValueError("bad"), ZeroDivisionError(), OverflowError(),
                  ValueError(), AttributeError(), RuntimeWarning()],
    )
    def test_fold_leaves_a_failing_subtree_unfolded(self, monkeypatch, error):
        def fail(*_):
            raise error

        monkeypatch.setattr(CallKernel, "run", fail)
        expr = call("add", [constant(1, BIGINT), constant(2, BIGINT)], [BIGINT, BIGINT])
        assert ExpressionCompiler(default_registry()).fold(expr) == expr

    def test_fold_lets_an_unnamed_error_through(self, monkeypatch):
        def fail(*_):
            raise KeyError("engine defect")

        monkeypatch.setattr(CallKernel, "run", fail)
        expr = call("add", [constant(1, BIGINT), constant(2, BIGINT)], [BIGINT, BIGINT])
        with pytest.raises(KeyError):
            ExpressionCompiler(default_registry()).fold(expr)

    def test_unresolvable_literal_call_raises_at_compile_time(self, evaluator):
        with pytest.raises(SemanticError, match="no_such_function"):
            evaluator.compiled(unknown_call(constant(1, BIGINT)))

    def test_unresolvable_call_raises_at_compile_time(self, evaluator):
        with pytest.raises(SemanticError, match="no_such_function"):
            evaluator.compiled(unknown_call(variable("x", BIGINT)))

    def test_non_constant_dereference_field_raises_at_compile_time(self, evaluator):
        row = RowType.of(("a", BIGINT))
        expr = SpecialFormExpression(
            SpecialForm.DEREFERENCE, BIGINT, (variable("r", row), variable("f", VARCHAR))
        )
        with pytest.raises(ExecutionError, match="must be constant"):
            evaluator.compiled(expr)
