"""Tests for the vectorized RowExpression evaluator."""

import numpy as np
import pytest

from repro.core.blocks import (
    DictionaryBlock,
    LazyBlock,
    PrimitiveBlock,
    RowBlock,
    constant_block,
)
from repro.core.evaluator import Evaluator
from repro.core.expressions import (
    CallExpression,
    SpecialForm,
    SpecialFormExpression,
    and_,
    constant,
    dereference,
    not_,
    or_,
    variable,
)
from repro.core.functions import default_registry
from repro.core.types import BIGINT, BOOLEAN, DOUBLE, RowType, VARCHAR


def call(name, args, arg_types):
    handle, _ = default_registry().resolve_scalar(name, arg_types)
    return CallExpression(name, handle, handle.resolved_return_type(), tuple(args))


@pytest.fixture
def evaluator():
    return Evaluator()


class TestBasicEvaluation:
    def test_constant(self, evaluator):
        block = evaluator.evaluate(constant(7, BIGINT), {}, 3)
        assert block.to_list() == [7, 7, 7]

    def test_variable(self, evaluator):
        x = PrimitiveBlock.from_values(BIGINT, [1, 2])
        block = evaluator.evaluate(variable("x", BIGINT), {"x": x}, 2)
        assert block is x

    def test_vectorized_arithmetic(self, evaluator):
        x = PrimitiveBlock.from_values(BIGINT, [1, 2, 3])
        expr = call("add", [variable("x", BIGINT), constant(10, BIGINT)], [BIGINT, BIGINT])
        assert evaluator.evaluate(expr, {"x": x}, 3).to_list() == [11, 12, 13]

    def test_null_propagation_through_calls(self, evaluator):
        x = PrimitiveBlock.from_values(BIGINT, [1, None, 3])
        expr = call("add", [variable("x", BIGINT), constant(1, BIGINT)], [BIGINT, BIGINT])
        assert evaluator.evaluate(expr, {"x": x}, 3).to_list() == [2, None, 4]

    def test_integer_division_truncates_toward_zero(self, evaluator):
        x = PrimitiveBlock.from_values(BIGINT, [7, -7])
        expr = call("divide", [variable("x", BIGINT), constant(2, BIGINT)], [BIGINT, BIGINT])
        assert evaluator.evaluate(expr, {"x": x}, 2).to_list() == [3, -3]

    def test_division_by_zero_raises(self, evaluator):
        x = PrimitiveBlock.from_values(BIGINT, [1])
        expr = call("divide", [variable("x", BIGINT), constant(0, BIGINT)], [BIGINT, BIGINT])
        with pytest.raises(ZeroDivisionError):
            evaluator.evaluate(expr, {"x": x}, 1)

    def test_string_functions(self, evaluator):
        s = PrimitiveBlock.from_values(VARCHAR, ["Hello", "WORLD"])
        expr = call("lower", [variable("s", VARCHAR)], [VARCHAR])
        assert evaluator.evaluate(expr, {"s": s}, 2).to_list() == ["hello", "world"]

    def test_evaluate_scalar(self, evaluator):
        expr = call("multiply", [constant(6, BIGINT), constant(7, BIGINT)], [BIGINT, BIGINT])
        assert evaluator.evaluate_scalar(expr) == 42


class TestThreeValuedLogic:
    def test_and_kleene(self, evaluator):
        a = PrimitiveBlock.from_values(BOOLEAN, [True, True, False, None, None])
        b = PrimitiveBlock.from_values(BOOLEAN, [True, None, None, False, None])
        expr = and_(variable("a", BOOLEAN), variable("b", BOOLEAN))
        result = evaluator.evaluate(expr, {"a": a, "b": b}, 5)
        # true&true=true, true&null=null, false&null=false, null&false=false, null&null=null
        assert result.to_list() == [True, None, False, False, None]

    def test_or_kleene(self, evaluator):
        a = PrimitiveBlock.from_values(BOOLEAN, [False, False, True, None, None])
        b = PrimitiveBlock.from_values(BOOLEAN, [False, None, None, True, None])
        expr = or_(variable("a", BOOLEAN), variable("b", BOOLEAN))
        result = evaluator.evaluate(expr, {"a": a, "b": b}, 5)
        assert result.to_list() == [False, None, True, True, None]

    def test_not(self, evaluator):
        a = PrimitiveBlock.from_values(BOOLEAN, [True, False, None])
        result = evaluator.evaluate(not_(variable("a", BOOLEAN)), {"a": a}, 3)
        assert result.to_list() == [False, True, None]

    def test_is_null(self, evaluator):
        a = PrimitiveBlock.from_values(BIGINT, [1, None])
        expr = SpecialFormExpression(SpecialForm.IS_NULL, BOOLEAN, (variable("a", BIGINT),))
        assert evaluator.evaluate(expr, {"a": a}, 2).to_list() == [False, True]


class TestSpecialForms:
    def test_in_with_constants(self, evaluator):
        x = PrimitiveBlock.from_values(BIGINT, [1, 12, 99, None])
        expr = SpecialFormExpression(
            SpecialForm.IN,
            BOOLEAN,
            (variable("x", BIGINT), constant(12, BIGINT), constant(99, BIGINT)),
        )
        result = evaluator.evaluate(expr, {"x": x}, 4)
        assert result.get(0) is False
        assert result.get(1) is True
        assert result.get(2) is True
        assert result.get(3) is None

    def test_in_with_varchar(self, evaluator):
        x = PrimitiveBlock.from_values(VARCHAR, ["sf", "nyc"])
        expr = SpecialFormExpression(
            SpecialForm.IN, BOOLEAN, (variable("x", VARCHAR), constant("sf", VARCHAR))
        )
        assert evaluator.evaluate(expr, {"x": x}, 2).to_list() == [True, False]

    def test_if(self, evaluator):
        cond = PrimitiveBlock.from_values(BOOLEAN, [True, False, None])
        expr = SpecialFormExpression(
            SpecialForm.IF,
            BIGINT,
            (variable("c", BOOLEAN), constant(1, BIGINT), constant(2, BIGINT)),
        )
        assert evaluator.evaluate(expr, {"c": cond}, 3).to_list() == [1, 2, 2]

    def test_dereference_on_row_block(self, evaluator):
        row_type = RowType.of(("city_id", BIGINT))
        base = RowBlock.from_values(row_type, [{"city_id": 12}, None, {"city_id": 7}])
        expr = dereference(variable("base", row_type), "city_id", BIGINT)
        result = evaluator.evaluate(expr, {"base": base}, 3)
        assert result.to_list() == [12, None, 7]

    def test_dereference_missing_field_returns_null(self, evaluator):
        # Schema evolution: a newly added field is absent from old files and
        # the engine returns null (section V.A).
        row_type = RowType.of(("city_id", BIGINT), ("new_field", VARCHAR))
        base = RowBlock(
            row_type, {"city_id": PrimitiveBlock.from_values(BIGINT, [1, 2])}
        )
        expr = dereference(variable("base", row_type), "new_field", VARCHAR)
        result = evaluator.evaluate(expr, {"base": base}, 2)
        assert result.to_list() == [None, None]


class TestFilterMask:
    def test_mask_treats_null_as_false(self, evaluator):
        x = PrimitiveBlock.from_values(BIGINT, [5, None, 20])
        expr = call(
            "greater_than", [variable("x", BIGINT), constant(10, BIGINT)], [BIGINT, BIGINT]
        )
        mask = evaluator.filter_mask(expr, {"x": x}, 3)
        assert list(mask) == [False, False, True]


class TestDictionaryFastPath:
    def test_single_arg_call_evaluates_on_dictionary(self, evaluator):
        dictionary = PrimitiveBlock.from_values(VARCHAR, ["aa", "bbb"])
        ids = np.array([0, 1, 0, 0, 1])
        block = DictionaryBlock(dictionary, ids)
        expr = call("length", [variable("s", VARCHAR)], [VARCHAR])
        result = evaluator.evaluate(expr, {"s": block}, 5)
        assert isinstance(result, DictionaryBlock)
        assert result.to_list() == [2, 3, 2, 2, 3]

    def test_dictionary_decoded_for_multi_arg(self, evaluator):
        dictionary = PrimitiveBlock.from_values(BIGINT, [1, 2])
        block = DictionaryBlock(dictionary, np.array([0, 1]))
        expr = call("add", [variable("x", BIGINT), constant(1, BIGINT)], [BIGINT, BIGINT])
        assert evaluator.evaluate(expr, {"x": block}, 2).to_list() == [2, 3]


class TestLazyInteraction:
    def test_lazy_block_not_loaded_by_unrelated_expression(self, evaluator):
        loads = []

        def loader():
            loads.append(1)
            return PrimitiveBlock.from_values(BIGINT, [1, 2])

        lazy = LazyBlock(BIGINT, 2, loader)
        other = PrimitiveBlock.from_values(BIGINT, [10, 20])
        expr = call("add", [variable("y", BIGINT), constant(1, BIGINT)], [BIGINT, BIGINT])
        evaluator.evaluate(expr, {"x": lazy, "y": other}, 2)
        assert not loads


class TestConstantBlock:
    def test_null_constant(self):
        block = constant_block(None, BIGINT, 2)
        assert block.to_list() == [None, None]

    def test_varchar_constant(self):
        block = constant_block("sf", VARCHAR, 3)
        assert block.to_list() == ["sf", "sf", "sf"]
