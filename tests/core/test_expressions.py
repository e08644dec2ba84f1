"""Tests for the RowExpression representation of Table I.

Table I lists five self-contained subtypes; these tests verify each one
round-trips through serialization (the property that makes pushdown to
connectors possible) and that function handles resolve consistently.
"""

import pytest

from repro.core.expressions import (
    CallExpression,
    ConstantExpression,
    LambdaDefinitionExpression,
    RowExpression,
    SpecialForm,
    SpecialFormExpression,
    VariableReferenceExpression,
    and_,
    combine_conjuncts,
    conjuncts,
    constant,
    dereference,
    expression_from_dict,
    not_,
    or_,
    variable,
)
from repro.core.functions import FunctionHandle, default_registry
from repro.core.types import BIGINT, BOOLEAN, DOUBLE, RowType, VARCHAR


def _call(name, args, arg_types):
    handle, _ = default_registry().resolve_scalar(name, arg_types)
    return CallExpression(name, handle, handle.resolved_return_type(), tuple(args))


class TestConstantExpression:
    def test_round_trip(self):
        expr = ConstantExpression(1, BIGINT)
        assert expression_from_dict(expr.to_dict()) == expr

    def test_varchar_round_trip(self):
        expr = ConstantExpression("string", VARCHAR)
        restored = expression_from_dict(expr.to_dict())
        assert restored.value == "string"
        assert restored.type is VARCHAR

    def test_display(self):
        assert ConstantExpression(1, BIGINT).display() == "1"
        assert ConstantExpression("x", VARCHAR).display() == "'x'"


class TestVariableReferenceExpression:
    def test_round_trip(self):
        expr = VariableReferenceExpression("city_id", BIGINT)
        assert expression_from_dict(expr.to_dict()) == expr

    def test_nested_type_round_trip(self):
        row = RowType.of(("city_id", BIGINT))
        expr = VariableReferenceExpression("base", row)
        restored = expression_from_dict(expr.to_dict())
        assert restored.type == row


class TestCallExpression:
    def test_round_trip_with_function_handle(self):
        expr = _call("add", [variable("a", BIGINT), constant(1, BIGINT)], [BIGINT, BIGINT])
        restored = expression_from_dict(expr.to_dict())
        assert restored == expr
        assert restored.function_handle.name == "add"
        assert restored.function_handle.return_type == "bigint"

    def test_handle_is_self_contained(self):
        # A connector can re-resolve the implementation from the handle alone.
        expr = _call("equal", [variable("x", BIGINT), constant(12, BIGINT)], [BIGINT, BIGINT])
        data = expr.to_dict()
        handle = FunctionHandle.from_dict(data["functionHandle"])
        implementation = default_registry().implementation_for(handle)
        assert implementation.row_fn(12, 12) is True

    def test_infix_display(self):
        expr = _call("equal", [variable("x", BIGINT), constant(12, BIGINT)], [BIGINT, BIGINT])
        assert expr.display() == "(x = 12)"


class TestSpecialFormExpression:
    def test_all_forms_round_trip(self):
        x = variable("x", BOOLEAN)
        for expr in [
            and_(x, x),
            or_(x, x),
            not_(x),
            SpecialFormExpression(SpecialForm.IS_NULL, BOOLEAN, (x,)),
            SpecialFormExpression(
                SpecialForm.IN, BOOLEAN, (variable("v", BIGINT), constant(1, BIGINT))
            ),
            SpecialFormExpression(
                SpecialForm.IF, BIGINT, (x, constant(1, BIGINT), constant(2, BIGINT))
            ),
        ]:
            assert expression_from_dict(expr.to_dict()) == expr

    def test_dereference(self):
        row = RowType.of(("city_id", BIGINT))
        expr = dereference(variable("base", row), "city_id", BIGINT)
        assert expr.display() == "base.city_id"
        restored = expression_from_dict(expr.to_dict())
        assert restored == expr


class TestLambdaDefinitionExpression:
    def test_round_trip(self):
        # (x:BIGINT, y:BIGINT):BIGINT -> x + y, straight from Table I.
        body = _call(
            "add", [variable("x", BIGINT), variable("y", BIGINT)], [BIGINT, BIGINT]
        )
        expr = LambdaDefinitionExpression(("x", "y"), (BIGINT, BIGINT), body, BIGINT)
        restored = expression_from_dict(expr.to_dict())
        assert restored == expr
        assert restored.display() == "(x, y) -> (x + y)"


class TestConjunctHelpers:
    def test_and_flattens(self):
        a, b, c = (variable(n, BOOLEAN) for n in "abc")
        expr = and_(and_(a, b), c)
        assert conjuncts(expr) == [a, b, c]

    def test_combine_round_trip(self):
        a, b = variable("a", BOOLEAN), variable("b", BOOLEAN)
        combined = combine_conjuncts([a, b])
        assert conjuncts(combined) == [a, b]
        assert combine_conjuncts([]) is None
        assert combine_conjuncts([a]) == a

    def test_variables_collects_unique_references(self):
        a = variable("a", BIGINT)
        expr = _call("add", [a, _call("add", [a, variable("b", BIGINT)], [BIGINT, BIGINT])], [BIGINT, BIGINT])
        names = [v.name for v in expr.variables()]
        assert names == ["a", "b"]


class TestFunctionRegistry:
    def test_unknown_function_rejected(self):
        from repro.common.errors import SemanticError

        with pytest.raises(SemanticError):
            default_registry().resolve_scalar("no_such_fn", [BIGINT])

    def test_no_overload_rejected(self):
        from repro.common.errors import SemanticError

        with pytest.raises(SemanticError):
            default_registry().resolve_scalar("add", [VARCHAR, VARCHAR])

    def test_numeric_widening_in_resolution(self):
        handle, _ = default_registry().resolve_scalar("add", [BIGINT, DOUBLE])
        assert handle.return_type == "double"

    def test_aggregate_resolution(self):
        handle, fn = default_registry().resolve_aggregate("count", [])
        assert handle.return_type == "bigint"
        state = fn.create_state()
        state = fn.add_input(state, ())
        state = fn.merge(state, 5)
        assert fn.finalize(state) == 6
