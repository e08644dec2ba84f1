"""Expression evaluation: compiled kernel DAGs + row-at-a-time oracle.

Presto generates JVM bytecode (via ASM) for expression evaluation; this
module is the Python equivalent.  The default lane compiles each
:class:`RowExpression` once (per canonical form, cached process-wide in
:mod:`repro.core.compiler`) into a DAG of null-aware, dictionary-aware
array kernels and reuses it for every page.

The original row-at-a-time interpreter is retained in full as the
differential oracle — the same pattern as ``execute_aggregation_rows`` for
the operator kernels — reached by calling
:meth:`Evaluator.evaluate_interpreted`; no production path calls it.  Null
semantics follow SQL three-valued logic in both lanes: function calls
propagate null when any argument is null; AND/OR, IN and ``any_match`` use
Kleene logic; ``IS_NULL`` observes nulls without propagating them.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.common.errors import ExecutionError
from repro.core.blocks import (
    Block,
    DictionaryBlock,
    PrimitiveBlock,
    RowBlock,
    VarcharBlock,
    _numpy_dtype_for,
    block_from_values,
    constant_block,
    with_extra_nulls,
)
from repro.core.compiler import CompiledExpression, bool_arrays, compile_cached
from repro.core.expressions import (
    CallExpression,
    ConstantExpression,
    LambdaDefinitionExpression,
    RowExpression,
    SpecialForm,
    SpecialFormExpression,
    VariableReferenceExpression,
)
from repro.core.functions import FunctionRegistry, default_registry
from repro.core.types import BOOLEAN, PrestoType


class Evaluator:
    """Evaluates RowExpressions over column bindings.

    :meth:`evaluate` runs the kernel DAGs from :mod:`repro.core.compiler`;
    :meth:`evaluate_interpreted` is the row-at-a-time reference.  ``stats``
    (a :class:`repro.execution.context.QueryStats`, optional) receives the
    ``expr_positions_*`` counters surfaced by EXPLAIN ANALYZE.
    """

    def __init__(
        self,
        registry: Optional[FunctionRegistry] = None,
        stats=None,
    ) -> None:
        self._registry = registry or default_registry()
        self._stats = stats
        # Per-evaluator memo keyed on expression identity; holds a strong
        # reference to the expression so the id stays valid.
        self._compiled_memo: dict[int, tuple[RowExpression, CompiledExpression]] = {}

    # -- public API ---------------------------------------------------------

    def compiled(self, expression: RowExpression) -> CompiledExpression:
        """The compiled form of ``expression`` (memoized, shared cache)."""
        memo = self._compiled_memo.get(id(expression))
        if memo is not None and memo[0] is expression:
            return memo[1]
        compiled = compile_cached(self._registry, expression)
        self._compiled_memo[id(expression)] = (expression, compiled)
        return compiled

    def evaluate(
        self,
        expression: RowExpression,
        bindings: dict[str, Block],
        position_count: int,
    ) -> Block:
        """Evaluate ``expression`` for every position, returning a block."""
        if isinstance(expression, VariableReferenceExpression):
            if expression.name not in bindings:
                raise ExecutionError(f"unbound variable {expression.name}")
            return bindings[expression.name]
        if isinstance(expression, ConstantExpression):
            return constant_block(expression.value, expression.type, position_count)
        return self.compiled(expression).evaluate(bindings, position_count, self._stats)

    def evaluate_scalar(self, expression: RowExpression) -> Any:
        """Evaluate a variable-free expression to a single Python value."""
        return self.evaluate(expression, {}, 1).get(0)

    def predicate_is_always_true(self, predicate: RowExpression) -> bool:
        """True when ``predicate`` constant-folds to TRUE (safe to skip)."""
        return self.compiled(predicate).is_always_true()

    def filter_mask(
        self,
        predicate: RowExpression,
        bindings: dict[str, Block],
        position_count: int,
    ) -> np.ndarray:
        """Boolean selection mask: True where the predicate is true (not null)."""
        if self.compiled(predicate).is_always_true():
            return np.ones(position_count, dtype=bool)
        block = self.evaluate(predicate, bindings, position_count)
        values, nulls = bool_arrays(block)
        return values & ~nulls

    def row_mask(
        self,
        predicate: RowExpression,
        columns: Sequence[tuple[str, PrestoType]],
        rows: Sequence[Sequence[Any]],
    ) -> np.ndarray:
        """:meth:`filter_mask` over row tuples laid out as ``columns``
        (``(name, type)`` pairs); only the columns the predicate names
        are shredded into blocks."""
        names = [n for n, _ in columns]
        bindings: dict[str, Block] = {}
        for name in {v.name for v in predicate.variables()}:
            index = names.index(name)
            bindings[name] = block_from_values(
                columns[index][1], [row[index] for row in rows]
            )
        return self.filter_mask(predicate, bindings, len(rows))

    def filter_rows(
        self,
        predicate: Optional[RowExpression],
        columns: Sequence[tuple[str, PrestoType]],
        rows: list[tuple],
    ) -> list[tuple]:
        """The rows :meth:`row_mask` selects, in order; all of them when
        ``predicate`` is ``None``."""
        if predicate is None:
            return rows
        mask = self.row_mask(predicate, columns, rows)
        return [row for row, keep in zip(rows, mask) if keep]

    # -- interpreter lane (differential oracle) ------------------------------

    def evaluate_interpreted(
        self,
        expression: RowExpression,
        bindings: dict[str, Block],
        position_count: int,
    ) -> Block:
        """Row-at-a-time reference evaluation (the pre-compiler semantics)."""
        if isinstance(expression, ConstantExpression):
            return constant_block(expression.value, expression.type, position_count)
        if isinstance(expression, VariableReferenceExpression):
            if expression.name not in bindings:
                raise ExecutionError(f"unbound variable {expression.name}")
            return bindings[expression.name]
        if isinstance(expression, CallExpression):
            return self._evaluate_call(expression, bindings, position_count)
        if isinstance(expression, SpecialFormExpression):
            return self._evaluate_special(expression, bindings, position_count)
        if isinstance(expression, LambdaDefinitionExpression):
            raise ExecutionError("lambda must appear as a function argument")
        raise ExecutionError(f"cannot evaluate {type(expression).__name__}")

    # -- calls ---------------------------------------------------------------

    def _evaluate_call(
        self,
        call: CallExpression,
        bindings: dict[str, Block],
        position_count: int,
    ) -> Block:
        if call.function_handle.name in ("transform", "filter", "any_match") and any(
            isinstance(a, LambdaDefinitionExpression) for a in call.arguments
        ):
            return self._evaluate_higher_order(call, bindings, position_count)
        implementation = self._registry.implementation_for(call.function_handle)

        # Dictionary fast path: evaluate on the dictionary, keep the ids.
        if (
            implementation.deterministic
            and len(call.arguments) == 1
            and isinstance(call.arguments[0], VariableReferenceExpression)
        ):
            arg_block = bindings.get(call.arguments[0].name)
            if isinstance(arg_block, DictionaryBlock):
                inner = self._apply(
                    implementation,
                    call.type,
                    [arg_block.dictionary],
                    arg_block.dictionary.position_count,
                )
                if isinstance(inner, (PrimitiveBlock, VarcharBlock)):
                    return DictionaryBlock(inner, arg_block.ids)

        arg_blocks = [
            self.evaluate_interpreted(arg, bindings, position_count).loaded()
            for arg in call.arguments
        ]
        arg_blocks = [
            b.decode() if isinstance(b, DictionaryBlock) else b for b in arg_blocks
        ]
        return self._apply(implementation, call.type, arg_blocks, position_count)

    def _apply(
        self,
        implementation,
        return_type: PrestoType,
        arg_blocks: list[Block],
        position_count: int,
    ) -> Block:
        null_mask = np.zeros(position_count, dtype=bool)
        for block in arg_blocks:
            null_mask |= block.null_mask()

        all_primitive = all(isinstance(b, PrimitiveBlock) for b in arg_blocks)
        vectorizable = (
            implementation.vectorized is not None
            and all_primitive
            and not null_mask.any()
            and all(b.values.dtype != object for b in arg_blocks)  # type: ignore[union-attr]
        )
        if vectorizable:
            arrays = [b.values for b in arg_blocks]  # type: ignore[union-attr]
            result = implementation.vectorized(*arrays)
            result = np.asarray(result)
            target_dtype = _numpy_dtype_for(return_type)
            if target_dtype is not object and result.dtype != target_dtype:
                result = result.astype(target_dtype)
            return PrimitiveBlock(return_type, result)

        values: list[Any] = []
        for i in range(position_count):
            if null_mask[i]:
                values.append(None)
                continue
            args = [b.get(i) for b in arg_blocks]
            values.append(implementation.row_fn(*args))
        return block_from_values(return_type, values)

    def _evaluate_higher_order(
        self,
        call: CallExpression,
        bindings: dict[str, Block],
        position_count: int,
    ) -> Block:
        """transform/filter/any_match: apply a lambda per array element.

        The lambda body runs *vectorized over each row's elements*; outer
        columns captured by the body are bound as per-row constants.
        """
        name = call.function_handle.name
        array_block = self.evaluate_interpreted(
            call.arguments[0], bindings, position_count
        ).loaded()
        lam = call.arguments[1]
        if not isinstance(lam, LambdaDefinitionExpression):
            raise ExecutionError(f"{name}() requires a lambda argument")
        parameter = lam.argument_names[0]
        element_type = lam.argument_types[0]
        captured = [
            v for v in lam.body.variables() if v.name != parameter
        ]

        results: list[Any] = []
        for position in range(position_count):
            elements = array_block.get(position)
            if elements is None:
                results.append(None)
                continue
            if not elements:
                results.append(False if name == "any_match" else [])
                continue
            lambda_bindings: dict[str, Block] = {
                parameter: block_from_values(element_type, elements)
            }
            for variable in captured:
                outer = bindings.get(variable.name)
                if outer is None:
                    raise ExecutionError(f"unbound variable {variable.name}")
                lambda_bindings[variable.name] = constant_block(
                    outer.get(position), variable.type, len(elements)
                )
            body_block = self.evaluate_interpreted(
                lam.body, lambda_bindings, len(elements)
            ).loaded()
            if name == "transform":
                results.append(body_block.to_list())
            elif name == "filter":
                kept = [
                    element
                    for element, keep in zip(elements, body_block.to_list())
                    if keep
                ]
                results.append(kept)
            else:  # any_match: TRUE, else NULL if some element is NULL
                matches = body_block.to_list()
                results.append(True if True in matches else None if None in matches else False)
        return block_from_values(call.type, results)

    # -- special forms ---------------------------------------------------------

    def _evaluate_special(
        self,
        expression: SpecialFormExpression,
        bindings: dict[str, Block],
        position_count: int,
    ) -> Block:
        form = expression.form
        if form is SpecialForm.AND:
            return self._kleene(expression.arguments, bindings, position_count, is_and=True)
        if form is SpecialForm.OR:
            return self._kleene(expression.arguments, bindings, position_count, is_and=False)
        if form is SpecialForm.NOT:
            block = self.evaluate_interpreted(
                expression.arguments[0], bindings, position_count
            ).loaded()
            values, nulls = bool_arrays(block)
            return PrimitiveBlock(BOOLEAN, ~values, nulls if nulls.any() else None)
        if form is SpecialForm.IS_NULL:
            block = self.evaluate_interpreted(
                expression.arguments[0], bindings, position_count
            ).loaded()
            return PrimitiveBlock(BOOLEAN, block.null_mask().copy())
        if form is SpecialForm.IN:
            return self._evaluate_in(expression, bindings, position_count)
        if form is SpecialForm.IF:
            return self._evaluate_if(expression, bindings, position_count)
        if form is SpecialForm.DEREFERENCE:
            return self._evaluate_dereference(expression, bindings, position_count)
        raise ExecutionError(f"unsupported special form {form}")

    def _kleene(
        self,
        arguments: tuple[RowExpression, ...],
        bindings: dict[str, Block],
        position_count: int,
        is_and: bool,
    ) -> Block:
        result = np.full(position_count, is_and, dtype=bool)
        result_nulls = np.zeros(position_count, dtype=bool)
        for argument in arguments:
            block = self.evaluate_interpreted(argument, bindings, position_count).loaded()
            values, nulls = bool_arrays(block)
            if is_and:
                # false wins over null; null wins over true
                result_nulls = (result_nulls & (values | nulls)) | (nulls & result)
                result = result & (values | nulls)
            else:
                result_nulls = (result_nulls & ~(values & ~nulls)) | (nulls & ~result)
                result = result | (values & ~nulls)
        result = result & ~result_nulls
        return PrimitiveBlock(BOOLEAN, result, result_nulls if result_nulls.any() else None)

    def _evaluate_in(
        self,
        expression: SpecialFormExpression,
        bindings: dict[str, Block],
        position_count: int,
    ) -> Block:
        value_block = self.evaluate_interpreted(
            expression.arguments[0], bindings, position_count
        ).loaded()
        if isinstance(value_block, DictionaryBlock):
            value_block = value_block.decode()
        candidates = expression.arguments[1:]
        nulls = value_block.null_mask().copy()
        if all(isinstance(c, ConstantExpression) for c in candidates):
            in_list = [c.value for c in candidates if c.value is not None]
            has_null_candidate = any(c.value is None for c in candidates)
            if isinstance(value_block, PrimitiveBlock) and value_block.values.dtype != object:
                matches = np.isin(value_block.values, np.array(in_list))
            else:
                in_set = set(in_list)
                matches = np.array(
                    [
                        (value_block.get(i) in in_set) if not nulls[i] else False
                        for i in range(position_count)
                    ]
                )
            if has_null_candidate:
                # value NOT IN (..., NULL) is null when no match
                nulls = nulls | (~matches)
            matches = matches & ~nulls
            return PrimitiveBlock(BOOLEAN, matches, nulls if nulls.any() else None)

        # General form: compare against each candidate expression; with no
        # match, a NULL candidate makes the answer NULL.
        matches = np.zeros(position_count, dtype=bool)
        unknown = np.zeros(position_count, dtype=bool)
        for candidate in candidates:
            candidate_block = self.evaluate_interpreted(
                candidate, bindings, position_count
            ).loaded()
            for i in range(position_count):
                if candidate_block.is_null(i):
                    unknown[i] = True
                elif not nulls[i] and value_block.get(i) == candidate_block.get(i):
                    matches[i] = True
        nulls = nulls | (unknown & ~matches)
        matches = matches & ~nulls
        return PrimitiveBlock(BOOLEAN, matches, nulls if nulls.any() else None)

    def _evaluate_if(
        self,
        expression: SpecialFormExpression,
        bindings: dict[str, Block],
        position_count: int,
    ) -> Block:
        condition = self.evaluate_interpreted(
            expression.arguments[0], bindings, position_count
        ).loaded()
        cond_values, cond_nulls = bool_arrays(condition)
        take_then = cond_values & ~cond_nulls
        then_block = self.evaluate_interpreted(
            expression.arguments[1], bindings, position_count
        ).loaded()
        if len(expression.arguments) > 2:
            else_block = self.evaluate_interpreted(
                expression.arguments[2], bindings, position_count
            ).loaded()
        else:
            else_block = constant_block(None, expression.type, position_count)
        values = [
            then_block.get(i) if take_then[i] else else_block.get(i)
            for i in range(position_count)
        ]
        return block_from_values(expression.type, values)

    def _evaluate_dereference(
        self,
        expression: SpecialFormExpression,
        bindings: dict[str, Block],
        position_count: int,
    ) -> Block:
        base = self.evaluate_interpreted(
            expression.arguments[0], bindings, position_count
        ).loaded()
        field_name_expr = expression.arguments[1]
        if not isinstance(field_name_expr, ConstantExpression):
            raise ExecutionError("DEREFERENCE field name must be constant")
        field_name = field_name_expr.value
        if isinstance(base, RowBlock):
            if base.has_field(field_name):
                field_block = base.field(field_name)
                return with_extra_nulls(field_block, base.null_mask())
            # Schema evolution: newly added field absent from old data → null.
            return constant_block(None, expression.type, position_count)
        # Fallback: base produced dict values row by row.
        values = []
        for i in range(position_count):
            row_value = base.get(i)
            values.append(None if row_value is None else row_value.get(field_name))
        return block_from_values(expression.type, values)
