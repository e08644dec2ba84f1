"""Expression evaluation: compiled kernel DAGs.

Presto generates JVM bytecode (via ASM) for expression evaluation; this
module is the Python equivalent.  The evaluator compiles each
:class:`RowExpression` once (per canonical form, cached process-wide in
:mod:`repro.core.compiler`) into a DAG of null-aware, dictionary-aware
array kernels and reuses it for every page.  Null semantics follow SQL
three-valued logic: function calls propagate null when any argument is
null; AND/OR, IN and ``any_match`` use Kleene logic; ``IS_NULL`` observes
nulls without propagating them.

The row-at-a-time interpreter the compiler replaced is not here: it lives
in ``tests/reference/interpreter.py``, the oracle of the differential
tests and the baseline of ``benchmarks/bench_expressions.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.common.errors import ExecutionError
from repro.core.blocks import Block, constant_block
from repro.core.compiler import CompiledExpression, bool_arrays, compile_cached
from repro.core.expressions import (
    ConstantExpression,
    RowExpression,
    VariableReferenceExpression,
)
from repro.core.functions import FunctionRegistry, default_registry
from repro.core.page import Page


class Evaluator:
    """Evaluates RowExpressions over column bindings.

    :meth:`evaluate` runs the kernel DAGs from :mod:`repro.core.compiler`.
    ``stats`` (a :class:`repro.execution.context.QueryStats`, optional)
    receives the ``expr_positions_*`` counters surfaced by EXPLAIN ANALYZE.
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

    def filter_page(
        self, predicate: Optional[RowExpression], names: Sequence[str], page: Page
    ) -> Page:
        """The positions of ``page`` (channels named ``names``) where
        ``predicate`` is true; the page itself when ``predicate`` is
        ``None`` or keeps every position."""
        if predicate is None:
            return page
        mask = self.filter_mask(predicate, dict(zip(names, page.blocks)), page.position_count)
        return page if mask.all() else page.take(np.flatnonzero(mask))
