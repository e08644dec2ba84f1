"""Row-at-a-time references of the vectorized operators.

Each function is the operator as it ran before its kernels: one Python
tuple per row, dict-keyed groups and join tables, and ``list.sort`` with a
null-aware key.  They are the oracles of
``tests/execution/test_vectorized_kernels.py`` and the baseline lanes of
``benchmarks/bench_operator_kernels.py``; production runs
:mod:`repro.execution.operators` only.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.blocks import (
    BLOCK_VALUE_ERRORS,
    PrimitiveBlock,
    block_from_values,
)
from repro.core.functions import AggregateFunction
from repro.core.page import Page
from repro.core.types import DOUBLE, RowType
from repro.execution.context import ExecutionContext
from repro.execution.operators.filter_project import bindings_for
from repro.execution.operators.joins import _build_rows
from repro.execution.operators.sorting import _key_indexes
from repro.planner.plan import AggregationNode, AggregationStep, JoinNode


def canonical_key(value: Any) -> Any:
    """Canonical form of one key component: NaN becomes the null sentinel.

    Every reference that builds key tuples (group by, hash join) routes
    values through here so the dict-keyed lanes agree with the factorized
    ones, where NaN maps to code ``-1``.
    """
    if isinstance(value, float) and value != value:
        return None
    return value


# -- aggregation --------------------------------------------------------------


class GroupFold:
    """Row-at-a-time grouped aggregation: ``group key → one state per
    aggregate``, groups kept in first-seen order.

    create_state / add_input | merge / finalize of the registry's row
    callables, one row at a time: the fold of
    :func:`execute_aggregation_rows`.  Production aggregates on
    :class:`repro.execution.kernels.HashAggregation`.
    """

    #: In place of an aggregate's input: leave that state as it is (how the
    #: operator's DISTINCT bookkeeping drops a repeated argument).
    SKIP = object()

    def __init__(
        self, implementations: Sequence[AggregateFunction], merge: bool = False
    ) -> None:
        self._implementations = list(implementations)
        # Under ``merge`` the inputs are partial states, not argument tuples.
        self._steps = [
            impl.merge if merge else impl.add_input for impl in self._implementations
        ]
        self.groups: dict[tuple, list[Any]] = {}

    def states(self, key: tuple) -> list[Any]:
        """The states of ``key``, created on first sight."""
        states = self.groups.get(key)
        if states is None:
            states = self.groups[key] = [
                impl.create_state() for impl in self._implementations
            ]
        return states

    def fold(self, key: tuple, inputs: Sequence[Any]) -> None:
        """Advance each aggregate of ``key`` by its entry of ``inputs``."""
        # Called once per row: the dict probe and the index arithmetic are
        # spelled out because a nested call or a zip here dominates a
        # baseline lane's time.
        states = self.groups.get(key)
        if states is None:
            states = self.states(key)
        steps = self._steps
        index = 0
        for value in inputs:
            if value is not GroupFold.SKIP:
                states[index] = steps[index](states[index], value)
            index += 1

    def rows(self) -> list[tuple]:
        """One finalized ``key + values`` row per group."""
        implementations = self._implementations
        return [
            tuple(key)
            + tuple(impl.finalize(s) for impl, s in zip(implementations, states))
            for key, states in self.groups.items()
        ]


def _partial_page(output_types, key_count, columns, group_count) -> Page:
    """Page of per-group partial states (the row reference's), typed as the
    kernel's: avg's ``(sum, count)`` tuples become its intermediate rows."""
    blocks = []
    for channel, (presto_type, values) in enumerate(zip(output_types, columns)):
        if channel >= key_count and isinstance(presto_type, RowType):
            values = [dict(zip(presto_type.field_names(), state)) for state in values]
        try:
            blocks.append(block_from_values(presto_type, values))
        except BLOCK_VALUE_ERRORS:
            storage = np.empty(len(values), dtype=object)
            for i, v in enumerate(values):
                storage[i] = v
            blocks.append(PrimitiveBlock(presto_type, storage))
    return Page(blocks, group_count)


def execute_aggregation_rows(
    node: AggregationNode, ctx: ExecutionContext, source: Iterator[Page]
) -> Iterator[Page]:
    """Row-at-a-time aggregation: one ``GroupFold`` plus the DISTINCT
    bookkeeping.  A PARTIAL step emits avg's state as the kernel's
    intermediate row, so a reference PARTIAL step feeds a kernel FINAL step."""
    implementations = [
        ctx.registry.aggregate_for(a.function_handle) for a in node.aggregations
    ]
    source_outputs = node.source.outputs
    key_names = [k.name for k in node.group_keys]
    agg_argument_names = [[a.name for a in agg.arguments] for agg in node.aggregations]
    merge_mode = node.step == "FINAL"

    fold = GroupFold(implementations, merge=merge_mode)
    # DISTINCT: the argument tuples each (group, aggregate) has already seen.
    distinct_indexes = [i for i, agg in enumerate(node.aggregations) if agg.distinct]
    distinct_seen: dict[tuple, list[set]] = {}

    for page in source:
        if page.position_count == 0:
            continue
        bindings = bindings_for(page, source_outputs)
        key_blocks = [bindings[name].loaded() for name in key_names]
        argument_blocks = [
            [bindings[name].loaded() for name in names] for names in agg_argument_names
        ]
        for position in range(page.position_count):
            key = tuple(canonical_key(block.get(position)) for block in key_blocks)
            inputs: list[Any] = [
                tuple(block.get(position) for block in blocks)
                for blocks in argument_blocks
            ]
            if distinct_indexes:
                seen = distinct_seen.get(key)
                if seen is None:
                    seen = distinct_seen[key] = [set() for _ in implementations]
                for index in distinct_indexes:
                    if inputs[index] in seen[index]:
                        inputs[index] = GroupFold.SKIP
                    else:
                        seen[index].add(inputs[index])
            if merge_mode:
                # A FINAL step's single argument is the partial state; avg's
                # arrives as its intermediate row, whose fields are the tuple.
                inputs = [
                    i if i is GroupFold.SKIP
                    else tuple(i[0].values()) if isinstance(i[0], dict)
                    else i[0]
                    for i in inputs
                ]
            fold.fold(key, inputs)

    if not fold.groups and not node.group_keys:
        # Global aggregation over empty input still yields one row.
        fold.states(())

    output_types = [v.type for v in node.outputs]
    if node.step == AggregationStep.PARTIAL:
        key_count = len(key_names)
        group_order = list(fold.groups)
        columns = [
            [key[channel] for key in group_order] for channel in range(key_count)
        ]
        for index in range(len(implementations)):
            columns.append([fold.groups[key][index] for key in group_order])
        yield _partial_page(output_types, key_count, columns, len(group_order))
        return
    yield Page.from_rows(output_types, fold.rows())


# -- hash join ----------------------------------------------------------------


def _filter_row(evaluator, predicate, outputs, row: tuple) -> bool:
    bindings = {
        variable.name: block_from_values(variable.type, [value])
        for variable, value in zip(outputs, row)
    }
    mask = evaluator.filter_mask(predicate, bindings, 1)
    return bool(mask[0])


def _hash_join_rows(
    node: JoinNode,
    ctx: ExecutionContext,
    left_source: Iterator[Page],
    right_source: Iterator[Page],
) -> Iterator[Page]:
    """Row-at-a-time hash join: a dict of build rows keyed by their join
    key, probed one left row at a time.  A key column that meets a DOUBLE
    on the other side compares as doubles, as SQL compares BIGINT with
    DOUBLE."""
    right_outputs = node.right.outputs
    right_key_indexes = [
        [v.name for v in right_outputs].index(r.name) for _, r in node.criteria
    ]
    left_outputs = node.left.outputs
    left_key_indexes = [
        [v.name for v in left_outputs].index(l.name) for l, _ in node.criteria
    ]
    output_types = [v.type for v in node.outputs]

    as_double = [DOUBLE in (l.type, r.type) for l, r in node.criteria]

    def key_of(row: tuple, indexes: list[int]) -> tuple:
        return tuple(
            canonical_key(float(row[i]) if double and row[i] is not None else row[i])
            for i, double in zip(indexes, as_double)
        )

    build_rows = _build_rows(ctx, right_source)
    table: dict[tuple, list[tuple]] = {}
    for row in build_rows:
        key = key_of(row, right_key_indexes)
        if any(k is None for k in key):
            continue  # SQL: NULL keys (and canonicalized NaN) never match
        table.setdefault(key, []).append(row)

    evaluator = ctx.evaluator
    join_filter = node.filter
    all_outputs = node.outputs
    is_left_join = node.join_type == "left"
    right_null_row = (None,) * len(right_outputs)

    for page in left_source:
        page = page.loaded()
        result_rows: list[tuple] = []
        for probe_row in page.rows():
            key = key_of(probe_row, left_key_indexes)
            matches = [] if any(k is None for k in key) else table.get(key, [])
            matched = False
            for build_row in matches:
                combined = probe_row + build_row
                if join_filter is not None and not _filter_row(
                    evaluator, join_filter, all_outputs, combined
                ):
                    continue
                matched = True
                result_rows.append(combined)
            if is_left_join and not matched:
                result_rows.append(probe_row + right_null_row)
        yield Page.from_rows(output_types, result_rows)


# -- sort ---------------------------------------------------------------------


class _SortKey:
    """Total order over possibly-null values: nulls sort last ascending."""

    __slots__ = ("value", "ascending")

    def __init__(self, value, ascending: bool) -> None:
        self.value = value
        self.ascending = ascending

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.ascending
        if b is None:
            return self.ascending
        return a < b if self.ascending else b < a

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.value == other.value


def _sorted_rows(node, source: Iterator[Page]) -> list[tuple]:
    """Row-at-a-time sort of every input row by ``node.order_by``."""
    key_indexes = _key_indexes(node)
    rows: list[tuple] = []
    for page in source:
        rows.extend(page.loaded().rows())
    rows.sort(key=lambda row: tuple(_SortKey(row[i], asc) for i, asc in key_indexes))
    return rows
