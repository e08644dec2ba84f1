"""Hash aggregation operator.

Supports grouped and global aggregation, DISTINCT aggregates, and the
"merge" evaluation mode used after aggregation pushdown: when a connector
returns pre-aggregated rows (figure 2), the engine's final aggregation
combines them with merge semantics rather than re-accumulating raw rows.

The hot path is vectorized (section III): group keys factorize into dense
int64 codes per page (:mod:`repro.execution.kernels`) and count/sum/min/
max/avg accumulate with array kernels.  A page whose keys do not factorize
maps them row by row (``GroupIndex.map_rows``); an aggregate no array
kernel covers (DISTINCT, object-dtype arguments, FINAL avg, exotic
functions), or whose kernel raises ``FallbackNeeded``, runs on the
reference state machine (``GenericAccumulator``).  Either way the page
counts in ``rows_processed_fallback``.  :func:`execute_aggregation_rows`
is the original row-at-a-time implementation (one ``GroupFold`` plus the
DISTINCT bookkeeping), kept as the differential-test oracle and benchmark
baseline.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.blocks import PrimitiveBlock, block_from_values
from repro.core.functions import GroupFold
from repro.core.page import Page
from repro.execution.context import ExecutionContext
from repro.execution import kernels
from repro.execution.operators.filter_project import bindings_for
from repro.planner.plan import AggregationNode, AggregationStep


def execute_aggregation(
    node: AggregationNode, ctx: ExecutionContext, source: Iterator[Page]
) -> Iterator[Page]:
    implementations = [
        ctx.registry.aggregate_for(a.function_handle) for a in node.aggregations
    ]
    source_outputs = node.source.outputs
    key_names = [k.name for k in node.group_keys]
    agg_argument_names = [[a.name for a in agg.arguments] for agg in node.aggregations]
    merge_mode = node.step == "FINAL"

    index = kernels.GroupIndex()
    accumulators = [
        kernels.make_accumulator(aggregation, impl, merge_mode)
        for aggregation, impl in zip(node.aggregations, implementations)
    ]

    for page in source:
        count = page.position_count
        if count == 0:
            continue
        bindings = bindings_for(page, source_outputs)
        key_blocks = [bindings[name].loaded() for name in key_names]
        argument_blocks = [[bindings[name] for name in names] for names in agg_argument_names]

        if key_names:
            factorized = kernels.factorize_keys(key_blocks)
            if factorized is None:
                group_ids = index.map_rows(key_blocks, count)
                keys_vectorized = False
            else:
                codes, uniques = factorized
                group_ids = index.map_codes(codes, uniques)
                keys_vectorized = True
        else:
            index.ensure_group(())
            group_ids = np.zeros(count, dtype=np.int64)
            keys_vectorized = True

        page_vectorized = keys_vectorized
        group_count = len(index)
        for i, accumulator in enumerate(accumulators):
            try:
                accumulator.add_page(group_count, group_ids, argument_blocks[i], count)
            except kernels.FallbackNeeded:
                # Spill this aggregate's array state into the generic
                # per-group state machine and replay the page row-wise.
                accumulator = kernels.GenericAccumulator(
                    implementations[i],
                    node.aggregations[i].distinct,
                    merge_mode,
                    initial_states=accumulator.to_states(),
                )
                accumulators[i] = accumulator
                accumulator.add_page(group_count, group_ids, argument_blocks[i], count)
            if not accumulator.vectorized:
                page_vectorized = False
        if page_vectorized:
            ctx.stats.rows_processed_vectorized += count
        else:
            ctx.stats.rows_processed_fallback += count

    if not index.keys and not node.group_keys:
        # Global aggregation over empty input still yields one row.
        index.ensure_group(())

    group_count = len(index)
    output_types = [v.type for v in node.outputs]
    columns: list[Sequence[Any]] = (
        list(zip(*index.keys)) if index.keys else [[] for _ in key_names]
    )
    if node.step == AggregationStep.PARTIAL:
        # Partial aggregations (staged execution) emit raw accumulator
        # states: the FINAL stage beyond the exchange merges them.  States
        # that are not scalars (avg's (sum, count), approx_distinct's set)
        # travel in object-storage blocks under the declared output type.
        for accumulator in accumulators:
            accumulator.finalize_all(group_count)  # grow to full group count
            columns.append(accumulator.to_states())
        yield _partial_page(output_types, len(key_names), columns, group_count)
        return
    for accumulator in accumulators:
        columns.append(accumulator.finalize_all(group_count))
    yield Page.from_columns(output_types, columns)


_SCALAR_STATE_TYPES = (int, float, str, bool, bytes, type(None))


def _partial_page(output_types, key_count, columns, group_count) -> Page:
    """Page of per-group partial states, tolerating non-scalar states."""
    blocks = []
    for channel, (presto_type, values) in enumerate(zip(output_types, columns)):
        # One test per distinct type in the column, not one per group.
        scalar = channel < key_count or all(
            issubclass(t, _SCALAR_STATE_TYPES) for t in set(map(type, values))
        )
        if scalar:
            try:
                blocks.append(block_from_values(presto_type, values))
                continue
            except Exception:
                pass
        storage = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            storage[i] = v
        blocks.append(PrimitiveBlock(presto_type, storage))
    return Page(blocks, group_count)


def execute_aggregation_rows(
    node: AggregationNode, ctx: ExecutionContext, source: Iterator[Page]
) -> Iterator[Page]:
    """Row-at-a-time reference implementation (the pre-kernel hot path).

    Retained as the semantics oracle for the differential tests and the
    baseline for ``benchmarks/bench_operator_kernels.py``.
    """
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
            key = tuple(
                kernels.canonical_key(block.get(position)) for block in key_blocks
            )
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
                # A FINAL step's single argument is the partial state.
                inputs = [i if i is GroupFold.SKIP else i[0] for i in inputs]
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
