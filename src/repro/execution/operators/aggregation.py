"""Hash aggregation operator.

Supports grouped and global aggregation, DISTINCT aggregates, and the
"merge" evaluation mode used after aggregation pushdown: when a connector
returns pre-aggregated rows (figure 2), the engine's final aggregation
combines them with merge semantics rather than re-accumulating raw rows.

The hot path is vectorized (section III) and never leaves arrays: the
input coalesces into batches of up to ``kernels.TARGET_PARTITION_ROWS`` rows
(key and argument columns only), each batch's group keys factorize once
into dense int64 codes plus the distinct keys as blocks
(:mod:`repro.execution.kernels`), count/sum/min/max/avg accumulate with
array kernels, and the output page is those key blocks beside the
accumulators' arrays.  A batch whose keys do not factorize maps them row
by row (``GroupIndex.map_rows``); an aggregate no array kernel covers
(DISTINCT, object-dtype arguments, FINAL avg, exotic functions), or whose
kernel raises ``FallbackNeeded``, runs on the reference state machine
(``GenericAccumulator``).  Either way the batch counts in
``rows_processed_fallback``.  :func:`execute_aggregation_rows` is the
original row-at-a-time implementation (one ``GroupFold`` plus the DISTINCT
bookkeeping), kept as the differential-test oracle and benchmark baseline.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.core.blocks import (
    BLOCK_VALUE_ERRORS,
    Block,
    PrimitiveBlock,
    block_from_values,
)
from repro.core.functions import GroupFold
from repro.core.page import Page, concat_blocks
from repro.core.types import PrestoType
from repro.execution.context import ExecutionContext
from repro.execution import kernels
from repro.execution.operators.filter_project import bindings_for
from repro.planner.plan import AggregationNode, AggregationStep


def _batches(
    source: Iterator[Page], columns: dict[str, tuple[int, PrestoType]]
) -> Iterator[tuple[dict[str, Block], int]]:
    """The input coalesced: ``(name -> block, row count)`` per batch.

    Only ``columns`` (name -> channel and type) are kept.  Pages join a
    batch while it stays within ``TARGET_PARTITION_ROWS`` rows (a page
    larger than that is a batch of its own), so group keys factorize once
    per batch, not once per page.
    """
    pending: list[Page] = []
    rows = 0

    def flush() -> tuple[dict[str, Block], int]:
        bindings = {
            name: concat_blocks(presto_type, [page.block(channel) for page in pending])
            for name, (channel, presto_type) in columns.items()
        }
        return bindings, rows

    for page in source:
        if page.position_count == 0:
            continue
        if pending and rows + page.position_count > kernels.TARGET_PARTITION_ROWS:
            yield flush()
            pending, rows = [], 0
        pending.append(page)
        rows += page.position_count
    if pending:
        yield flush()


def execute_aggregation(
    node: AggregationNode, ctx: ExecutionContext, source: Iterator[Page]
) -> Iterator[Page]:
    implementations = [
        ctx.registry.aggregate_for(a.function_handle) for a in node.aggregations
    ]
    key_names = [k.name for k in node.group_keys]
    agg_argument_names = [[a.name for a in agg.arguments] for agg in node.aggregations]
    merge_mode = node.step == "FINAL"
    # The input columns the node reads: keys and aggregate arguments.
    used = {name for names in [key_names, *agg_argument_names] for name in names}
    columns = {
        variable.name: (channel, variable.type)
        for channel, variable in enumerate(node.source.outputs)
        if variable.name in used
    }

    index = kernels.GroupIndex()
    accumulators = [
        kernels.make_accumulator(aggregation, impl, merge_mode)
        for aggregation, impl in zip(node.aggregations, implementations)
    ]

    for bindings, count in _batches(source, columns):
        batch_vectorized = True
        if key_names:
            key_blocks = [bindings[name] for name in key_names]
            factorized = kernels.factorize_keys(key_blocks)
            if factorized is None:
                group_ids = index.map_rows(key_blocks, count)
                batch_vectorized = False
            else:
                group_ids = index.map_codes(*factorized)
            group_count = len(index)
        else:
            group_ids = np.zeros(count, dtype=np.int64)
            group_count = 1

        for i, accumulator in enumerate(accumulators):
            arguments = [bindings[name] for name in agg_argument_names[i]]
            try:
                accumulator.add_page(group_count, group_ids, arguments, count)
            except kernels.FallbackNeeded:
                # Spill this aggregate's array state into the generic
                # per-group state machine and replay the batch row-wise.
                accumulator = kernels.GenericAccumulator(
                    implementations[i],
                    node.aggregations[i].distinct,
                    merge_mode,
                    initial_states=accumulator.to_states(),
                )
                accumulators[i] = accumulator
                accumulator.add_page(group_count, group_ids, arguments, count)
            if not accumulator.vectorized:
                batch_vectorized = False
        if batch_vectorized:
            ctx.stats.rows_processed_vectorized += count
        else:
            ctx.stats.rows_processed_fallback += count

    # Global aggregation over empty input still yields one row.
    group_count = len(index) if key_names else 1
    output_types = [v.type for v in node.outputs]
    key_count = len(key_names)
    out = list(index.key_blocks(output_types[:key_count])) if key_count else []
    # Partial aggregations (staged execution) emit raw accumulator states:
    # the FINAL stage beyond the exchange merges them.
    partial = node.step == AggregationStep.PARTIAL
    for accumulator, presto_type in zip(accumulators, output_types[key_count:]):
        make = accumulator.state_block if partial else accumulator.final_block
        out.append(make(group_count, presto_type))
    yield Page(out, group_count)


def _partial_page(output_types, key_count, columns, group_count) -> Page:
    """Page of per-group partial states (the row reference's)."""
    blocks = []
    for channel, (presto_type, values) in enumerate(zip(output_types, columns)):
        if channel >= key_count:
            blocks.append(kernels.states_block(presto_type, values))
            continue
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
