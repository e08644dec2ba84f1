"""Hash aggregation operator.

Supports grouped and global aggregation, DISTINCT aggregates, and the
"merge" evaluation mode used after aggregation pushdown: when a connector
returns pre-aggregated rows (figure 2), the engine's final aggregation
combines them with merge semantics rather than re-accumulating raw rows.

The operator is vectorized (section III) and never leaves arrays: the
input coalesces into batches of up to ``kernels.TARGET_PARTITION_ROWS`` rows
(key and argument columns only) and each batch feeds one
:class:`~repro.execution.kernels.HashAggregation`: the group keys
factorize once into dense int64 codes plus the distinct keys as blocks,
every aggregate accumulates with its array kernel, and the output page is
those key blocks beside the accumulators' blocks.  A PARTIAL step emits
avg's state as the ``AVG_INTERMEDIATE`` row of its sums and counts.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.blocks import Block
from repro.core.page import Page, concat_blocks
from repro.core.types import PrestoType
from repro.execution.context import ExecutionContext
from repro.execution import kernels
from repro.planner.plan import AggregationNode, AggregationStep


def _batches(
    source: Iterator[Page], columns: dict[str, tuple[int, PrestoType]]
) -> Iterator[tuple[dict[str, Block], int]]:
    """The input coalesced: ``(name -> block, row count)`` per batch.

    Only ``columns`` (name -> channel and type) are kept.  Batches are
    :func:`kernels.page_runs` of the non-empty pages, so group keys
    factorize once per batch, not once per page.  A scan's pages are
    already such runs (or pieces of them), and regrouping pieces gives the
    same runs back: a batch is the same rows whether the scan coalesced
    them or not.
    """
    pages = (page for page in source if page.position_count)
    for run in kernels.page_runs(pages):
        bindings = {
            name: concat_blocks(presto_type, [page.block(channel) for page in run])
            for name, (channel, presto_type) in columns.items()
        }
        yield bindings, sum(page.position_count for page in run)


def execute_aggregation(
    node: AggregationNode, ctx: ExecutionContext, source: Iterator[Page]
) -> Iterator[Page]:
    key_names = [k.name for k in node.group_keys]
    agg_argument_names = [[a.name for a in agg.arguments] for agg in node.aggregations]
    # The input columns the node reads: keys and aggregate arguments.
    used = {name for names in [key_names, *agg_argument_names] for name in names}
    columns = {
        variable.name: (channel, variable.type)
        for channel, variable in enumerate(node.source.outputs)
        if variable.name in used
    }
    # A staged task's aggregates were resolved with its stage template.
    aggregates = (
        ctx.stage.aggregates[node.id]
        if ctx.stage is not None
        else kernels.resolve_aggregates(
            [(a.function_handle, a.distinct) for a in node.aggregations], ctx.registry
        )
    )
    aggregation = kernels.HashAggregation(
        len(key_names), aggregates, merge_mode=node.step == AggregationStep.FINAL
    )
    for bindings, count in _batches(source, columns):
        aggregation.add(
            [bindings[name] for name in key_names],
            [[bindings[name] for name in names] for names in agg_argument_names],
            count,
        )
        ctx.stats.rows_processed_vectorized += count
    # Partial aggregations (staged execution) emit raw accumulator states:
    # the FINAL stage beyond the exchange merges them.
    yield aggregation.page(
        [v.type for v in node.outputs], partial=node.step == AggregationStep.PARTIAL
    )
