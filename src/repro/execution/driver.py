"""Plan driver: compiles a plan tree into a pull-based page pipeline."""

from __future__ import annotations

from typing import Iterator

from repro.common.errors import ExecutionError
from repro.core.page import Page
from repro.execution.context import ExecutionContext
from repro.execution.operators import (
    execute_aggregation,
    execute_filter,
    execute_join,
    execute_limit,
    execute_project,
    execute_sort,
    execute_spatial_join,
    execute_table_scan,
    execute_topn,
    execute_values,
)
from repro.planner.fragmenter import RemoteSourceNode
from repro.planner.plan import (
    AggregationNode,
    FilterNode,
    JoinNode,
    LimitNode,
    OutputNode,
    PlanNode,
    ProjectNode,
    SortNode,
    SpatialJoinNode,
    TableScanNode,
    TopNNode,
    UnionNode,
    ValuesNode,
)


def execute_plan(
    node: PlanNode, ctx: ExecutionContext, stream: bool = False
) -> Iterator[Page]:
    """Execute ``node``, yielding result pages.

    With a tracer attached, every operator's output rows are accumulated
    into ``ctx.operator_rows`` (plan node id → rows); the scheduler
    renders them as operator spans once the task's pipeline drains.

    ``stream`` says a LIMIT pulls from ``node`` with no blocking operator
    (aggregation, sort, top-N, join build) in between: a scan below then
    hands over each split's pages as they come instead of coalescing
    them, so the LIMIT reads no split it does not need.
    """
    pipeline = _dispatch(node, ctx, stream)
    if ctx.operator_rows is None:
        return pipeline
    # Register eagerly so operators that are never pulled (LIMIT upstream)
    # still appear, with zero rows, in deterministic plan order.
    ctx.operator_rows.setdefault(node.id, 0)
    return _counted(node, ctx, pipeline)


def _counted(node: PlanNode, ctx: ExecutionContext, pipeline: Iterator[Page]) -> Iterator[Page]:
    for page in pipeline:
        ctx.operator_rows[node.id] += page.position_count
        yield page


def operator_ordinals(root: PlanNode) -> list[tuple[int, str, str]]:
    """``(ordinal, node id, node type name)`` of every node under ``root``,
    pre-order: what :func:`record_operator_spans` names spans by."""
    return [(ordinal, node.id, type(node).__name__) for ordinal, node in enumerate(root.walk())]


def record_operator_spans(
    tracer, operators: list[tuple[int, str, str]], operator_rows: dict
) -> None:
    """Emit one instant operator span per plan node, in pre-order.

    ``operators`` are the plan's :func:`operator_ordinals`.  Spans are
    stamped at the current simulated time (operators do not charge
    simulated time themselves; the task's cost model does) and identified
    by the node's *position* in the plan, not its process-wide id, so
    traces stay byte-identical across runs.
    """
    for ordinal, node_id, name in operators:
        if node_id in operator_rows:
            tracer.instant("operator", op=ordinal, node=name, rows=operator_rows[node_id])


def _dispatch(node: PlanNode, ctx: ExecutionContext, stream: bool) -> Iterator[Page]:
    if isinstance(node, TableScanNode):
        return execute_table_scan(node, ctx, stream)
    if isinstance(node, ValuesNode):
        return execute_values(node, ctx)
    if isinstance(node, FilterNode):
        return execute_filter(node, ctx, execute_plan(node.source, ctx, stream))
    if isinstance(node, ProjectNode):
        return execute_project(node, ctx, execute_plan(node.source, ctx, stream))
    if isinstance(node, AggregationNode):
        return execute_aggregation(node, ctx, execute_plan(node.source, ctx))
    if isinstance(node, JoinNode):
        # A right join probes with its right side (it runs as the swapped
        # left join); the build side is drained whole either way.
        right_probes = node.join_type == "right"
        return execute_join(
            node,
            ctx,
            execute_plan(node.left, ctx, stream and not right_probes),
            execute_plan(node.right, ctx, stream and right_probes),
        )
    if isinstance(node, SpatialJoinNode):
        return execute_spatial_join(
            node, ctx, execute_plan(node.left, ctx, stream), execute_plan(node.right, ctx)
        )
    if isinstance(node, SortNode):
        return execute_sort(node, ctx, execute_plan(node.source, ctx))
    if isinstance(node, TopNNode):
        return execute_topn(node, ctx, execute_plan(node.source, ctx))
    if isinstance(node, LimitNode):
        return execute_limit(node, ctx, execute_plan(node.source, ctx, stream=True))
    if isinstance(node, UnionNode):
        return _execute_union(node, ctx, stream)
    if isinstance(node, RemoteSourceNode):
        return _execute_remote_source(node, ctx)
    if isinstance(node, OutputNode):
        return _execute_output(node, ctx, stream)
    raise ExecutionError(f"no operator for plan node {type(node).__name__}")


def _execute_remote_source(node: RemoteSourceNode, ctx: ExecutionContext) -> Iterator[Page]:
    # Staged execution: the QueryScheduler resolved this exchange against
    # the upstream stage's buffer before starting the task.
    if ctx.exchange_inputs is None or node.exchange not in ctx.exchange_inputs:
        raise ExecutionError(
            "RemoteSource outside staged execution: no pages buffered for "
            f"exchange from fragment {node.exchange.source_fragment}"
        )
    yield from ctx.exchange_inputs[node.exchange]


def _execute_union(node: UnionNode, ctx: ExecutionContext, stream: bool) -> Iterator[Page]:
    # UNION ALL: branches stream in order; every branch was projected onto
    # the same output variables, so pages pass through positionally.
    for source in node.union_sources:
        yield from execute_plan(source, ctx, stream)


def _execute_output(node: OutputNode, ctx: ExecutionContext, stream: bool) -> Iterator[Page]:
    visible = len(node.column_names)
    for page in execute_plan(node.source, ctx, stream):
        page = page.loaded()
        if page.channel_count > visible:
            page = page.select_channels(list(range(visible)))
        ctx.stats.rows_output += page.position_count
        yield page
