"""Limit pushdown and Sort+Limit → TopN."""

from __future__ import annotations

from typing import Optional

from repro.planner.plan import (
    LimitNode,
    PlanNode,
    ProjectNode,
    SortNode,
    TableScanNode,
    TopNNode,
    rewrite_plan,
)


def sort_limit_to_topn(plan: PlanNode, _ctx) -> PlanNode:
    """Limit(Sort(x)) → TopN(x): avoids a full sort."""

    def rewriter(node: PlanNode) -> Optional[PlanNode]:
        if isinstance(node, LimitNode) and isinstance(node.source, SortNode):
            return TopNNode(
                source=node.source.source,
                count=node.count,
                order_by=node.source.order_by,
            )
        return None

    return rewrite_plan(plan, rewriter)


def push_limits(plan: PlanNode, ctx) -> PlanNode:
    """Push LIMIT through projections and offer it to connectors."""

    def rewriter(node: PlanNode) -> Optional[PlanNode]:
        if not isinstance(node, LimitNode):
            return None
        source = node.source
        if isinstance(source, ProjectNode):
            # LIMIT commutes with a stateless projection.
            return ProjectNode(
                source=LimitNode(
                    source=source.source, count=node.count, partial=node.partial
                ),
                assignments=source.assignments,
            )
        if isinstance(source, LimitNode):
            return LimitNode(source=source.source, count=min(node.count, source.count))
        if isinstance(source, TableScanNode):
            handle = source.handle
            if handle.limit is not None and handle.limit <= node.count:
                return node  # already pushed
            connector = ctx.catalog.connector(source.catalog)
            new_handle = connector.apply_limit(handle, node.count)
            if new_handle is None:
                return None
            new_scan = TableScanNode(
                catalog=source.catalog,
                handle=new_handle,
                assignments=source.assignments,
                output_variables=source.output_variables,
            )
            # Keep the engine-side limit: with multiple splits each split may
            # individually satisfy the limit, so a final trim is still needed.
            return LimitNode(source=new_scan, count=node.count)
        return None

    previous = None
    current = plan
    while previous is None or current.pretty() != previous:
        previous = current.pretty()
        current = rewrite_plan(current, rewriter)
    return current
