"""Materialized-view substitution for streaming aggregations.

Pattern: ``Aggregation(SINGLE) → [Project →] TableScan`` over a
connector that exposes ``find_materialized_view`` (the hybrid streaming
connector).  When the connector has a registered view computing exactly
this aggregation *at the query's read watermark*, the whole aggregation
subtree is replaced by a scan of the view — the incrementally-maintained
answer — turning a full hybrid scan + group-by into a few-row read.

Freshness gating lives connector-side: ``find_materialized_view``
returns a view only when the view's watermark equals the read watermark
(a pinned ``$watermark=`` suffix, or the committed watermark for plain
names), so substitution never changes query results — the differential
tests run the same query with the rule on and off and require identical
rows.

The rule runs *before* aggregation pushdown: a matching view beats
re-aggregating at the source; when no view matches, the scan is left
untouched for pushdown to negotiate.
"""

from __future__ import annotations

from typing import Optional

from repro.connectors.spi import ConnectorTableHandle
from repro.core.expressions import VariableReferenceExpression
from repro.core.functions import MERGEABLE_AGGREGATES
from repro.planner.plan import (
    AggregationNode,
    AggregationStep,
    PlanNode,
    ProjectNode,
    TableScanNode,
    rewrite_plan,
)


def substitute_materialized_views(plan: PlanNode, ctx) -> PlanNode:
    def rewriter(node: PlanNode) -> Optional[PlanNode]:
        if not isinstance(node, AggregationNode) or node.step != AggregationStep.SINGLE:
            return None
        if any(a.distinct for a in node.aggregations):
            return None
        if not all(a.function_handle.name in MERGEABLE_AGGREGATES for a in node.aggregations):
            return None

        source = node.source
        if isinstance(source, ProjectNode) and isinstance(source.source, TableScanNode):
            project, scan = source, source.source
        elif isinstance(source, TableScanNode):
            project, scan = None, source
        else:
            return None
        # Any absorbed pushdown (filter, limit, aggregation) changes what
        # the aggregate sees; the view folds the *whole* table, so only a
        # bare scan is substitutable.
        handle = scan.handle
        if (
            handle.constraint is not None
            or handle.limit is not None
            or handle.aggregation is not None
        ):
            return None

        connector = ctx.catalog.connector(scan.catalog)
        finder = getattr(connector, "find_materialized_view", None)
        if finder is None:
            return None

        variable_to_column = scan.assignments_dict()

        def scan_column(expression) -> Optional[str]:
            if not isinstance(expression, VariableReferenceExpression):
                return None
            if project is not None:
                inner = project.assignments_dict().get(expression.name)
                if not isinstance(inner, VariableReferenceExpression):
                    return None
                return variable_to_column.get(inner.name)
            return variable_to_column.get(expression.name)

        grouping_columns: list[str] = []
        for key in node.group_keys:
            column = scan_column(key)
            if column is None:
                return None
            grouping_columns.append(column)

        wanted: list[tuple[str, Optional[str]]] = []
        for aggregation in node.aggregations:
            if len(aggregation.arguments) == 0:
                wanted.append((aggregation.function_handle.name, None))
            elif len(aggregation.arguments) == 1:
                column = scan_column(aggregation.arguments[0])
                if column is None:
                    return None
                wanted.append((aggregation.function_handle.name, column))
            else:
                return None

        match = finder(handle.table_name, grouping_columns, wanted)
        if match is None:
            return None
        view_name, view_outputs = match

        # Scan the view instead: group keys keep their base-table column
        # names; each aggregate output reads its view column.  Output
        # variables are the aggregation's own, so downstream references
        # (and types) are untouched.
        assignments: list[tuple[str, str]] = []
        outputs: list[VariableReferenceExpression] = []
        for key, column in zip(node.group_keys, grouping_columns):
            assignments.append((key.name, column))
            outputs.append(key)
        for aggregation, spec in zip(node.aggregations, wanted):
            view_column = view_outputs.get(spec)
            if view_column is None:
                return None
            assignments.append((aggregation.output.name, view_column))
            outputs.append(aggregation.output)

        return TableScanNode(
            catalog=scan.catalog,
            handle=ConnectorTableHandle(handle.schema_name, view_name),
            assignments=tuple(assignments),
            output_variables=tuple(outputs),
        )

    return rewrite_plan(plan, rewriter)
