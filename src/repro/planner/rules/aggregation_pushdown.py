"""Aggregation pushdown (section IV.B, figure 2).

Pattern: ``Aggregation(SINGLE) → Project → TableScan`` where every group
key and aggregate argument is a direct column reference.  The rule offers
the aggregation to the connector; if accepted, the scan streams
*pre-aggregated* rows ("only stream aggregated results to Presto") and the
engine keeps a FINAL aggregation that merges per-split partial results —
exactly figure 2's "final aggregation max(columnB)" box above the
connector.  The OLAP stores answer with per-segment partials; the hybrid
connector answers with a materialized view at the read watermark.
"""

from __future__ import annotations

from typing import Optional

from repro.connectors.spi import AggregationFunction
from repro.core.expressions import (
    SpecialForm,
    SpecialFormExpression,
    ConstantExpression,
    VariableReferenceExpression,
)
from repro.core.functions import MERGEABLE_AGGREGATES
from repro.planner.plan import (
    Aggregation,
    AggregationNode,
    AggregationStep,
    PlanNode,
    ProjectNode,
    TableScanNode,
    rewrite_plan,
)


def push_aggregations(plan: PlanNode, ctx) -> PlanNode:
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
        if scan.handle.aggregation is not None:
            return None

        variable_to_column = scan.assignments_dict()

        def scan_column(expression) -> Optional[str]:
            """Resolve a post-projection variable to a connector column path."""
            if not isinstance(expression, VariableReferenceExpression):
                return None
            if project is not None:
                inner = project.assignments_dict().get(expression.name)
                if inner is None:
                    return None
                return _column_path(inner, variable_to_column)
            return _column_path(expression, variable_to_column)

        grouping_columns: list[str] = []
        for key in node.group_keys:
            column = scan_column(key)
            if column is None:
                return None
            grouping_columns.append(column)

        offered: list[AggregationFunction] = []
        for aggregation in node.aggregations:
            input_columns: list[str] = []
            for argument in aggregation.arguments:
                column = scan_column(argument)
                if column is None:
                    return None
                input_columns.append(column)
            offered.append(
                AggregationFunction(
                    function_handle=aggregation.function_handle,
                    inputs=tuple(input_columns),
                    output_name=aggregation.output.name,
                )
            )

        connector = ctx.catalog.connector(scan.catalog)
        result = connector.apply_aggregation(scan.handle, offered, grouping_columns)
        if result is None:
            return None

        # New scan streams (group keys + partial aggregates).  Key outputs
        # reuse the original group-key variable names so downstream
        # references stay valid.
        new_assignments: list[tuple[str, str]] = []
        new_outputs: list[VariableReferenceExpression] = []
        for key, column_meta in zip(node.group_keys, result.output_columns):
            new_assignments.append((key.name, column_meta.name))
            new_outputs.append(key)
        partial_variables: list[VariableReferenceExpression] = []
        for aggregation, column_meta in zip(
            node.aggregations, result.output_columns[len(node.group_keys) :]
        ):
            partial = VariableReferenceExpression(
                f"{aggregation.output.name}_partial", column_meta.type
            )
            new_assignments.append((partial.name, column_meta.name))
            new_outputs.append(partial)
            partial_variables.append(partial)

        new_scan = TableScanNode(
            catalog=scan.catalog,
            handle=result.handle,
            assignments=tuple(new_assignments),
            output_variables=tuple(new_outputs),
        )
        final_aggregations = tuple(
            Aggregation(
                output=aggregation.output,
                function_handle=aggregation.function_handle,
                arguments=(partial,),
            )
            for aggregation, partial in zip(node.aggregations, partial_variables)
        )
        return AggregationNode(
            source=new_scan,
            group_keys=node.group_keys,
            aggregations=final_aggregations,
            step=AggregationStep.FINAL,
        )

    return rewrite_plan(plan, rewriter)


def _column_path(expression, variable_to_column: dict[str, str]) -> Optional[str]:
    """Resolve a scan-level expression to a connector column path."""
    if isinstance(expression, VariableReferenceExpression):
        return variable_to_column.get(expression.name)
    if (
        isinstance(expression, SpecialFormExpression)
        and expression.form is SpecialForm.DEREFERENCE
    ):
        base = _column_path(expression.arguments[0], variable_to_column)
        field_name = expression.arguments[1]
        if base is None or not isinstance(field_name, ConstantExpression):
            return None
        return f"{base}.{field_name.value}"
    return None
