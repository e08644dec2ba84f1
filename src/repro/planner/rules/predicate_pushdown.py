"""Predicate pushdown (section IV.A).

Filters move down through projections and joins toward table scans, and at
the scan they are *offered* to the connector as serialized RowExpressions
over connector column names.  "It is desirable to let MySQL only stream
filtered, projected, and limited rows into Presto, instead of streaming the
whole table" — connectors absorb what their storage can evaluate and hand
back the remainder for the engine to evaluate.
"""

from __future__ import annotations

from typing import Optional

from repro.core.expressions import (
    VariableReferenceExpression,
    combine_conjuncts,
    conjuncts,
    expression_from_dict,
    substitute,
)
from repro.planner.plan import (
    FilterNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    TableScanNode,
    rewrite_plan,
)


def push_predicates(plan: PlanNode, ctx) -> PlanNode:
    """One pass of predicate pushdown; the optimizer iterates to fixpoint."""

    def rewriter(node: PlanNode) -> Optional[PlanNode]:
        if not isinstance(node, FilterNode):
            return None
        source = node.source
        if isinstance(source, ProjectNode):
            return _through_project(node, source)
        if isinstance(source, JoinNode):
            return _through_join(node, source)
        if isinstance(source, TableScanNode):
            return _into_scan(node, source, ctx)
        return None

    return rewrite_plan(plan, rewriter)


def _through_project(filter_node: FilterNode, project: ProjectNode) -> Optional[PlanNode]:
    mapping = project.assignments_dict()
    if not all(v.name in mapping for v in filter_node.predicate.variables()):
        return None
    pushed = substitute(filter_node.predicate, mapping)
    return ProjectNode(
        source=FilterNode(source=project.source, predicate=pushed),
        assignments=project.assignments,
    )


def _through_join(filter_node: FilterNode, join: JoinNode) -> Optional[PlanNode]:
    left_names = {v.name for v in join.left.outputs}
    right_names = {v.name for v in join.right.outputs}
    push_left: list = []
    push_right: list = []
    keep: list = []
    for conjunct in conjuncts(filter_node.predicate):
        names = {v.name for v in conjunct.variables()}
        if names and names <= left_names:
            push_left.append(conjunct)
        elif names and names <= right_names and join.join_type in ("inner", "cross"):
            # Pushing below the null-producing side of an outer join would
            # change semantics, so only inner/cross joins push right.
            push_right.append(conjunct)
        else:
            keep.append(conjunct)
    if not push_left and not push_right:
        return None
    new_left = join.left
    new_right = join.right
    if push_left:
        new_left = FilterNode(source=new_left, predicate=combine_conjuncts(push_left))
    if push_right:
        new_right = FilterNode(source=new_right, predicate=combine_conjuncts(push_right))
    new_join = join.replace_sources([new_left, new_right])
    remaining = combine_conjuncts(keep)
    if remaining is None:
        return new_join
    return FilterNode(source=new_join, predicate=remaining)


def _into_scan(
    filter_node: FilterNode, scan: TableScanNode, ctx
) -> Optional[PlanNode]:
    connector = ctx.catalog.connector(scan.catalog)
    variable_to_column = scan.assignments_dict()
    scan_variables = {v.name: v for v in scan.output_variables}
    if not all(v.name in variable_to_column for v in filter_node.predicate.variables()):
        return None

    # Rewrite the predicate in terms of connector column names so the
    # pushed expression is meaningful on the connector's side.
    to_columns = {
        name: VariableReferenceExpression(column, scan_variables[name].type)
        for name, column in variable_to_column.items()
    }
    offered = substitute(filter_node.predicate, to_columns)
    result = connector.apply_filter(scan.handle, offered)
    if result is None:
        return None
    if result.remaining_expression is not None and result.remaining_expression == offered.to_dict():
        return None  # connector absorbed nothing; avoid rewrite loops

    new_scan = TableScanNode(
        catalog=scan.catalog,
        handle=result.handle,
        assignments=scan.assignments,
        output_variables=scan.output_variables,
    )
    if result.remaining_expression is None:
        return new_scan
    remaining = expression_from_dict(result.remaining_expression)
    to_variables = {
        column: VariableReferenceExpression(name, scan_variables[name].type)
        for name, column in variable_to_column.items()
    }
    return FilterNode(source=new_scan, predicate=substitute(remaining, to_variables))
