"""Column pruning, including nested column pruning (section V.D).

A top-down pass computes which output variables each node must produce,
drops dead projections/aggregates/scan columns, and — the nested part —
tracks *access paths*: when a struct column is only ever read through
field dereferences (``base.city_id``), the scan's projection pushdown
carries dotted subfield paths so a Parquet-backed connector reads only the
required leaf columns from disk ("read only required columns in Parquet").
"""

from __future__ import annotations

from typing import Optional

from repro.core.expressions import (
    ConstantExpression,
    RowExpression,
    SpecialForm,
    SpecialFormExpression,
    VariableReferenceExpression,
)
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

# Sentinel path meaning "the whole value is needed".
BARE = "*"


def collect_access_paths(plan: PlanNode) -> dict[str, set[str]]:
    """For every variable, the set of access paths used anywhere in the plan.

    A path is either :data:`BARE` (whole value used) or a dotted field path
    like ``base.city_id``.  A projection assignment that merely forwards a
    variable (``out := in``) is not itself a use: ``in`` inherits whatever
    access paths ``out`` has downstream.
    """
    paths: dict[str, set[str]] = {}
    # Forwarding edges (out name → in name) from identity assignments.
    forwards: list[tuple[str, str]] = []

    for node in plan.walk():
        if isinstance(node, ProjectNode):
            for variable, expression in node.assignments:
                if isinstance(expression, VariableReferenceExpression):
                    forwards.append((variable.name, expression.name))
                else:
                    _record_access_paths(expression, paths)
        else:
            for expression in _node_expressions(node):
                _record_access_paths(expression, paths)
        # Variables used structurally (join criteria, group keys, sort
        # keys) need their whole value: bare uses.
        for variable in _node_forwarded_variables(node):
            paths.setdefault(variable.name, set()).add(BARE)

    # Propagate downstream paths through forwarding chains to fixpoint.
    changed = True
    iterations = 0
    while changed and iterations <= len(forwards) + 1:
        changed = False
        iterations += 1
        for out_name, in_name in forwards:
            downstream = paths.get(out_name)
            if not downstream:
                continue
            current = paths.setdefault(in_name, set())
            if not downstream <= current:
                current |= downstream
                changed = True
    return paths


def _record_access_paths(expression: RowExpression, paths: dict[str, set[str]]) -> None:
    """Add the access paths ``expression`` uses to ``paths``."""
    chain = _dereference_chain(expression)
    if chain is not None:
        variable, fields = chain
        paths.setdefault(variable.name, set()).add(".".join(fields))
        return
    if isinstance(expression, VariableReferenceExpression):
        paths.setdefault(expression.name, set()).add(BARE)
        return
    for child in expression.children():
        _record_access_paths(child, paths)


def _dereference_chain(
    expression: RowExpression,
) -> Optional[tuple[VariableReferenceExpression, list[str]]]:
    """Match DEREFERENCE(...(DEREFERENCE(var, f1)...), fn) → (var, [f1..fn])."""
    fields: list[str] = []
    current = expression
    while (
        isinstance(current, SpecialFormExpression)
        and current.form is SpecialForm.DEREFERENCE
        and isinstance(current.arguments[1], ConstantExpression)
    ):
        fields.insert(0, current.arguments[1].value)
        current = current.arguments[0]
    if fields and isinstance(current, VariableReferenceExpression):
        return current, fields
    return None


def _node_expressions(node: PlanNode):
    if isinstance(node, FilterNode):
        yield node.predicate
    elif isinstance(node, ProjectNode):
        for _, expression in node.assignments:
            yield expression
    elif isinstance(node, AggregationNode):
        for aggregation in node.aggregations:
            yield from aggregation.arguments
    elif isinstance(node, JoinNode):
        if node.filter is not None:
            yield node.filter
    elif isinstance(node, SpatialJoinNode):
        yield node.point_expression


def _node_forwarded_variables(node: PlanNode):
    if isinstance(node, OutputNode):
        # The user receives these values whole.
        yield from node.source.outputs[: len(node.column_names)]
    elif isinstance(node, AggregationNode):
        yield from node.group_keys
    elif isinstance(node, JoinNode):
        for left, right in node.criteria:
            yield left
            yield right
    elif isinstance(node, SpatialJoinNode):
        yield node.polygon_variable
    elif isinstance(node, (SortNode, TopNNode)):
        for variable, _ in node.order_by:
            yield variable


def collapse_paths(paths: set[str]) -> set[str]:
    """Remove paths subsumed by a shorter prefix (or by BARE)."""
    if BARE in paths:
        return {BARE}
    result: set[str] = set()
    for path in sorted(paths, key=lambda p: p.count(".")):
        segments = path.split(".")
        prefixes = {".".join(segments[:i]) for i in range(1, len(segments))}
        if not (prefixes & result):
            result.add(path)
    return result


def prune_columns(plan: PlanNode, ctx) -> PlanNode:
    """Drop unused columns and push (possibly nested) projections to scans."""
    return _prune(plan, {v.name for v in plan.outputs}, collect_access_paths(plan), ctx)


def _prune(
    node: PlanNode, required: set[str], access_paths: dict[str, set[str]], ctx
) -> PlanNode:
    # A module function rather than a closure: a recursive closure is a
    # reference cycle, and this one would keep ``ctx`` (and through it the
    # catalog's connectors) alive until the cyclic collector runs.
    if isinstance(node, OutputNode):
        needed = {v.name for v in node.source.outputs[: len(node.column_names)]}
        # Hidden sort columns (beyond the visible ones) stay required.
        needed |= {v.name for v in node.source.outputs}
        return node.replace_sources([_prune(node.source, needed, access_paths, ctx)])

    if isinstance(node, ProjectNode):
        kept = [
            (variable, expression)
            for variable, expression in node.assignments
            if variable.name in required
        ]
        needed = set()
        for _, expression in kept:
            needed |= {v.name for v in expression.variables()}
        return ProjectNode(
            source=_prune(node.source, needed, access_paths, ctx), assignments=tuple(kept)
        )

    if isinstance(node, FilterNode):
        needed = set(required) | {v.name for v in node.predicate.variables()}
        return node.replace_sources([_prune(node.source, needed, access_paths, ctx)])

    if isinstance(node, AggregationNode):
        kept_aggs = tuple(
            a for a in node.aggregations if a.output.name in required
        )
        needed = {k.name for k in node.group_keys}
        for aggregation in kept_aggs:
            for argument in aggregation.arguments:
                needed |= {v.name for v in argument.variables()}
        new_node = AggregationNode(
            source=_prune(node.source, needed, access_paths, ctx),
            group_keys=node.group_keys,
            aggregations=kept_aggs,
            step=node.step,
        )
        return new_node

    if isinstance(node, JoinNode):
        needed = set(required)
        for left, right in node.criteria:
            needed.add(left.name)
            needed.add(right.name)
        if node.filter is not None:
            needed |= {v.name for v in node.filter.variables()}
        left_required = {v.name for v in node.left.outputs if v.name in needed}
        right_required = {v.name for v in node.right.outputs if v.name in needed}
        return node.replace_sources(
            [
                _prune(node.left, left_required, access_paths, ctx),
                _prune(node.right, right_required, access_paths, ctx),
            ]
        )

    if isinstance(node, SpatialJoinNode):
        needed = set(required)
        needed |= {v.name for v in node.point_expression.variables()}
        needed.add(node.polygon_variable.name)
        left_required = {v.name for v in node.left.outputs if v.name in needed}
        right_required = {v.name for v in node.right.outputs if v.name in needed}
        return node.replace_sources(
            [
                _prune(node.left, left_required, access_paths, ctx),
                _prune(node.right, right_required, access_paths, ctx),
            ]
        )

    if isinstance(node, (SortNode, TopNNode)):
        needed = set(required) | {v.name for v, _ in node.order_by}
        return node.replace_sources([_prune(node.source, needed, access_paths, ctx)])

    if isinstance(node, LimitNode):
        return node.replace_sources([_prune(node.source, set(required), access_paths, ctx)])

    if isinstance(node, UnionNode):
        kept = [v for v in node.output_variables if v.name in required]
        if not kept:
            kept = [node.output_variables[0]]
        kept_names = {v.name for v in kept}
        return UnionNode(
            union_sources=tuple(
                _prune(source, set(kept_names), access_paths, ctx)
                for source in node.union_sources
            ),
            output_variables=tuple(kept),
        )

    if isinstance(node, TableScanNode):
        return _prune_scan(node, required, access_paths, ctx)

    if isinstance(node, ValuesNode):
        return node

    return node.replace_sources(
        [_prune(source, set(required), access_paths, ctx) for source in node.sources()]
    )


def _prune_scan(
    scan: TableScanNode, required: set[str], access_paths: dict[str, set[str]], ctx
) -> TableScanNode:
    kept = [
        (name, column) for name, column in scan.assignments if name in required
    ]
    if not kept:
        # Something (e.g. count(*)) still needs row counts: keep one column.
        kept = [scan.assignments[0]]
    kept_names = {name for name, _ in kept}
    new_outputs = tuple(v for v in scan.output_variables if v.name in kept_names)

    # Build the (possibly nested) projection column list.
    projected: list[str] = []
    for name, column in kept:
        paths = collapse_paths(access_paths.get(name, {BARE}))
        if BARE in paths:
            projected.append(column)
        else:
            projected.extend(f"{column}.{path}" for path in sorted(paths))

    connector = ctx.catalog.connector(scan.catalog)
    handle = connector.apply_projection(scan.handle, projected)
    if handle is None:
        handle = scan.handle
    return TableScanNode(
        catalog=scan.catalog,
        handle=handle,
        assignments=tuple(kept),
        output_variables=new_outputs,
    )
