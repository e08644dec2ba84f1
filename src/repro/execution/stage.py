"""Stage templates: what every run of one plan fragment shares.

A fragment's shape is a property of its plan (section III), so everything
the scheduler and the operators read off the plan is derived once, when a
query is prepared, and kept beside the plan in the engine's plan cache
(``PreparedQuery.stages``):

- the fragment's table scans, pre-order;
- the exchanges it feeds, each with its partition-key channels;
- its dynamic-filter targets: per probe-side join fed by a build exchange,
  the build channel, probe scan and scan column of each key, and each
  target scan's column types;
- its operators' ordinals and names, as the operator spans number them;
- each aggregation's aggregates, resolved (argument types parsed,
  implementation looked up).

A run keeps only its own state (exchange buffers, splits, lanes) in its
scheduler and contexts, so one template serves any number of runs.
"""

from __future__ import annotations

from typing import Optional

from repro.core.expressions import VariableReferenceExpression
from repro.core.functions import FunctionRegistry
from repro.core.types import PrestoType
from repro.execution.driver import operator_ordinals
from repro.execution.exchange import key_channels_for
from repro.execution.kernels import ResolvedAggregate, resolve_aggregates
from repro.planner.fragmenter import Exchange, FragmentedPlan, PlanFragment, RemoteSourceNode
from repro.planner.plan import (
    AggregationNode,
    FilterNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    TableScanNode,
)

# Join types whose probe side drops rows lacking a build-side match; only
# these may have their probe scans dynamically filtered.
_DYNAMIC_FILTER_JOIN_TYPES = ("inner", "right")


class StageTemplate:
    """One fragment's plan-derived facts; see the module docstring.

    ``outputs`` are the exchanges the fragment feeds, in the order their
    consumers list them; none for the output fragment.
    """

    def __init__(
        self, fragment: PlanFragment, outputs: list[Exchange], registry: FunctionRegistry
    ) -> None:
        root = fragment.root
        nodes = list(root.walk())
        self.fragment = fragment
        self.scans = [node for node in nodes if isinstance(node, TableScanNode)]
        # (exchange, partition-key channels or None when unpartitioned).
        self.outputs = [
            (exchange, key_channels_for(exchange, root) if exchange.partitioned else None)
            for exchange in outputs
        ]
        # Per join: (build exchange, [(build channel, probe scan, column)]).
        self.dynamic_filters: list[tuple[Exchange, list[tuple[int, TableScanNode, str]]]] = []
        # Probe scan id -> its columns' types, for the filters' expression form.
        self.column_types: dict[str, dict[str, PrestoType]] = {}
        for node in nodes:
            targets = _dynamic_filter_targets(node)
            if targets:
                self.dynamic_filters.append((node.right.exchange, targets))
                for _, scan, _ in targets:
                    self.column_types.setdefault(scan.id, _column_types(scan))
        self.operators = operator_ordinals(root)
        # AggregationNode id -> its aggregates, resolved.
        self.aggregates: dict[str, list[ResolvedAggregate]] = {
            node.id: resolve_aggregates(
                [(a.function_handle, a.distinct) for a in node.aggregations], registry
            )
            for node in nodes
            if isinstance(node, AggregationNode)
        }


def stage_templates(
    fragmented: FragmentedPlan, registry: FunctionRegistry
) -> tuple[StageTemplate, ...]:
    """One template per fragment, in the fragments' (execution) order."""
    fed = [exchange for fragment in fragmented.fragments for exchange in fragment.inputs]
    return tuple(
        StageTemplate(
            fragment,
            [e for e in fed if e.source_fragment == fragment.fragment_id],
            registry,
        )
        for fragment in fragmented.fragments
    )


def _dynamic_filter_targets(node: PlanNode) -> list[tuple[int, TableScanNode, str]]:
    """``(build channel, probe scan, scan column)`` per key of join ``node``
    a build side's values can filter; [] for any other node."""
    if (
        not isinstance(node, JoinNode)
        or node.join_type not in _DYNAMIC_FILTER_JOIN_TYPES
        or not node.criteria
        or not isinstance(node.right, RemoteSourceNode)
    ):
        return []
    build_names = [v.name for v in node.right.outputs]
    targets = []
    for left_variable, right_variable in node.criteria:
        if right_variable.name not in build_names:
            continue
        if right_variable.type.is_nested():
            continue  # an ARRAY key has no expression form
        traced = _trace_to_scan_column(node.left, left_variable.name)
        if traced is None:
            continue  # probe key is computed, or lives beyond an exchange
        scan, column = traced
        targets.append((build_names.index(right_variable.name), scan, column))
    return targets


def _column_types(scan: TableScanNode) -> dict[str, PrestoType]:
    """Connector column -> type, for the scan's output columns."""
    types_by_variable = {v.name: v.type for v in scan.output_variables}
    return {
        column: types_by_variable[variable]
        for variable, column in scan.assignments
        if variable in types_by_variable
    }


def _trace_to_scan_column(node: PlanNode, name: str) -> Optional[tuple[TableScanNode, str]]:
    """Follow probe variable ``name`` down to the scan column feeding it.

    Only forwarding edges are followed — filters, identity/renaming
    projection assignments, and join sides that carry the variable
    through unchanged.  A computed expression, an aggregation, or an
    exchange boundary ends the trace (returns None): pushing a filter
    below any of those could change which rows reach the join.
    """
    if isinstance(node, TableScanNode):
        column = node.assignments_dict().get(name)
        return None if column is None else (node, column)
    if isinstance(node, FilterNode):
        return _trace_to_scan_column(node.source, name)
    if isinstance(node, ProjectNode):
        for variable, expression in node.assignments:
            if variable.name == name:
                if isinstance(expression, VariableReferenceExpression):
                    return _trace_to_scan_column(node.source, expression.name)
                return None
        return None
    if isinstance(node, JoinNode):
        for side in node.sources():
            if any(v.name == name for v in side.outputs):
                return _trace_to_scan_column(side, name)
        return None
    return None
