"""Logical/physical plan nodes.

Nodes form an immutable tree; the optimizer rewrites by constructing new
nodes.  Every node exposes ``outputs`` — the ordered list of
:class:`VariableReferenceExpression` it produces — which is the engine's
equivalent of a relation schema.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.connectors.spi import ConnectorTableHandle
from repro.core.expressions import (
    RowExpression,
    VariableReferenceExpression,
)
from repro.core.functions import FunctionHandle

_plan_ids = itertools.count()


def next_plan_id() -> str:
    return f"plan_{next(_plan_ids)}"


class PlanNode:
    """Base class for plan nodes."""

    id: str

    @property
    def outputs(self) -> tuple[VariableReferenceExpression, ...]:
        raise NotImplementedError

    def sources(self) -> tuple["PlanNode", ...]:
        raise NotImplementedError

    def replace_sources(self, new_sources: Sequence["PlanNode"]) -> "PlanNode":
        raise NotImplementedError

    def walk(self):
        """Yield self and all descendants, pre-order."""
        yield self
        for source in self.sources():
            yield from source.walk()

    def pretty(self, indent: int = 0, annotate=None) -> str:
        """Human-readable plan tree, like EXPLAIN output.

        ``annotate`` optionally maps a node to a suffix string (EXPLAIN
        uses it for estimated row counts); None/empty suffixes are omitted
        so default rendering is unchanged.
        """
        line = "  " * indent + self.describe()
        if annotate is not None:
            suffix = annotate(self)
            if suffix:
                line += " " + suffix
        children = [s.pretty(indent + 1, annotate) for s in self.sources()]
        return "\n".join([line] + children)

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class TableScanNode(PlanNode):
    """Scan of a connector table.

    ``assignments`` maps each output variable name to the connector column
    it reads — possibly a dotted subfield path like ``base.city_id`` after
    nested column pruning.
    """

    catalog: str
    handle: ConnectorTableHandle
    assignments: tuple[tuple[str, str], ...]  # (variable name, column name)
    output_variables: tuple[VariableReferenceExpression, ...]
    id: str = field(default_factory=next_plan_id)

    @property
    def outputs(self) -> tuple[VariableReferenceExpression, ...]:
        return self.output_variables

    def sources(self) -> tuple[PlanNode, ...]:
        return ()

    def replace_sources(self, new_sources: Sequence[PlanNode]) -> "TableScanNode":
        assert not new_sources
        return self

    def assignments_dict(self) -> dict[str, str]:
        return dict(self.assignments)

    def describe(self) -> str:
        handle = self.handle
        columns = ", ".join(c for _, c in self.assignments)
        extras = []
        if handle.constraint is not None:
            extras.append("pushed-filter")
        if handle.limit is not None:
            extras.append(f"pushed-limit={handle.limit}")
        if handle.aggregation is not None:
            extras.append("pushed-aggregation")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        return (
            f"TableScan[{self.catalog}.{handle.schema_name}.{handle.table_name}]"
            f"({columns}){suffix}"
        )


@dataclass(frozen=True)
class ValuesNode(PlanNode):
    """Inline literal rows (used for queries without FROM)."""

    output_variables: tuple[VariableReferenceExpression, ...]
    rows: tuple[tuple, ...]
    id: str = field(default_factory=next_plan_id)

    @property
    def outputs(self) -> tuple[VariableReferenceExpression, ...]:
        return self.output_variables

    def sources(self) -> tuple[PlanNode, ...]:
        return ()

    def replace_sources(self, new_sources: Sequence[PlanNode]) -> "ValuesNode":
        assert not new_sources
        return self


@dataclass(frozen=True)
class FilterNode(PlanNode):
    source: PlanNode
    predicate: RowExpression
    id: str = field(default_factory=next_plan_id)

    @property
    def outputs(self) -> tuple[VariableReferenceExpression, ...]:
        return self.source.outputs

    def sources(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def replace_sources(self, new_sources: Sequence[PlanNode]) -> "FilterNode":
        return replace(self, source=new_sources[0])

    def describe(self) -> str:
        return f"Filter[{self.predicate.display()}]"


@dataclass(frozen=True)
class ProjectNode(PlanNode):
    """Computes each output variable from an expression over the source."""

    source: PlanNode
    assignments: tuple[tuple[VariableReferenceExpression, RowExpression], ...]
    id: str = field(default_factory=next_plan_id)

    @property
    def outputs(self) -> tuple[VariableReferenceExpression, ...]:
        return tuple(v for v, _ in self.assignments)

    def sources(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def replace_sources(self, new_sources: Sequence[PlanNode]) -> "ProjectNode":
        return replace(self, source=new_sources[0])

    def assignments_dict(self) -> dict[str, RowExpression]:
        return {v.name: e for v, e in self.assignments}

    def is_identity(self) -> bool:
        """True when this projection merely forwards source outputs 1:1."""
        source_names = [v.name for v in self.source.outputs]
        ours = [
            (v.name, e.name if isinstance(e, VariableReferenceExpression) else None)
            for v, e in self.assignments
        ]
        return all(out == src for out, src in ours) and [o for o, _ in ours] == source_names

    def describe(self) -> str:
        parts = ", ".join(f"{v.name} := {e.display()}" for v, e in self.assignments)
        return f"Project[{parts}]"


@dataclass(frozen=True)
class Aggregation:
    """One aggregate computation inside an AggregationNode."""

    output: VariableReferenceExpression
    function_handle: FunctionHandle
    arguments: tuple[RowExpression, ...]
    distinct: bool = False


class AggregationStep:
    SINGLE = "SINGLE"
    PARTIAL = "PARTIAL"
    FINAL = "FINAL"


@dataclass(frozen=True)
class AggregationNode(PlanNode):
    source: PlanNode
    group_keys: tuple[VariableReferenceExpression, ...]
    aggregations: tuple[Aggregation, ...]
    step: str = AggregationStep.SINGLE
    id: str = field(default_factory=next_plan_id)

    @property
    def outputs(self) -> tuple[VariableReferenceExpression, ...]:
        return self.group_keys + tuple(a.output for a in self.aggregations)

    def sources(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def replace_sources(self, new_sources: Sequence[PlanNode]) -> "AggregationNode":
        return replace(self, source=new_sources[0])

    def describe(self) -> str:
        keys = ", ".join(k.name for k in self.group_keys)
        aggs = ", ".join(
            f"{a.output.name} := {a.function_handle.name}(...)" for a in self.aggregations
        )
        return f"Aggregation[{self.step}](keys=[{keys}], {aggs})"


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """Hash join; ``criteria`` are equi-join variable pairs, ``filter`` any
    extra non-equi condition evaluated on joined rows."""

    join_type: str  # 'inner', 'left', 'right', 'cross'
    left: PlanNode
    right: PlanNode
    criteria: tuple[tuple[VariableReferenceExpression, VariableReferenceExpression], ...]
    filter: Optional[RowExpression] = None
    # 'broadcast' replicates the build side to every node; 'partitioned'
    # hashes both sides (section XII.A: distributed hash join is the
    # production default, broadcast enabled per-session for small builds).
    distribution: str = "partitioned"
    id: str = field(default_factory=next_plan_id)

    @property
    def outputs(self) -> tuple[VariableReferenceExpression, ...]:
        return self.left.outputs + self.right.outputs

    def sources(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def replace_sources(self, new_sources: Sequence[PlanNode]) -> "JoinNode":
        return replace(self, left=new_sources[0], right=new_sources[1])

    def describe(self) -> str:
        criteria = " AND ".join(f"{l.name} = {r.name}" for l, r in self.criteria)
        extra = f" filter=[{self.filter.display()}]" if self.filter is not None else ""
        return f"Join[{self.join_type}, {self.distribution}]({criteria}){extra}"


@dataclass(frozen=True)
class SpatialJoinNode(PlanNode):
    """Geospatial join: probe points against indexed polygons.

    Produced by the geo rewrite rule (figure 13): the brute-force
    ``st_contains`` cross join becomes build_geo_index (a QuadTree built on
    the fly over the polygon side) plus geo_contains probes.
    ``use_index=False`` keeps the brute-force path for comparison.
    """

    left: PlanNode  # probe side (points)
    right: PlanNode  # build side (polygons)
    point_expression: RowExpression  # over left outputs, yields geometry
    polygon_variable: VariableReferenceExpression  # over right outputs
    use_index: bool = True
    id: str = field(default_factory=next_plan_id)

    @property
    def outputs(self) -> tuple[VariableReferenceExpression, ...]:
        return self.left.outputs + self.right.outputs

    def sources(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def replace_sources(self, new_sources: Sequence[PlanNode]) -> "SpatialJoinNode":
        return replace(self, left=new_sources[0], right=new_sources[1])

    def describe(self) -> str:
        mode = "quadtree" if self.use_index else "brute-force"
        return f"SpatialJoin[{mode}](point={self.point_expression.display()}, polygon={self.polygon_variable.name})"


@dataclass(frozen=True)
class LimitNode(PlanNode):
    source: PlanNode
    count: int
    partial: bool = False
    id: str = field(default_factory=next_plan_id)

    @property
    def outputs(self) -> tuple[VariableReferenceExpression, ...]:
        return self.source.outputs

    def sources(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def replace_sources(self, new_sources: Sequence[PlanNode]) -> "LimitNode":
        return replace(self, source=new_sources[0])

    def describe(self) -> str:
        return f"Limit[{self.count}{', partial' if self.partial else ''}]"


@dataclass(frozen=True)
class SortNode(PlanNode):
    source: PlanNode
    order_by: tuple[tuple[VariableReferenceExpression, bool], ...]  # (var, ascending)
    id: str = field(default_factory=next_plan_id)

    @property
    def outputs(self) -> tuple[VariableReferenceExpression, ...]:
        return self.source.outputs

    def sources(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def replace_sources(self, new_sources: Sequence[PlanNode]) -> "SortNode":
        return replace(self, source=new_sources[0])

    def describe(self) -> str:
        keys = ", ".join(f"{v.name} {'ASC' if asc else 'DESC'}" for v, asc in self.order_by)
        return f"Sort[{keys}]"


@dataclass(frozen=True)
class TopNNode(PlanNode):
    source: PlanNode
    count: int
    order_by: tuple[tuple[VariableReferenceExpression, bool], ...]
    partial: bool = False
    id: str = field(default_factory=next_plan_id)

    @property
    def outputs(self) -> tuple[VariableReferenceExpression, ...]:
        return self.source.outputs

    def sources(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def replace_sources(self, new_sources: Sequence[PlanNode]) -> "TopNNode":
        return replace(self, source=new_sources[0])

    def describe(self) -> str:
        keys = ", ".join(f"{v.name} {'ASC' if asc else 'DESC'}" for v, asc in self.order_by)
        return f"TopN[{self.count}{', partial' if self.partial else ''}, {keys}]"


@dataclass(frozen=True)
class UnionNode(PlanNode):
    """UNION ALL: concatenates sources.

    Every source is projected (by the analyzer) onto the same output
    variables, so pages flow through positionally.
    """

    union_sources: tuple[PlanNode, ...]
    output_variables: tuple[VariableReferenceExpression, ...]
    id: str = field(default_factory=next_plan_id)

    @property
    def outputs(self) -> tuple[VariableReferenceExpression, ...]:
        return self.output_variables

    def sources(self) -> tuple[PlanNode, ...]:
        return self.union_sources

    def replace_sources(self, new_sources: Sequence[PlanNode]) -> "UnionNode":
        return replace(self, union_sources=tuple(new_sources))

    def describe(self) -> str:
        return f"Union[{len(self.union_sources)} branches]"


@dataclass(frozen=True)
class OutputNode(PlanNode):
    """Final node naming the user-visible result columns."""

    source: PlanNode
    column_names: tuple[str, ...]
    id: str = field(default_factory=next_plan_id)

    @property
    def outputs(self) -> tuple[VariableReferenceExpression, ...]:
        return self.source.outputs

    def sources(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def replace_sources(self, new_sources: Sequence[PlanNode]) -> "OutputNode":
        return replace(self, source=new_sources[0])

    def describe(self) -> str:
        return f"Output[{', '.join(self.column_names)}]"


def rewrite_plan(node: PlanNode, rewriter: Callable[[PlanNode], Optional[PlanNode]]) -> PlanNode:
    """Bottom-up rewrite: children first, then offer the node to ``rewriter``.

    ``rewriter`` returns a replacement node or ``None`` to keep the input.
    """
    new_sources = [rewrite_plan(s, rewriter) for s in node.sources()]
    if list(node.sources()) != new_sources:
        node = node.replace_sources(new_sources)
    replacement = rewriter(node)
    return node if replacement is None else replacement
