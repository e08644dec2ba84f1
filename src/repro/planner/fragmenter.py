"""Plan fragmentation: dividing a plan into distributed stages.

Section III: "The fragmenter divides the plan into fragments.  Each
running plan fragment is called a stage, which could be executed in
parallel.  Stage consists of tasks, which are processing one or many
splits of input data."

The fragmenter inserts exchange boundaries where data must move between
machines and groups the operators between boundaries into
:class:`PlanFragment` objects:

- below each aggregation over distributed input: a *partial* fragment per
  split side and a REPARTITION exchange on the grouping keys;
- at each join: the build side ends in a REPARTITION (partitioned
  distribution) or REPLICATE (broadcast) exchange;
- below each LIMIT over distributed input: a partial per-task limit, with
  the final limit applied after the gather; below each ORDER BY ... LIMIT
  (TopN) likewise a partial per-task TopN, the final one after the gather;
- each UNION ALL branch becomes its own fragment, gathered in order;
- at the top: a GATHER exchange into the single-node output fragment.

Fragments are *executable*: :class:`RemoteSourceNode` leaves are wired to
:class:`Exchange` edges that :class:`repro.execution.scheduler.QueryScheduler`
resolves against in-memory exchange buffers, so the fragmented plan is the
engine's actual execution path (``PrestoEngine.execute``).  The fragments
also drive the distributed EXPLAIN, ``EXPLAIN ANALYZE``, the cluster
simulation's task accounting, and the federation benchmarks.

Aggregation splitting follows the partial/final protocol: the fragment
below the exchange runs with ``step=PARTIAL`` and emits accumulator
*states* (not finalized values), typed like Presto's intermediate types
(avg's is ``row(sum double, count bigint)``); the fragment above merges
them with ``step=FINAL``.  Only aggregations of ``SPLIT_AGGREGATES`` (count,
sum, min, max, avg) are split.  DISTINCT, approx_distinct, array_agg and
plugin aggregates, and aggregations that are already in merge mode
(``step=FINAL`` after connector aggregation pushdown) are not — their raw
input is repartitioned on the grouping keys (or gathered, for global
aggregates) and the node runs once beyond the exchange, which is
equivalent because every row of a group lands in the same partition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.expressions import VariableReferenceExpression
from repro.core.functions import SPLIT_AGGREGATES, intermediate_type
from repro.planner.plan import (
    Aggregation,
    AggregationNode,
    AggregationStep,
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


class ExchangeKind:
    GATHER = "GATHER"  # all data to one node
    REPARTITION = "REPARTITION"  # hash-partition on keys
    REPLICATE = "REPLICATE"  # broadcast to every node


@dataclass(frozen=True)
class Exchange:
    """A data movement edge between two fragments.

    ``partitioned`` marks exchanges whose consumer runs one task per hash
    partition (the final side of a split aggregation): the producer
    partitions its output on ``partition_keys`` and consumer task *i*
    reads only partition *i*.  A REPARTITION exchange without the flag
    (a join build side) records where the data would be placed in a real
    cluster, but every consumer task reads it in full — the in-process
    hash join needs the whole build table per probe task.
    """

    kind: str
    source_fragment: int
    partition_keys: tuple[str, ...] = ()
    partitioned: bool = False


@dataclass
class PlanFragment:
    """One stage: a connected operator subtree executed by parallel tasks."""

    fragment_id: int
    root: PlanNode
    # Exchanges feeding this fragment, in source order.
    inputs: list[Exchange] = field(default_factory=list)
    # Distribution: 'source' (driven by connector splits), 'hash'
    # (repartitioned intermediate), or 'single' (coordinator-side).
    distribution: str = "source"

    def describe(self) -> str:
        lines = [f"Fragment {self.fragment_id} [{self.distribution}]"]
        for exchange in self.inputs:
            keys = f" keys={list(exchange.partition_keys)}" if exchange.partition_keys else ""
            lines.append(
                f"  input: {exchange.kind} from fragment {exchange.source_fragment}{keys}"
            )
        lines.extend("  " + line for line in self.root.pretty().splitlines())
        return "\n".join(lines)


@dataclass
class FragmentedPlan:
    # In execution order: producers before consumers, the output fragment last.
    fragments: list[PlanFragment]

    def fragment_by_id(self, fragment_id: int) -> PlanFragment:
        for fragment in self.fragments:
            if fragment.fragment_id == fragment_id:
                return fragment
        raise KeyError(f"no fragment {fragment_id}")

    def describe(self) -> str:
        return "\n\n".join(f.describe() for f in reversed(self.fragments))


@dataclass(frozen=True)
class RemoteSourceNode(PlanNode):
    """Placeholder leaf standing for an exchange input inside a fragment."""

    exchange: Exchange
    output_variables: tuple = ()
    id: str = field(default_factory=lambda: f"remote_{next(_remote_ids)}")

    @property
    def outputs(self):
        return self.output_variables

    def sources(self):
        return ()

    def replace_sources(self, new_sources):
        assert not new_sources
        return self

    def describe(self) -> str:
        keys = (
            f" keys={list(self.exchange.partition_keys)}"
            if self.exchange.partition_keys
            else ""
        )
        return (
            f"RemoteSource[{self.exchange.kind} <- fragment "
            f"{self.exchange.source_fragment}]{keys}"
        )


_remote_ids = itertools.count()


class Fragmenter:
    """Splits an optimized plan into distributed fragments."""

    def fragment(self, plan: OutputNode) -> FragmentedPlan:
        self._fragments: list[PlanFragment] = []
        body = plan.source
        root_body, inputs, distribution = self._visit(body)
        final_inputs = list(inputs)
        if distribution != "single":
            # Results gather onto the coordinator for output.
            source_fragment = self._add_fragment(root_body, final_inputs, distribution)
            gather = Exchange(ExchangeKind.GATHER, source_fragment.fragment_id)
            root_body = RemoteSourceNode(gather, root_body.outputs)
            final_inputs = [gather]
        output = OutputNode(source=root_body, column_names=plan.column_names)
        self._add_fragment(output, final_inputs, "single")
        return FragmentedPlan(self._fragments)

    def _add_fragment(
        self, root: PlanNode, inputs: list[Exchange], distribution: str
    ) -> PlanFragment:
        fragment = PlanFragment(len(self._fragments), root, inputs, distribution)
        self._fragments.append(fragment)
        return fragment

    def _visit(self, node: PlanNode) -> tuple[PlanNode, list[Exchange], str]:
        """Returns (node within current fragment, exchange inputs, distribution)."""
        if isinstance(node, (TableScanNode, ValuesNode)):
            return node, [], "source"

        if isinstance(node, (FilterNode, ProjectNode)):
            child, inputs, distribution = self._visit(node.source)
            return node.replace_sources([child]), inputs, distribution

        if isinstance(node, LimitNode):
            child, inputs, distribution = self._visit(node.source)
            if distribution == "single":
                return node.replace_sources([child]), inputs, "single"
            # Partial limit caps each task's output; the true limit is
            # applied once after the gather (a per-task limit alone would
            # return up to count × tasks rows).
            partial = replace(node, source=child, partial=True)
            source_fragment = self._add_fragment(partial, inputs, distribution)
            exchange = Exchange(ExchangeKind.GATHER, source_fragment.fragment_id)
            remote = RemoteSourceNode(exchange, partial.outputs)
            return replace(node, source=remote, partial=False), [exchange], "single"

        if isinstance(node, AggregationNode):
            child, inputs, distribution = self._visit(node.source)
            if distribution == "single":
                return node.replace_sources([child]), inputs, "single"
            keys = tuple(k.name for k in node.group_keys)
            splittable = node.step == AggregationStep.SINGLE and all(
                not a.distinct and a.function_handle.name in SPLIT_AGGREGATES
                for a in node.aggregations
            )
            if splittable:
                # Partial aggregation (emitting states of their intermediate
                # types) runs in the child's fragment; the final aggregation
                # merges states after a repartition on the grouping keys.
                partial_aggregations = tuple(
                    replace(
                        a,
                        output=VariableReferenceExpression(
                            a.output.name, intermediate_type(a.function_handle)
                        ),
                    )
                    for a in node.aggregations
                )
                below = replace(
                    node.replace_sources([child]),
                    aggregations=partial_aggregations,
                    step=AggregationStep.PARTIAL,
                )
                remote_outputs = below.outputs
            else:
                # DISTINCT, set- or list-state or already-FINAL (pushdown
                # merge) aggregations run once beyond the exchange over
                # their raw input: the repartition on grouping keys keeps
                # them correct because a group never straddles partitions.
                below = child
                remote_outputs = child.outputs
            source_fragment = self._add_fragment(below, inputs, distribution)
            kind = ExchangeKind.REPARTITION if keys else ExchangeKind.GATHER
            exchange = Exchange(
                kind, source_fragment.fragment_id, keys, partitioned=bool(keys)
            )
            remote = RemoteSourceNode(exchange, remote_outputs)
            if splittable:
                # The FINAL aggregation merges the partial state columns,
                # referencing them by the output variable names the PARTIAL
                # step emitted (same shape as the pushdown merge of
                # figure 2).
                final_aggregations = tuple(
                    Aggregation(
                        output=a.output,
                        function_handle=a.function_handle,
                        arguments=(p.output,),
                    )
                    for a, p in zip(node.aggregations, partial_aggregations)
                )
                beyond: PlanNode = AggregationNode(
                    source=remote,
                    group_keys=node.group_keys,
                    aggregations=final_aggregations,
                    step=AggregationStep.FINAL,
                )
            else:
                beyond = node.replace_sources([remote])
            return beyond, [exchange], "hash" if keys else "single"

        if isinstance(node, (JoinNode, SpatialJoinNode)):
            left, left_inputs, left_distribution = self._visit(node.sources()[0])
            right, right_inputs, _ = self._visit(node.sources()[1])
            # The build side always crosses an exchange to reach the probe
            # side's tasks: replicate for broadcast, repartition otherwise.
            build_fragment = self._add_fragment(right, right_inputs, "source")
            broadcast = (
                isinstance(node, SpatialJoinNode)
                or getattr(node, "distribution", "partitioned") == "broadcast"
            )
            if broadcast:
                exchange = Exchange(ExchangeKind.REPLICATE, build_fragment.fragment_id)
            else:
                keys = tuple(r.name for _, r in node.criteria) if isinstance(node, JoinNode) else ()
                exchange = Exchange(
                    ExchangeKind.REPARTITION, build_fragment.fragment_id, keys
                )
            remote = RemoteSourceNode(exchange, node.sources()[1].outputs)
            rebuilt = node.replace_sources([left, remote])
            return rebuilt, left_inputs + [exchange], left_distribution

        if isinstance(node, (SortNode, TopNNode)):
            child, inputs, distribution = self._visit(node.source)
            if distribution == "single":
                return node.replace_sources([child]), inputs, "single"
            # Global ordering requires gathering to one node.  A TopN first
            # cuts each task's rows to its own top ``count``: the final one
            # then orders at most tasks x count rows, not the whole input.
            if isinstance(node, TopNNode):
                child = replace(node, source=child, partial=True)
            source_fragment = self._add_fragment(child, inputs, distribution)
            exchange = Exchange(ExchangeKind.GATHER, source_fragment.fragment_id)
            remote = RemoteSourceNode(exchange, child.outputs)
            return node.replace_sources([remote]), [exchange], "single"

        if isinstance(node, UnionNode):
            # Each UNION ALL branch runs as its own fragment; the union
            # itself concatenates the gathered branch outputs in order.
            exchanges: list[Exchange] = []
            remotes: list[PlanNode] = []
            for branch in node.union_sources:
                child, inputs, distribution = self._visit(branch)
                branch_fragment = self._add_fragment(child, inputs, distribution)
                exchange = Exchange(ExchangeKind.GATHER, branch_fragment.fragment_id)
                exchanges.append(exchange)
                remotes.append(RemoteSourceNode(exchange, child.outputs))
            return node.replace_sources(remotes), exchanges, "single"

        if isinstance(node, RemoteSourceNode):
            return node, [node.exchange], "hash"

        # Unknown node kinds stay in the current fragment.
        children = [self._visit(s) for s in node.sources()]
        inputs = [e for _, es, _ in children for e in es]
        rebuilt = node.replace_sources([c for c, _, _ in children])
        return rebuilt, inputs, "source"
