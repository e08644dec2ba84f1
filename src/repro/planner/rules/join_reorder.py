"""Cost-based join ordering and broadcast-vs-partitioned selection.

The paper's production optimizer is rule-based ("ignoring statistics",
section XII.A) because metastore statistics could not be kept fresh at
Uber's write rates.  This rule reproduces the *adaptive* counterpoint:
when ``ANALYZE TABLE`` statistics exist for every relation in an inner
equi-join chain, reorder it greedily so the largest relation streams as
the probe side and each successive build side is the one producing the
smallest intermediate result.  Without statistics the rule deliberately
does nothing — the plan stays exactly what the rule-free pipeline built,
which keeps every existing query byte-identical unless someone ran
ANALYZE first.

The executor builds the hash table from the **right** child of a
JoinNode (the fragmenter schedules the right subtree before the probe
stage), so "smallest-build-first" means a left-deep tree whose right
children are the small relations.

Distribution selection: joins planned with ``join_distribution_type =
'automatic'`` are resolved here — broadcast when the estimated build side
is under ``broadcast_join_threshold_rows``, partitioned otherwise (and
always partitioned when statistics are missing, matching the paper's
conservative default).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.expressions import VariableReferenceExpression
from repro.planner.cost import CostEstimator, join_key_ndv
from repro.planner.plan import JoinNode, PlanNode, ProjectNode, rewrite_plan

# Build sides estimated under this many rows broadcast by default; the
# session property ``broadcast_join_threshold_rows`` overrides it.
DEFAULT_BROADCAST_THRESHOLD_ROWS = 100_000

# Joins where replicating the build side to every probe task is safe:
# unmatched build rows are never emitted, so duplication across tasks
# cannot surface.  right/full joins must stay partitioned.
_BROADCAST_SAFE_JOIN_TYPES = ("inner", "left")


def reorder_joins(plan: PlanNode, _ctx, estimator: CostEstimator) -> PlanNode:
    """Greedy smallest-build-first reordering of inner equi-join chains.

    Visits top-down so a whole chain is flattened and reordered at its
    root; a bottom-up rewrite would wrap nested joins in restoring
    projections that block the parent from flattening through them.
    """
    # A module function rather than a recursive closure, which would be a
    # reference cycle holding the estimator (and through it the catalog).
    return _reorder_top_down(plan, estimator)


def _reorder_top_down(node: PlanNode, estimator: CostEstimator) -> PlanNode:
    if isinstance(node, JoinNode) and _is_reorderable(node):
        leaves = [_reorder_top_down(leaf, estimator) for leaf in _flatten(node)]
        reordered = _reorder(node, leaves, estimator)
        if reordered is not None and [l.id for l in _flatten(reordered)] != [
            l.id for l in leaves
        ]:
            # JoinNode outputs are left.outputs + right.outputs, so
            # reordering permutes columns; restore the original order.
            return ProjectNode(
                source=reordered,
                assignments=tuple((v, v) for v in node.outputs),
            )
        return _rebuild(node, iter(leaves))
    new_sources = [_reorder_top_down(s, estimator) for s in node.sources()]
    if list(node.sources()) != new_sources:
        return node.replace_sources(new_sources)
    return node


def _rebuild(node: PlanNode, leaf_iter) -> PlanNode:
    """Splice (possibly rewritten) leaves back into an unreordered chain."""
    if isinstance(node, JoinNode) and _is_reorderable(node):
        left = _rebuild(node.left, leaf_iter)
        right = _rebuild(node.right, leaf_iter)
        if left is node.left and right is node.right:
            return node
        return replace(node, left=left, right=right)
    return next(leaf_iter)


def choose_join_distribution(
    plan: PlanNode, ctx, estimator: CostEstimator
) -> PlanNode:
    """Resolve ``distribution='automatic'`` on every join.

    Runs unconditionally (not gated on the CBO switch): 'automatic' is a
    planning-time placeholder the fragmenter should never see.
    """
    threshold = int(
        ctx.session.properties.get(
            "broadcast_join_threshold_rows", DEFAULT_BROADCAST_THRESHOLD_ROWS
        )
    )

    def rewriter(node: PlanNode) -> Optional[PlanNode]:
        if not isinstance(node, JoinNode) or node.distribution != "automatic":
            return None
        chosen = "partitioned"
        if node.join_type in _BROADCAST_SAFE_JOIN_TYPES:
            build = estimator.estimate(node.right)
            if build is not None and build.row_count <= threshold:
                chosen = "broadcast"
        return replace(node, distribution=chosen)

    return rewrite_plan(plan, rewriter)


# -- reordering internals -----------------------------------------------------


def _is_reorderable(node: JoinNode) -> bool:
    return node.join_type == "inner" and node.filter is None and bool(node.criteria)


def _flatten(node: PlanNode) -> list[PlanNode]:
    """Leaf relations of a maximal inner equi-join chain, left to right."""
    if isinstance(node, JoinNode) and _is_reorderable(node):
        return _flatten(node.left) + _flatten(node.right)
    return [node]


def _collect_edges(
    node: PlanNode,
) -> list[tuple[VariableReferenceExpression, VariableReferenceExpression]]:
    edges = []
    if isinstance(node, JoinNode) and _is_reorderable(node):
        edges.extend(node.criteria)
        edges.extend(_collect_edges(node.left))
        edges.extend(_collect_edges(node.right))
    return edges


def _reorder(
    root: JoinNode, leaves: list[PlanNode], estimator: CostEstimator
) -> Optional[PlanNode]:
    estimates = [estimator.estimate(leaf) for leaf in leaves]
    if any(e is None for e in estimates):
        return None  # some relation was never analyzed: keep the written order

    # Map each join variable to the leaf producing it.  Variable names are
    # unique plan-wide, so a flat name index is unambiguous.
    producer: dict[str, int] = {}
    for index, leaf in enumerate(leaves):
        for variable in leaf.outputs:
            producer[variable.name] = index
    edges = []  # (leaf_a, var_a, leaf_b, var_b)
    for left_variable, right_variable in _collect_edges(root):
        a = producer.get(left_variable.name)
        b = producer.get(right_variable.name)
        if a is None or b is None or a == b:
            return None  # criteria over derived columns: too clever to touch
        edges.append((a, left_variable, b, right_variable))

    rows = [e.row_count for e in estimates]
    base = max(range(len(leaves)), key=lambda i: rows[i])
    placed = {base}
    order = [base]
    current_rows = rows[base]
    join_plan: list[tuple[int, list, float]] = []  # (leaf, criteria, out rows)
    while len(placed) < len(leaves):
        best = None
        for candidate in range(len(leaves)):
            if candidate in placed:
                continue
            criteria = _connecting_criteria(edges, placed, candidate)
            if not criteria:
                continue  # only join along edges; never introduce a cross join
            joined = current_rows * rows[candidate]
            for probe_variable, build_variable in criteria:
                joined /= join_key_ndv(
                    estimates[producer[probe_variable.name]].column(probe_variable.name),
                    estimates[candidate].column(build_variable.name),
                    current_rows,
                    rows[candidate],
                )
            if best is None or joined < best[2] or (
                joined == best[2] and candidate < best[0]
            ):
                best = (candidate, criteria, joined)
        if best is None:
            return None  # disconnected join graph: keep the written order
        placed.add(best[0])
        order.append(best[0])
        current_rows = best[2]
        join_plan.append(best)

    result: PlanNode = leaves[base]
    for leaf_index, criteria, _ in join_plan:
        result = JoinNode(
            join_type="inner",
            left=result,
            right=leaves[leaf_index],
            criteria=tuple(criteria),
            filter=None,
            distribution=root.distribution,
        )
    return result


def _connecting_criteria(
    edges: list, placed: set[int], candidate: int
) -> list[tuple[VariableReferenceExpression, VariableReferenceExpression]]:
    """Equi-join pairs linking ``candidate`` to the placed set, oriented as
    (probe variable, build variable)."""
    criteria = []
    for leaf_a, variable_a, leaf_b, variable_b in edges:
        if leaf_a in placed and leaf_b == candidate:
            criteria.append((variable_a, variable_b))
        elif leaf_b in placed and leaf_a == candidate:
            criteria.append((variable_b, variable_a))
    return criteria
