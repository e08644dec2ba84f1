"""Cardinality and cost estimation over plan trees.

The estimator is deliberately simple — textbook System-R style formulas
over the ANALYZE statistics — because its only consumers make *relative*
choices (which relation builds, which side broadcasts, which join runs
first) where being directionally right matters and being precisely right
does not.  Every estimate is ``Optional``: a missing table statistic
poisons the subtree estimate to ``None`` and the consuming rule must fall
back to the stats-free behaviour.

Formulas:

- scan: ``row_count × selectivity(pushed constraint)``;
- filter: ``child × selectivity(predicate)``;
- inner equi-join: ``|L|·|R| / Π max(ndv(lk), ndv(rk))``;
- group-by: ``min(child, Π ndv(group keys))``;
- limit/topn: ``min(child, count)``.

Selectivity of a conjunct: equality ``(1-nulls)/ndv``, IN ``k/ndv``,
range comparisons interpolate the [min, max] interval for numerics, and
anything unrecognized costs the Presto-style 0.9 unknown-filter
coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.core.expressions import (
    RowExpression,
    VariableReferenceExpression,
    conjuncts,
    match_column_test,
)
from repro.metastore.statistics import ColumnStatisticsEntry
from repro.planner.plan import (
    AggregationNode,
    FilterNode,
    JoinNode,
    LimitNode,
    OutputNode,
    PlanNode,
    ProjectNode,
    SortNode,
    TableScanNode,
    TopNNode,
    UnionNode,
    ValuesNode,
)
from repro.planner.stats import StatsProvider

# A conjunct the estimator cannot interpret filters *something*; Presto
# charges this coefficient rather than assuming a no-op.
UNKNOWN_FILTER_COEFFICIENT = 0.9
# A recognized comparison over a column with no statistics.
DEFAULT_COMPARISON_SELECTIVITY = 0.25


@dataclass(frozen=True)
class PlanEstimate:
    """Estimated output of one plan node.

    ``column_stats`` carries per-output-variable statistics upward so
    join/group-by formulas can see NDVs through projections and filters;
    NDVs are not rescaled by selectivity (they stay upper bounds).
    """

    row_count: float
    column_stats: Mapping[str, ColumnStatisticsEntry]

    def column(self, name: str) -> Optional[ColumnStatisticsEntry]:
        return self.column_stats.get(name)


class CostEstimator:
    """Bottom-up row-count estimation with per-node memoization."""

    def __init__(self, stats: StatsProvider) -> None:
        self._stats = stats
        self._memo: dict[str, Optional[PlanEstimate]] = {}

    # -- public API ----------------------------------------------------------

    def estimate(self, node: PlanNode) -> Optional[PlanEstimate]:
        """Output-row estimate for ``node`` or None without statistics."""
        cached = self._memo.get(node.id)
        if cached is None and node.id not in self._memo:
            cached = self._estimate(node)
            self._memo[node.id] = cached
        return cached

    # -- per-node estimation -------------------------------------------------

    def _estimate(self, node: PlanNode) -> Optional[PlanEstimate]:
        if isinstance(node, TableScanNode):
            return self._estimate_scan(node)
        if isinstance(node, ValuesNode):
            return PlanEstimate(float(len(node.rows)), {})
        if isinstance(node, FilterNode):
            child = self.estimate(node.source)
            if child is None:
                return None
            selectivity = predicate_selectivity(node.predicate, child.column_stats)
            return PlanEstimate(child.row_count * selectivity, child.column_stats)
        if isinstance(node, ProjectNode):
            child = self.estimate(node.source)
            if child is None:
                return None
            forwarded = {}
            for variable, expression in node.assignments:
                if isinstance(expression, VariableReferenceExpression):
                    entry = child.column(expression.name)
                    if entry is not None:
                        forwarded[variable.name] = entry
            return PlanEstimate(child.row_count, forwarded)
        if isinstance(node, JoinNode):
            return self._estimate_join(node)
        if isinstance(node, AggregationNode):
            child = self.estimate(node.source)
            if child is None:
                return None
            if not node.group_keys:
                return PlanEstimate(1.0, {})
            groups = 1.0
            for key in node.group_keys:
                entry = child.column(key.name)
                if entry is None:
                    # Unknown key NDV: the sqrt heuristic keeps the guess
                    # between 1 and the child cardinality.
                    groups *= max(child.row_count ** 0.5, 1.0)
                else:
                    groups *= max(entry.ndv, 1)
            return PlanEstimate(min(child.row_count, groups), dict(child.column_stats))
        if isinstance(node, (LimitNode, TopNNode)):
            child = self.estimate(node.source)
            if child is None:
                return None
            return PlanEstimate(
                min(child.row_count, float(node.count)), child.column_stats
            )
        if isinstance(node, (SortNode, OutputNode)):
            return self.estimate(node.sources()[0])
        if isinstance(node, UnionNode):
            total = 0.0
            for source in node.union_sources:
                child = self.estimate(source)
                if child is None:
                    return None
                total += child.row_count
            return PlanEstimate(total, {})
        return None  # spatial joins, remote sources, unknown nodes

    def _estimate_scan(self, node: TableScanNode) -> Optional[PlanEstimate]:
        resolved = self._stats.stats_for_scan(node)
        if resolved is None:
            return None
        row_count, column_stats = resolved
        predicate = node.handle.constraint_expression()
        if predicate is not None:
            # Pushed predicates name connector columns; map them back to
            # variable space for the stats lookup.
            by_column = {
                column: column_stats[variable]
                for variable, column in node.assignments
                if variable in column_stats
            }
            row_count *= predicate_selectivity(predicate, by_column)
        return PlanEstimate(row_count, column_stats)

    def _estimate_join(self, node: JoinNode) -> Optional[PlanEstimate]:
        left = self.estimate(node.left)
        right = self.estimate(node.right)
        if left is None or right is None:
            return None
        merged = dict(left.column_stats)
        merged.update(right.column_stats)
        rows = left.row_count * right.row_count
        if node.join_type == "cross" or not node.criteria:
            pass
        else:
            for left_variable, right_variable in node.criteria:
                rows /= join_key_ndv(
                    left.column(left_variable.name),
                    right.column(right_variable.name),
                    left.row_count,
                    right.row_count,
                )
        if node.filter is not None:
            rows *= predicate_selectivity(node.filter, merged)
        if node.join_type == "left":
            rows = max(rows, left.row_count)
        elif node.join_type == "right":
            rows = max(rows, right.row_count)
        return PlanEstimate(rows, merged)


def join_key_ndv(
    left_entry: Optional[ColumnStatisticsEntry],
    right_entry: Optional[ColumnStatisticsEntry],
    left_rows: float,
    right_rows: float,
) -> float:
    """What one equi-join key pair divides ``|L|·|R|`` by: the larger NDV."""
    if left_entry is None and right_entry is None:
        # No statistics on either key: guess between 1 and the cross product.
        return max((left_rows * right_rows) ** 0.25, 1.0)
    return max(
        left_entry.ndv if left_entry is not None else 1,
        right_entry.ndv if right_entry is not None else 1,
        1,
    )


# -- selectivity --------------------------------------------------------------


def predicate_selectivity(
    predicate: RowExpression,
    column_stats: Mapping[str, ColumnStatisticsEntry],
) -> float:
    """Combined selectivity of a predicate's conjuncts (independence)."""
    selectivity = 1.0
    for conjunct in conjuncts(predicate):
        selectivity *= _conjunct_selectivity(conjunct, column_stats)
    return max(min(selectivity, 1.0), 0.0)


def _conjunct_selectivity(
    conjunct: RowExpression,
    column_stats: Mapping[str, ColumnStatisticsEntry],
) -> float:
    test = match_column_test(conjunct)
    if test is None:
        return UNKNOWN_FILTER_COEFFICIENT
    if not test.values:
        return 0.0  # compared with NULL only: no row passes
    entry = column_stats.get(test.column)
    if entry is None:
        return DEFAULT_COMPARISON_SELECTIVITY
    defined = 1.0 - entry.null_fraction
    if test.op == "equal":
        return defined / max(entry.ndv, 1)
    if test.op == "in":
        return defined * min(len(test.values) / max(entry.ndv, 1), 1.0)
    return defined * _range_fraction(entry, test.op, test.values[0])


def _range_fraction(entry: ColumnStatisticsEntry, op: str, bound: Any) -> float:
    low, high = entry.min_value, entry.max_value
    if (
        low is None
        or high is None
        or not isinstance(low, (int, float))
        or not isinstance(high, (int, float))
        or not isinstance(bound, (int, float))
    ):
        return DEFAULT_COMPARISON_SELECTIVITY
    if high <= low:
        return 1.0 if low <= bound <= high else 0.0
    width = float(high - low)
    if op in ("less_than", "less_than_or_equal"):
        fraction = (bound - low) / width
    else:
        fraction = (high - bound) / width
    return max(min(fraction, 1.0), 0.0)
