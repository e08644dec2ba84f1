"""Rule-based optimizer.

The paper's production setup uses "a rule based optimizer, ignoring
statistics" (section XII.A) — cost-based optimization was abandoned because
statistics could not be kept fresh.  This optimizer follows that design:
deterministic rewrite rules applied to fixpoint, no cardinality estimates —
except for one opt-in adaptive pass: when ``ANALYZE TABLE`` has populated
metastore statistics, the join-reordering rule uses them for
smallest-build-first ordering and broadcast-vs-partitioned selection.
Plans whose tables were never analyzed are untouched by that pass, so the
rule-only behaviour is preserved by default.

Rule order: cleanup → predicate pushdown (to fixpoint) → geospatial
rewrite → TopN formation and limit pushdown → aggregation pushdown →
cost-based join reordering + distribution selection → column pruning
(incl. nested paths) → final cleanup.  Rules reach connectors only
through the ``Connector`` SPI: a materialized view is the hybrid
connector's answer to aggregation pushdown, not a rule of its own.
The three pushdown rules (predicate, limit, aggregation) are the one rule
ablation the paper reports (section IV.B, Figure 16): ``pushdown=False``
skips all three, views included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.connectors.spi import Catalog
from repro.core.functions import FunctionRegistry, default_registry
from repro.planner.analyzer import Session
from repro.planner.plan import OutputNode, PlanNode
from repro.planner.rules.aggregation_pushdown import push_aggregations
from repro.planner.rules.cleanup import merge_filters, remove_identity_projections
from repro.planner.rules.column_pruning import prune_columns
from repro.planner.rules.geo_rewrite import rewrite_geospatial_joins
from repro.planner.rules.limit_pushdown import push_limits, sort_limit_to_topn
from repro.planner.rules.join_reorder import choose_join_distribution, reorder_joins
from repro.planner.rules.predicate_pushdown import push_predicates
from repro.planner.cost import CostEstimator
from repro.planner.stats import StatsProvider


@dataclass
class OptimizerContext:
    catalog: Catalog
    registry: FunctionRegistry
    session: Session


class Optimizer:
    """Applies the rule pipeline to an analyzed plan."""

    def __init__(
        self,
        catalog: Catalog,
        registry: Optional[FunctionRegistry] = None,
        pushdown: bool = True,
    ) -> None:
        self._catalog = catalog
        self._registry = registry or default_registry()
        self.pushdown = pushdown

    def optimize(self, plan: OutputNode, session: Optional[Session] = None) -> OutputNode:
        ctx = OptimizerContext(self._catalog, self._registry, session or Session())
        result: PlanNode = plan

        result = merge_filters(result, ctx)
        result = remove_identity_projections(result, ctx)

        if self.pushdown:
            result = _to_fixpoint(push_predicates, result, ctx)
            result = merge_filters(result, ctx)
        result = rewrite_geospatial_joins(result, ctx)
        if self.pushdown:
            result = _to_fixpoint(push_predicates, result, ctx)
        result = sort_limit_to_topn(result, ctx)
        if self.pushdown:
            result = push_limits(result, ctx)
            result = push_aggregations(result, ctx)
        estimator = CostEstimator(StatsProvider(self._catalog))
        result = reorder_joins(result, ctx, estimator)
        # Always resolve distribution='automatic' placeholders — the
        # fragmenter should only ever see broadcast or partitioned.
        result = choose_join_distribution(result, ctx, estimator)
        # To fixpoint: the first pass may drop identity-forwarding
        # assignments whose bare variable uses were masking narrower
        # (nested) access paths for the second pass.
        result = _to_fixpoint(
            lambda p, c: remove_identity_projections(prune_columns(p, c), c),
            result,
            ctx,
            max_iterations=3,
        )
        result = remove_identity_projections(result, ctx)

        assert isinstance(result, OutputNode)
        return result


def _to_fixpoint(
    rule: Callable[[PlanNode, OptimizerContext], PlanNode],
    plan: PlanNode,
    ctx: OptimizerContext,
    max_iterations: int = 10,
) -> PlanNode:
    previous = plan.pretty()
    for _ in range(max_iterations):
        plan = rule(plan, ctx)
        rendered = plan.pretty()
        if rendered == previous:
            return plan
        previous = rendered
    return plan
