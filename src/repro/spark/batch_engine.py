"""A SparkSQL-like batch engine over the same catalog.

Section XI characterizes the trade: Spark "can operate on intermediate
results in memory ... [but] these systems do not support end-to-end
pipelining, and usually persist data to a filesystem during inter-stage
shuffles.  Although this improves fault tolerance, the additional latency
causes such systems to be a poor fit for interactive or low-latency use
cases."

Accordingly this engine:

- executes the same plans over the same connectors (results match Presto);
- has no in-memory join limit — build sides beyond the memory budget
  *spill*, tracked in ``spilled_rows`` and charged to the simulated clock;
- pays batch costs per query: job startup plus a per-stage shuffle
  materialization charge, so it is reliably slower than Presto on
  interactive queries but succeeds where Presto runs out of memory.
"""

from __future__ import annotations

from typing import Optional

from repro.common.clock import Account, SimulatedClock
from repro.connectors.spi import Catalog
from repro.execution.context import ExecutionContext, QueryStats
from repro.execution.driver import execute_plan
from repro.execution.engine import PrestoEngine, QueryResult
from repro.planner.analyzer import Session
from repro.planner.plan import AggregationNode, JoinNode, SpatialJoinNode


def _register_spark_function_names() -> None:
    """Teach the shared registry Spark's names for translated functions."""
    from repro.core.functions import default_registry

    registry = default_registry()
    if registry.is_aggregate("approx_count_distinct"):
        return
    from dataclasses import replace

    # Another name for the same implementation, which picks its kernel.
    registry._aggregates["approx_count_distinct"] = registry._aggregates["approx_distinct"]
    instr = registry._scalars["strpos"][0]
    registry.register_scalar(replace(instr, name="instr"))


_register_spark_function_names()

# Batch cost model (simulated ms): job startup, one shuffle materialization
# per stage boundary, and disk time per row spilled past the memory budget.
JOB_STARTUP_MS = 4_000.0
SHUFFLE_MS_PER_STAGE = 1_500.0
SPILL_MS_PER_ROW = 0.002
# Build-side rows a batch job holds in memory before the rest spill.
MEMORY_BUDGET_ROWS = 1_000_000


class BatchSqlEngine:
    """Executes (Spark-dialect) SQL with batch semantics."""

    def __init__(
        self,
        catalog: Catalog,
        session: Optional[Session] = None,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        # Reuse the same frontend/planner; only execution semantics differ.
        self._inner = PrestoEngine(catalog=catalog, session=session, clock=clock)
        self.clock = clock
        self.spilled_rows = 0
        self.jobs_run = 0

    def execute(self, sql: str) -> QueryResult:
        plan = self._inner.plan(sql)
        # Batch cost model: startup + one shuffle per stage boundary.
        stage_boundaries = sum(
            1
            for node in plan.walk()
            if isinstance(node, (JoinNode, SpatialJoinNode, AggregationNode))
        )
        if self.clock is not None:
            self.clock.advance(JOB_STARTUP_MS + stage_boundaries * SHUFFLE_MS_PER_STAGE)
        clock = self.clock
        ctx = ExecutionContext(
            catalog=self._inner.catalog,
            session=self._inner.session,
            registry=self._inner.registry,
            stats=QueryStats(account=Account(clock.now_ms() if clock else 0.0, clock)),
            # No hard limit: oversized build sides spill instead of failing.
            max_build_rows=2**62,
        )
        result = QueryResult.from_pages(
            plan.column_names, execute_plan(plan, ctx), ctx.stats
        )
        self.jobs_run += 1
        # Spill accounting: anything beyond the in-memory budget hit disk.
        overflow = max(0, ctx.stats.peak_build_rows - MEMORY_BUDGET_ROWS)
        if overflow:
            self.spilled_rows += overflow
            if self.clock is not None:
                self.clock.advance(overflow * SPILL_MS_PER_ROW)
        return result
