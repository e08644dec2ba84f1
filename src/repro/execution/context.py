"""Execution context shared by all operators of one query."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from repro.common.clock import SimulatedClock
from repro.connectors.spi import Catalog
from repro.core.evaluator import Evaluator
from repro.core.functions import FunctionRegistry, default_registry
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import QueryTrace
from repro.planner.analyzer import Session


@dataclass
class QueryStats:
    """Counters accumulated while a query runs."""

    # Engine-assigned query id; threads through task records into the
    # cluster simulation so cluster-side work joins back to the query.
    query_id: str = ""
    splits_scanned: int = 0
    rows_scanned: int = 0
    # Pages the connectors yielded, counted before the scan coalesces them.
    pages_produced: int = 0
    rows_output: int = 0
    peak_build_rows: int = 0
    fragment_cache_hits: int = 0
    # Operator-kernel counters (section III): rows that went through the
    # vectorized group-by/join/sort kernels.  No production operator counts
    # a fallback row; the field stays because the e2e ledger reads it.
    rows_processed_vectorized: int = 0
    rows_processed_fallback: int = 0
    # Staged execution counters (section III: fragments → stages → tasks):
    # filled by the QueryScheduler when a query runs fragmented.
    stages_total: int = 0
    tasks_total: int = 0
    rows_exchanged: int = 0
    simulated_ms: float = 0.0
    # Fault tolerance (sections VIII/IX/XII.C): task attempts that failed
    # terminally and attempts that were retried after a retryable error.
    tasks_failed: int = 0
    tasks_retried: int = 0
    # Parquet row-group accounting, harvested from reader statistics by the
    # scan operator: how many groups each skip tier eliminated.
    row_groups_total: int = 0
    row_groups_skipped_by_stats: int = 0
    row_groups_skipped_by_dictionary: int = 0
    row_groups_skipped_by_dynamic_filter: int = 0
    # Runtime dynamic filters (adaptive execution): filters built from
    # completed join build sides, rows pruned by page-level masking, and
    # splits skipped outright at enumeration.
    dynamic_filters_built: int = 0
    dynamic_filter_rows_pruned: int = 0
    dynamic_filter_splits_skipped: int = 0
    # Expression-compiler counters: positions evaluated by vectorized
    # kernels vs positions a kernel applied one row at a time (a function
    # with only a ``row_fn`` or over nested values, IF over nested
    # branches, LIKE over non-string blocks), and positions *not* evaluated
    # at all thanks to dictionary-aware evaluation (rows − distinct per
    # dictionary-encoded expression run).
    expr_positions_vectorized: int = 0
    expr_positions_fallback: int = 0
    expr_positions_dictionary_saved: int = 0
    # One dict per stage: fragment id, distribution, task count, rows in/
    # out, simulated milliseconds.  Rendered by EXPLAIN ANALYZE.
    stage_summaries: list = field(default_factory=list)
    # One dict per task: stage, task index, split count, rows in/out, the
    # data key driving affinity scheduling, and the simulated duration.
    # PrestoClusterSim's pump turns each stepped task into SplitWork.
    task_records: list = field(default_factory=list)

    def as_dict(self) -> dict:
        """Every counter, in field order; ``stage_summaries`` is copied and
        ``task_records`` left out."""
        stats = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "task_records"
        }
        stats["stage_summaries"] = list(self.stage_summaries)
        return stats


@dataclass
class ExecutionContext:
    """Everything an operator needs: catalog, evaluator, session, limits.

    ``max_build_rows`` models cluster memory for join build sides; exceeding
    it raises ``InsufficientResourcesError``, reproducing the
    "Insufficient Resource" failures of section XII.C.

    The QueryScheduler derives one shallow copy of the query context per
    task (sharing ``stats``): ``scan_splits`` pins each table scan to the
    task's assigned connector splits, and ``exchange_inputs`` resolves the
    task's RemoteSource leaves to pages buffered by upstream stages.
    ``scan_splits`` is ``None`` for the one task of a fragment that holds
    several scans: each of them enumerates its own splits.
    """

    catalog: Catalog
    session: Session = field(default_factory=Session)
    registry: FunctionRegistry = field(default_factory=default_registry)
    clock: Optional[SimulatedClock] = None
    max_build_rows: int = 10_000_000
    stats: QueryStats = field(default_factory=QueryStats)
    # Fragment result cache (section VII): caches per-(leaf fragment,
    # split) pages, keyed additionally by the split's data version.
    fragment_cache: Optional[object] = None
    # Per task: TableScanNode id -> assigned splits.
    scan_splits: Optional[dict] = None
    # Per task: Exchange -> list of input pages.
    exchange_inputs: Optional[dict] = None
    # Runtime dynamic filters, shared by every task of the query:
    # TableScanNode id -> DynamicFilterSet.  The QueryScheduler fills it
    # when a join's build side completes, before the probe stage's tasks
    # are planned; task contexts share the dict by reference.
    dynamic_filters: Optional[dict] = None
    # Observability: the query's span tracer (one deterministic span tree
    # per query, stamped from its own simulated clock) and the engine's
    # metrics registry.  Both optional — None disables instrumentation.
    tracer: Optional[QueryTrace] = None
    metrics: Optional[MetricsRegistry] = None
    # Per-task operator row accounting: plan node id -> rows produced.
    # The driver fills it when a tracer is attached; the scheduler turns
    # it into operator spans after the task's pipeline drains, so
    # lazily-abandoned iterators (LIMIT) still account.
    operator_rows: Optional[dict] = None

    _evaluator: Optional[Evaluator] = None

    @property
    def evaluator(self) -> Evaluator:
        if self._evaluator is None:
            self._evaluator = Evaluator(self.registry, stats=self.stats)
        return self._evaluator
