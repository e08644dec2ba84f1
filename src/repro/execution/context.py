"""Execution context shared by all operators of one query."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Optional

from repro.common.clock import RUNNING, Account
from repro.connectors.spi import Catalog
from repro.core.evaluator import Evaluator
from repro.core.functions import FunctionRegistry, default_registry
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import QueryTrace
from repro.planner.analyzer import Session

if TYPE_CHECKING:  # the template module imports the operators, which import this one
    from repro.execution.stage import StageTemplate


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
    # The query's simulated time: its own clock, charged by kind.
    account: Account = field(default_factory=Account)
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

    @property
    def charged_ms(self) -> dict:
        """Simulated milliseconds charged to the query, per ``CHARGE_KINDS``."""
        return self.account.charged_ms()

    @property
    def simulated_ms(self) -> float:
        """The query's simulated latency: everything charged to it."""
        return sum(self.charged_ms.values())

    def as_dict(self) -> dict:
        """Every counter, in field order, then ``charged_ms`` and
        ``simulated_ms``; dicts and lists are copied, ``account`` and
        ``task_records`` left out."""
        skip = ("account", "task_records")
        stats = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in skip}
        stats.update(charged_ms=dict(self.charged_ms), simulated_ms=self.simulated_ms)
        stats["stage_summaries"] = list(self.stage_summaries)
        return stats


@dataclass
class ExecutionContext:
    """Everything an operator needs: catalog, evaluator, session, limits.

    ``max_build_rows`` models cluster memory for join build sides; exceeding
    it raises ``InsufficientResourcesError``, reproducing the
    "Insufficient Resource" failures of section XII.C.

    The QueryScheduler derives one shallow copy of the query context per
    task attempt (:meth:`for_task`, sharing ``stats``); the fields after
    ``operator_rows`` are that copy's own.
    """

    catalog: Catalog
    session: Session = field(default_factory=Session)
    registry: FunctionRegistry = field(default_factory=default_registry)
    max_build_rows: int = 10_000_000
    stats: QueryStats = field(default_factory=QueryStats)
    # Fragment result cache (section VII): caches per-(leaf fragment,
    # split) pages, keyed additionally by the split's data version.
    fragment_cache: Optional[object] = None
    # Runtime dynamic filters, shared by every task of the query:
    # TableScanNode id -> DynamicFilterSet.  The QueryScheduler fills it
    # when a join's build side completes, before the probe stage's tasks
    # are planned; task contexts share the dict by reference.
    dynamic_filters: Optional[dict] = None
    # Observability: the query's span tracer (one deterministic span tree
    # per query, stamped from the query's clock) and the engine's
    # metrics registry.  Both optional — None disables instrumentation.
    tracer: Optional[QueryTrace] = None
    metrics: Optional[MetricsRegistry] = None
    # Per-task operator row accounting: plan node id -> rows produced.
    # The driver fills it when a tracer is attached; the scheduler turns
    # it into operator spans after the task's pipeline drains, so
    # lazily-abandoned iterators (LIMIT) still account.
    operator_rows: Optional[dict] = field(default=None, init=False)

    _evaluator: Optional[Evaluator] = field(default=None, init=False)
    # A task's copy: its stage's template (``execution.stage``), which the
    # operators read their plan-derived facts from.
    stage: Optional[StageTemplate] = field(default=None, init=False)
    # A task's copy: its stage's lanes, split ``split`` of the stage
    # charged on ``lanes[split % len(lanes)]``.  None elsewhere: charges
    # land on ``stats.account``.
    lanes: Optional[list] = field(default=None, init=False)
    # The stage's index of the split being read: a task starts at its
    # first split's (or its own, reading none), its scans count on.
    split: int = field(default=0, init=False)
    # A task's copy: TableScanNode id -> its assigned splits; None for
    # the one task of a fragment that holds several scans, each of which
    # enumerates its own splits.
    scan_splits: Optional[dict] = field(default=None, init=False)
    # A task's copy: Exchange -> the input pages of its RemoteSource leaf.
    exchange_inputs: Optional[dict] = field(default=None, init=False)

    @property
    def evaluator(self) -> Evaluator:
        if self._evaluator is None:
            self._evaluator = Evaluator(self.registry, stats=self.stats)
        return self._evaluator

    def for_task(
        self,
        stage: StageTemplate,
        lanes: list,
        split: int,
        scan_splits: Optional[dict],
        exchange_inputs: dict,
    ) -> "ExecutionContext":
        """A task attempt's copy of this query context.  It shares every
        field but these: the task's own (``stage`` to ``exchange_inputs``)
        come from the arguments, its evaluator is made when first used,
        and ``operator_rows`` is fresh when tracing."""
        task = object.__new__(ExecutionContext)
        task.__dict__.update(
            self.__dict__,
            _evaluator=None,
            stage=stage,
            lanes=lanes,
            split=split,
            scan_splits=scan_splits,
            exchange_inputs=exchange_inputs,
            operator_rows={} if self.tracer is not None else None,
        )
        return task

    def __enter__(self) -> "ExecutionContext":
        """Run this query: the context substrates' charges reach."""
        RUNNING.append(self)
        return self

    def __exit__(self, *exc) -> None:
        RUNNING.pop()

    def charge(self, kind: str, ms: float) -> None:
        """Charge ``ms`` simulated milliseconds of ``kind`` (one of
        ``CHARGE_KINDS``) to the query, on its account or the running
        split's lane."""
        lanes = self.lanes
        (lanes[self.split % len(lanes)] if lanes else self.stats.account).charge(kind, ms)
