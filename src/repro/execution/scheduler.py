"""Stage scheduler: runs a fragmented plan as stages, tasks, and exchanges.

Section III of the paper: "Each running plan fragment is called a stage
... Stage consists of tasks, which are processing one or many splits of
input data."  This module is the execution half of that sentence —
:class:`repro.planner.fragmenter.Fragmenter` produces the fragments, one
:class:`QueryScheduler` per query turns each into a stage:

- **source** fragments with one table scan enumerate its connector
  splits and run one task per ``TARGET_PARTITION_ROWS`` rows those splits
  hold, at least one and at most one per split; each task scans a
  contiguous run of splits.  When a connector cannot count a split's rows
  (``ConnectorSplit.rows is None``) the stage runs one task per split.  A
  fragment with several scans runs one task, whose scans enumerate their
  own splits;
- **hash** fragments fed by a partitioned REPARTITION exchange (the
  final side of a split aggregation) run one task per
  ``TARGET_PARTITION_ROWS`` rows that exchange buffered, at least one and
  at most ``hash_partitions``; otherwise a single task;
- **single** fragments (gathers, global sorts, final limits, the output)
  run one coordinator-side task.

Every task executes through the ordinary operator pipeline
(:func:`repro.execution.driver.execute_plan`) over a per-task copy of the
query context that pins scans to the task's splits and resolves
RemoteSource leaves against the upstream exchange buffers.  What a stage
reads off its fragment's plan (scans, output exchanges, dynamic-filter
targets, operator ordinals, resolved aggregates) comes from the
fragment's :class:`~repro.execution.stage.StageTemplate`, built once per
prepared query.  A task costs
``TASK_OVERHEAD_MS`` plus ``ROW_COST_MS`` per row in and out, recorded in
:class:`repro.execution.context.QueryStats`; ``EXPLAIN ANALYZE`` renders
them and ``PrestoClusterSim.submit_handle`` replays each stepped task as
cluster work.

**One parallel-charge rule.**  In Presto a source stage's splits run at
once across the workers, and any other stage's tasks do.  So a stage of
``n`` splits (or, reading none, ``n`` tasks) runs on ``min(n,
PRESTO_WORKERS)`` lanes: split ``s`` of the stage on lane ``s mod
lanes``, where its RPC and its reading are charged, and task ``i``'s own
work (a task here is a run of contiguous splits) on lane ``i mod
lanes``.  The stage charges the query its most-loaded lane
(``Account.charge_stage``).

**Fault tolerance.**  Each task runs inside a bounded retry loop.  A task
attempt can fail three ways: the configured
:class:`repro.execution.faults.FaultInjector` dooms the attempt (or one
of its split reads), the operator pipeline raises a real
:class:`~repro.common.errors.PrestoError`, or the attempt's task work
cost exceeds ``task_timeout_ms``.  A raw Python exception escaping the
pipeline is categorized at that same boundary (arithmetic, cast and
overflow failures are the query's own USER_ERROR; anything else is a
non-retryable engine defect), so only :class:`PrestoError` ever leaves a
task.  Retryable errors (INTERNAL_ERROR / EXTERNAL categories) are
retried up to ``max_task_retries`` times with exponential backoff
charged to simulated time; USER_ERRORs and INSUFFICIENT_RESOURCES
surface immediately with their category intact.
A task's pages are committed to its output exchanges only after the
attempt succeeds, so a retried task never double-publishes rows and the
query's results are identical to a zero-fault run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.common.clock import Account
from repro.common.errors import (
    EngineDefectError,
    ExecutionError,
    InvalidValueError,
    PrestoError,
    TaskTimeoutError,
)
from repro.core.expressions import combine_conjuncts
from repro.core.page import Page
from repro.core.types import PrestoType
from repro.execution.context import ExecutionContext
from repro.execution.driver import execute_plan, record_operator_spans
from repro.execution.dynamic_filters import DynamicFilterSet, dynamic_filter_for
from repro.execution.exchange import ExchangeBuffer
from repro.execution.faults import FaultInjector
from repro.execution.kernels import TARGET_PARTITION_ROWS
from repro.execution.operators.scan import plan_scan
from repro.execution.stage import StageTemplate
from repro.obs.trace import maybe_span
from repro.planner.fragmenter import Exchange

# Cost model: simulated milliseconds per task (task creation, the
# coordinator RPC of section VIII) and per row in and out of a task.
TASK_OVERHEAD_MS = 1.0
ROW_COST_MS = 0.001
# Workers a stage's tasks spread over (the paper's 100-node Presto
# clusters): a stage of n tasks runs on min(n, PRESTO_WORKERS) lanes.
PRESTO_WORKERS = 100
# Simulated backoff before a task's first retry; it doubles per retry.
RETRY_BACKOFF_MS = 10.0


@dataclass
class TaskRecord:
    """One executed task: the unit the cluster simulation schedules.

    The fields after ``data_key`` fill in as the task runs: ``attempts``
    counts every execution attempt including the successful one;
    ``failed`` marks a task that exhausted its retries (or hit a
    non-retryable error) and killed the query.
    """

    stage: int
    task: int
    splits: int
    data_key: str
    rows_in: int = field(default=0, init=False)
    rows_out: int = field(default=0, init=False)
    sim_ms: float = field(default=0.0, init=False)
    data_bytes: int = field(default=0, init=False)
    attempts: int = field(default=0, init=False)
    failed: bool = field(default=False, init=False)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _TASK_RECORD_FIELDS}


_TASK_RECORD_FIELDS = tuple(f.name for f in fields(TaskRecord))


class QueryScheduler:
    """Steppable execution of one query's stages: its fragments'
    :class:`StageTemplate` objects, in execution order.

    Holds everything one query's execution needs (exchange buffers, the
    current fragment's planned tasks, the open stage span) so it can be
    advanced one task at a time — by a blocking loop
    (:meth:`QueryHandle.run_to_completion
    <repro.execution.engine.QueryHandle.run_to_completion>`) or from a
    cluster-level event loop, interleaved with other queries on the
    shared simulated clock.

    Each :meth:`step` runs exactly one task — retries, charges,
    exchange commits, and stats accounting included — so traces and
    :class:`QueryStats` are byte-identical however the steps are driven.
    The *ready-task frontier* is the remainder of the current stage:
    fragments are topologically ordered and a stage's tasks are planned
    lazily when the previous stage's output buffers are complete.  Stage
    widths, costs and retries follow the module docstring; each retry
    backs off ``RETRY_BACKOFF_MS * 2**(attempt-1)``.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        stages: tuple[StageTemplate, ...],
        hash_partitions: int = 4,
        fault_injector: Optional[FaultInjector] = None,
        max_task_retries: int = 3,
        task_timeout_ms: Optional[float] = None,
        dynamic_filtering: bool = True,
    ) -> None:
        if hash_partitions < 1:
            raise ExecutionError("hash_partitions must be at least 1")
        if max_task_retries < 0:
            raise ExecutionError("max_task_retries must be non-negative")
        self.ctx = ctx
        self.stages = stages
        self.hash_partitions = hash_partitions
        self.fault_injector = fault_injector
        self.max_task_retries = max_task_retries
        self.task_timeout_ms = task_timeout_ms
        # Runtime dynamic filters (adaptive execution): summarize each
        # completed join build side and push the summary into not-yet-
        # started probe-side scans.  Results are identical either way —
        # the filter only removes probe rows the join would drop.
        self.dynamic_filtering = dynamic_filtering
        if dynamic_filtering and ctx.dynamic_filters is None:
            ctx.dynamic_filters = {}
        self.buffers: dict[Exchange, ExchangeBuffer] = {}
        self.result_pages: list[Page] = []
        self.done = False
        self._fragment_index = 0
        self._tasks: Optional[list] = None
        self._task_index = 0
        self._out_buffers: list[ExchangeBuffer] = []
        self._stage_span = None
        self._lanes: list[Account] = []
        self._firsts: list[int] = []

    # -- observability -------------------------------------------------------

    # No series carries a query id: the registry is bounded by kinds of
    # things, and the per-query numbers are in QueryStats and the trace.

    def _count_task(self, name: str, stage: int, amount: float = 1.0) -> None:
        if self.ctx.metrics is not None:
            self.ctx.metrics.counter(name, stage=stage).inc(amount)

    def _record_exchange(
        self, buffer: ExchangeBuffer, task_index: int, rows: int, pages: list[Page], size: int
    ) -> None:
        """Account one task's committed pages, ``size`` bytes, into one
        output exchange.

        Every row of ``stats.rows_exchanged`` flows through exactly one
        commit, so the exchange spans (and the ``exchange_rows_total``
        series) sum back to it exactly.
        """
        kind = buffer.exchange.kind if buffer.exchange is not None else "GATHER"
        if self.ctx.tracer is not None:
            self.ctx.tracer.instant(
                "exchange",
                kind=kind,
                source_task=task_index,
                rows=rows,
                pages=len(pages),
                bytes=size,
            )
        if self.ctx.metrics is not None:
            metrics = self.ctx.metrics
            metrics.counter("exchange_rows_total", kind=kind).inc(rows)
            metrics.counter("exchange_pages_total", kind=kind).inc(len(pages))
            metrics.counter("exchange_bytes_total", kind=kind).inc(size)

    # -- task execution ------------------------------------------------------

    def _run_task(
        self,
        stage_template: StageTemplate,
        task_index: int,
        task_plan: tuple[Optional[dict], dict, str, int],
    ) -> tuple[TaskRecord, list[Page]]:
        """Run one task to success (or terminal failure) with retries, and
        record it in ``stats.task_records`` either way.  Its own work (each
        backoff as ``retry``) lands on its own lane, whose time its spans
        stamp from, so its span lasts its ``sim_ms``; each split's reading
        lands on that split's lane."""
        stats, tracer = self.ctx.stats, self.ctx.tracer
        _, _, data_key, splits = task_plan
        stage = stage_template.fragment.fragment_id
        record = TaskRecord(stage, task_index, splits, data_key)
        lane = self._lanes[task_index % len(self._lanes)]
        started_ms = lane.now_ms()
        if tracer is not None:
            query_clock, tracer.clock = tracer.clock, lane
        try:
            with maybe_span(
                tracer, "task", stage=stage, task=task_index, data_key=data_key, splits=splits
            ):
                while True:
                    record.attempts += 1
                    try:
                        pages = self._run_attempt(stage_template, task_plan, record, lane)
                        break
                    except PrestoError as error:
                        if not error.retryable or record.attempts > self.max_task_retries:
                            record.failed = True
                            stats.tasks_failed += 1
                            self._count_task("scheduler_tasks_failed_total", stage)
                            raise
                    stats.tasks_retried += 1
                    self._count_task("scheduler_tasks_retried_total", stage)
                    # Exponential backoff, charged to simulated time only
                    # (deterministic — no wall-clock sleeping).
                    backoff_ms = RETRY_BACKOFF_MS * (2 ** (record.attempts - 1))
                    self._count_task("scheduler_retry_backoff_ms_total", stage, backoff_ms)
                    with maybe_span(tracer, "backoff", stage=stage, task=task_index,
                                    attempt=record.attempts, backoff_ms=backoff_ms):
                        lane.charge("retry", backoff_ms)
            record.data_bytes = sum(page.size_in_bytes() for page in pages)
            return record, pages
        finally:
            if tracer is not None:
                tracer.clock = query_clock
            record.sim_ms = lane.now_ms() - started_ms
            stats.task_records.append(record.as_dict())
            stats.tasks_total += 1
            self._count_task("scheduler_tasks_run_total", stage)

    def _run_attempt(
        self,
        stage_template: StageTemplate,
        task_plan: tuple[Optional[dict], dict, str, int],
        record: TaskRecord,
        lane: Account,
    ) -> list[Page]:
        """One execution attempt: each split's reading is charged on its
        stage lane, and the task's ``lane`` its work, ``TASK_OVERHEAD_MS`` plus ``ROW_COST_MS``
        per row in and out, as ``task`` when it succeeds or
        ``TASK_OVERHEAD_MS`` as ``retry`` when it fails; fills the record's
        rows.  That work alone is held to ``task_timeout_ms``, whichever
        clocks the engine and its substrates run on."""
        scan_splits, exchange_inputs, _, _ = task_plan
        stats, tracer = self.ctx.stats, self.ctx.tracer
        stage, task_index, attempt = record.stage, record.task, record.attempts
        with maybe_span(tracer, "attempt", stage=stage, task=task_index, attempt=attempt) as span:
            attempt_ctx = self.ctx.for_task(
                stage_template,
                self._lanes,
                self._firsts[task_index],
                scan_splits,
                exchange_inputs,
            )
            scanned_before = stats.rows_scanned
            try:
                injector = self.fault_injector
                if injector is not None:
                    injector.maybe_fail_task(stats.query_id, stage, task_index, attempt)
                    for splits in (scan_splits or {}).values():
                        for split in splits:
                            injector.maybe_fail_split(
                                stats.query_id, stage, task_index, split.split_id, attempt
                            )
                try:
                    with attempt_ctx:
                        root = stage_template.fragment.root
                        pages = [p.loaded() for p in execute_plan(root, attempt_ctx)]
                except PrestoError:
                    raise
                except Exception as error:
                    raise _categorized(error) from error
                finally:
                    # Emit operator spans even when the pipeline fails
                    # mid-drain: the rows it did process are in QueryStats,
                    # so the spans must account for them too.
                    if tracer is not None:
                        record_operator_spans(
                            tracer, stage_template.operators, attempt_ctx.operator_rows
                        )
                rows_in = stats.rows_scanned - scanned_before + sum(
                    page.position_count
                    for pages_in in exchange_inputs.values()
                    for page in pages_in
                )
                rows_out = sum(page.position_count for page in pages)
                work_ms = TASK_OVERHEAD_MS + ROW_COST_MS * (rows_in + rows_out)
                if self.task_timeout_ms is not None and work_ms > self.task_timeout_ms:
                    raise TaskTimeoutError(
                        f"task {task_index} of stage {stage} exceeded its "
                        f"{self.task_timeout_ms}ms budget ({work_ms:.2f}ms)"
                    )
            except PrestoError as error:
                lane.charge("retry", TASK_OVERHEAD_MS)
                if span is not None:
                    span.set(outcome="failed", error=type(error).__name__)
                raise
            lane.charge("task", work_ms)
            if span is not None:
                span.set(outcome="ok", rows_in=rows_in, rows_out=rows_out)
        record.rows_in, record.rows_out = rows_in, rows_out
        return pages

    # -- task planning -------------------------------------------------------

    def _plan_tasks(
        self, stage_template: StageTemplate
    ) -> list[tuple[Optional[dict], dict, str, int]]:
        """One entry per task: (scan_splits, exchange_inputs, data_key, splits)."""
        fragment = stage_template.fragment
        buffers = self.buffers
        partitioned_inputs = [e for e in fragment.inputs if e.partitioned]
        full_inputs = [e for e in fragment.inputs if not e.partitioned]
        for exchange in fragment.inputs:
            if exchange not in buffers:
                raise ExecutionError(
                    f"fragment {fragment.fragment_id} consumes exchange from "
                    f"fragment {exchange.source_fragment}, which has not run"
                )

        def inputs_for(partition: Optional[int]) -> dict:
            exchange_inputs = {
                e: buffers[e].all_pages() for e in full_inputs
            }
            for e in partitioned_inputs:
                exchange_inputs[e] = (
                    buffers[e].pages_for_partition(partition)
                    if partition is not None
                    else buffers[e].all_pages()
                )
            return exchange_inputs

        scans = stage_template.scans
        if fragment.distribution == "source" and len(scans) == 1:
            scan = scans[0]
            _, _, splits = plan_scan(scan, self.ctx)
            if splits:
                return [
                    ({scan.id: run}, inputs_for(None), run[0].split_id, len(run))
                    for run in _split_runs(splits)
                ]
            # Empty tables still run one task (a global aggregation over
            # no input must produce its single row).
            return [({scan.id: []}, inputs_for(None), f"stage{fragment.fragment_id}.task0", 0)]

        if fragment.distribution == "hash" and partitioned_inputs:
            # The producers have finished and nothing has been read
            # (partitioning is lazy), so the stage is as wide as the rows it
            # observed; every partitioned input gets the same width, which
            # keeps join sides co-partitioned.
            feeds = [buffers[e] for e in partitioned_inputs]
            rows = max(feed.rows_added for feed in feeds)
            partition_count = _stage_width(rows, self.hash_partitions)
            for feed in feeds:
                feed.set_partition_count(partition_count)
            return [
                (
                    None,
                    inputs_for(partition),
                    f"stage{fragment.fragment_id}.part{partition}",
                    0,
                )
                for partition in range(partition_count)
            ]

        # Single task: coordinator-side stages, multi-scan fragments (the
        # scans enumerate their own splits), hash stages without a
        # partitioned feed.
        return [
            (
                None,
                inputs_for(None),
                f"stage{fragment.fragment_id}.task0",
                len(scans),
            )
        ]

    # -- frontier inspection --------------------------------------------------

    def peek_stage(self) -> Optional[int]:
        """Fragment id the next :meth:`step` will run a task of (None if done)."""
        if self.done:
            return None
        return self.stages[self._fragment_index].fragment.fragment_id

    # -- stage lifecycle ------------------------------------------------------

    def _begin_stage(self, stage_template: StageTemplate) -> None:
        fragment = stage_template.fragment
        self._out_buffers = []
        for exchange, key_channels in stage_template.outputs:
            buffer = ExchangeBuffer(exchange, key_channels)
            self.buffers[exchange] = buffer
            self._out_buffers.append(buffer)

        if self.dynamic_filtering:
            self._collect_dynamic_filters(stage_template)
        self._tasks = self._plan_tasks(stage_template)
        self._task_index = 0
        # One lane a split where tasks read pinned splits, else a task;
        # ``_firsts[i]``: task i's first split (or itself) in that order.
        widths = [plan[3] if plan[0] else 1 for plan in self._tasks]
        start_ms = self.ctx.stats.account.now_ms()
        count = min(max(sum(widths), 1), PRESTO_WORKERS)
        self._lanes = [Account(start_ms) for _ in range(count)]
        self._firsts = list(itertools.accumulate(widths, initial=0))
        tracer = self.ctx.tracer
        if tracer is not None:
            self._stage_span = tracer.open_span(
                "stage",
                stage=fragment.fragment_id,
                distribution=fragment.distribution,
                tasks=len(self._tasks),
            )

    # -- dynamic filters ------------------------------------------------------

    def _collect_dynamic_filters(self, stage_template: StageTemplate) -> None:
        """Summarize completed build sides feeding this fragment's joins.

        Runs when the stage begins — the fragmenter schedules every build
        fragment strictly before the fragment holding its join, so the
        build exchange buffers are complete here, before any probe-side
        split has been planned.  Filters are built exactly once per query
        (this method runs once per stage) and task retries re-read the
        same :class:`DynamicFilterSet`, so a retried probe task can never
        observe — or double-apply — a different filter.  Which joins, keys
        and scans take part is the template's ``dynamic_filters``.
        """
        ctx = self.ctx
        assert ctx.dynamic_filters is not None
        for exchange, targets in stage_template.dynamic_filters:
            buffer = self.buffers.get(exchange)
            if buffer is None:
                continue
            build_pages = buffer.all_pages()
            for channel, scan, column in targets:
                dynamic_filter = dynamic_filter_for(
                    [page.block(channel) for page in build_pages]
                )
                filter_set = ctx.dynamic_filters.setdefault(
                    scan.id, DynamicFilterSet()
                )
                filter_set.filters.setdefault(column, []).append(dynamic_filter)
                ctx.stats.dynamic_filters_built += 1
                self._count_task(
                    "scheduler_dynamic_filters_built_total",
                    stage_template.fragment.fragment_id,
                )
                if ctx.tracer is not None:
                    ctx.tracer.instant(
                        "dynamic_filter",
                        scan=scan.id,
                        column=column,
                        build_rows=dynamic_filter.build_rows,
                        build_distinct=dynamic_filter.build_distinct,
                        form=dynamic_filter.form,
                    )
                self._refresh_filter_expression(
                    filter_set, stage_template.column_types[scan.id]
                )

    def _refresh_filter_expression(
        self, filter_set: DynamicFilterSet, column_types: dict[str, PrestoType]
    ) -> None:
        """Re-serialize the set's expression form over connector columns."""
        terms = []
        for column, filters in filter_set.filters.items():
            presto_type = column_types.get(column)
            if presto_type is None:
                continue
            for dynamic_filter in filters:
                expression = dynamic_filter.to_expression(
                    column, presto_type, self.ctx.registry
                )
                if expression is not None:
                    terms.append(expression)
        combined = combine_conjuncts(terms)
        filter_set.expression_dict = None if combined is None else combined.to_dict()

    def _charge_stage(self) -> float:
        """Charge the running stage's most-loaded lane to the query, close
        the stage's span, and return the stage's simulated milliseconds."""
        stage_ms = self.ctx.stats.account.charge_stage(self._lanes) if self._lanes else 0.0
        self._lanes = []
        if self._stage_span is not None:
            self.ctx.tracer.close_span(self._stage_span)
            self._stage_span = None
        return stage_ms

    def _end_stage(self, stage_template: StageTemplate) -> None:
        fragment = stage_template.fragment
        stats = self.ctx.stats
        stage_ms = self._charge_stage()
        records = stats.task_records[-len(self._tasks):]
        stats.stages_total += 1
        stats.stage_summaries.append(
            {
                "stage": fragment.fragment_id,
                "distribution": fragment.distribution,
                "tasks": len(self._tasks),
                "rows_in": sum(record["rows_in"] for record in records),
                "rows_out": sum(record["rows_out"] for record in records),
                "sim_ms": stage_ms,
            }
        )
        self._tasks = None
        self._fragment_index += 1

    def _finish(self) -> None:
        self.ctx.stats.rows_exchanged = sum(
            b.rows_added for b in self.buffers.values()
        )
        self._release()

    def _release(self) -> None:
        """Done: charge a stage left open by a failure, keep
        ``result_pages`` and drop every stage's intermediates.

        A cluster keeps finished handles for its lifetime; without this
        each would pin every exchange page of every stage.
        """
        self._charge_stage()
        self.done = True
        self.buffers = {}
        self._out_buffers = []
        self._tasks = None

    # -- the state machine ----------------------------------------------------

    def step(self) -> TaskRecord:
        """Run exactly one task (with retries) and commit its output.

        Returns the :class:`TaskRecord` just appended to
        ``stats.task_records``.  Raises the task's terminal
        :class:`PrestoError` on unrecoverable failure, leaving the
        machine ``done``.
        """
        if self.done:
            raise ExecutionError("query scheduler already finished")
        stages = self.stages
        stage_template = stages[self._fragment_index]
        try:
            if self._tasks is None:
                self._begin_stage(stage_template)
            task_index = self._task_index
            record, pages = self._run_task(
                stage_template, task_index, self._tasks[task_index]
            )
        except PrestoError:
            self._release()
            raise
        except Exception as error:
            # Building dynamic filters and planning splits run outside any
            # task attempt: what they raise raw is categorized the same way.
            self._release()
            raise _categorized(error) from error
        # Commit only after success: a retried attempt never
        # double-publishes rows.
        if stage_template is stages[-1]:
            self.result_pages.extend(pages)
        else:
            for buffer in self._out_buffers:
                before = buffer.rows_added
                for page in pages:
                    buffer.add(page)
                self._record_exchange(
                    buffer, task_index, buffer.rows_added - before, pages, record.data_bytes
                )
        if self.ctx.metrics is not None:
            self.ctx.metrics.histogram("scheduler_task_sim_ms").observe(record.sim_ms)
        self._task_index += 1
        if self._task_index >= len(self._tasks):
            self._end_stage(stage_template)
            if self._fragment_index >= len(stages):
                self._finish()
        return record


def _stage_width(rows: int, cap: int) -> int:
    """The one fan-out rule, for source and hash stages alike: one task
    per ``TARGET_PARTITION_ROWS`` rows, at least one and at most ``cap``."""
    return min(cap, max(1, -(-rows // TARGET_PARTITION_ROWS)))


def _split_runs(splits: list) -> list[list]:
    """A source stage's splits, one contiguous run per task.

    When every split reports ``rows``, the stage is ``_stage_width(rows,
    len(splits))`` tasks wide and each task takes the next run of splits
    in enumeration order, cut where the running row total passes the
    task's share.  A split that cannot count keeps one task per split.
    """
    counts = [split.rows for split in splits]
    if None in counts:
        return [[split] for split in splits]
    total = sum(counts)
    width = _stage_width(total, len(splits))
    if width == 1:
        return [list(splits)]
    runs: list[list] = [[]]
    seen = 0
    for index, split in enumerate(splits):
        runs[-1].append(split)
        seen += split.rows
        still_to_open = width - len(runs)
        splits_left = len(splits) - index - 1
        if still_to_open and (
            seen * width >= total * len(runs) or splits_left == still_to_open
        ):
            runs.append([])
    return runs


def _categorized(error: Exception) -> PrestoError:
    """A raw exception as the query's categorized failure, never one that
    escapes the cluster's event loop: division by zero, an unparseable
    cast, integer overflow are the query's own data; anything else is an
    engine defect."""
    if isinstance(error, (ArithmeticError, ValueError)):
        return InvalidValueError(str(error))
    return EngineDefectError(f"{type(error).__name__}: {error}")
