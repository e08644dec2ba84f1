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
RemoteSource leaves against the upstream exchange buffers.  Task costs
are simulated from real row counts (a fixed per-task overhead plus a per
row cost) and recorded in :class:`repro.execution.context.QueryStats`;
``EXPLAIN ANALYZE`` renders them and ``PrestoClusterSim.submit_handle``
replays each stepped task as cluster work.

**Fault tolerance.**  Each task runs inside a bounded retry loop.  A task
attempt can fail three ways: the configured
:class:`repro.execution.faults.FaultInjector` dooms the attempt (or one
of its split reads), the operator pipeline raises a real
:class:`~repro.common.errors.PrestoError`, or the attempt's simulated
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

from contextlib import nullcontext
from dataclasses import dataclass, fields, replace as dc_replace
from typing import Optional

from repro.common.errors import (
    EngineDefectError,
    ExecutionError,
    InvalidValueError,
    PrestoError,
    TaskTimeoutError,
)
from repro.core.expressions import (
    VariableReferenceExpression,
    combine_conjuncts,
)
from repro.core.page import Page
from repro.execution.context import ExecutionContext
from repro.execution.driver import execute_plan, record_operator_spans
from repro.execution.dynamic_filters import DynamicFilterSet, dynamic_filter_for
from repro.execution.exchange import ExchangeBuffer, key_channels_for
from repro.execution.faults import FaultInjector
from repro.execution.kernels import TARGET_PARTITION_ROWS
from repro.execution.operators.scan import plan_scan
from repro.planner.fragmenter import (
    Exchange,
    FragmentedPlan,
    PlanFragment,
    RemoteSourceNode,
)
from repro.planner.plan import (
    FilterNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    TableScanNode,
)

# Join types whose probe side drops rows lacking a build-side match; only
# these may have their probe scans dynamically filtered.
_DYNAMIC_FILTER_JOIN_TYPES = ("inner", "right")

# Cost model: simulated milliseconds per task (task creation, the
# coordinator RPC of section VIII) and per row in and out of a task.
TASK_OVERHEAD_MS = 1.0
ROW_COST_MS = 0.001
# Simulated backoff before a task's first retry; it doubles per retry.
RETRY_BACKOFF_MS = 10.0


@dataclass
class TaskRecord:
    """One executed task: the unit the cluster simulation schedules.

    ``attempts`` counts every execution attempt including the successful
    one; ``failed`` marks a task that exhausted its retries (or hit a
    non-retryable error) and killed the query.
    """

    stage: int
    task: int
    splits: int
    rows_in: int
    rows_out: int
    data_key: str
    sim_ms: float
    data_bytes: int = 0
    attempts: int = 1
    failed: bool = False

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class QueryScheduler:
    """Steppable execution of one query's :class:`FragmentedPlan`.

    Holds everything one query's execution needs (exchange buffers, the
    current fragment's planned tasks, the open stage span) so it can be
    advanced one task at a time — by a blocking loop
    (:meth:`QueryHandle.run_to_completion
    <repro.execution.engine.QueryHandle.run_to_completion>`) or from a
    cluster-level event loop, interleaved with other queries on the
    shared simulated clock.

    Each :meth:`step` runs exactly one task — retries, trace charging,
    exchange commits, and stats accounting included — so traces and
    :class:`QueryStats` are byte-identical however the steps are driven.
    The *ready-task frontier* is the remainder of the current stage:
    fragments are topologically ordered and a stage's tasks are planned
    lazily when the previous stage's output buffers are complete.

    A source or hash stage is as wide as its rows, ``TARGET_PARTITION_ROWS``
    per task: the rows its splits hold, at most one task per split, or
    the rows its producers buffered, at most ``hash_partitions`` tasks.
    The cost model charges ``TASK_OVERHEAD_MS`` per task plus
    ``ROW_COST_MS`` per row in and out — deterministic, derived only from
    real row counts, so the same query always produces the same simulated
    schedule.

    ``fault_injector`` (optional) dooms a deterministic fraction of task
    attempts and split reads (an attempt fails when any of its splits'
    reads is doomed); ``max_task_retries`` bounds how many times
    a task is re-run after a retryable failure, each retry charging
    ``RETRY_BACKOFF_MS * 2**(attempt-1)`` of simulated backoff; a task
    whose attempt cost exceeds ``task_timeout_ms`` (when set) fails with
    a retryable :class:`TaskTimeoutError`.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        fragmented: FragmentedPlan,
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
        self.fragmented = fragmented
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
        self._consumer_exchanges = [
            exchange
            for fragment in fragmented.fragments
            for exchange in fragment.inputs
        ]
        self.result_pages: list[Page] = []
        self.done = False
        self._fragment_index = 0
        self._tasks: Optional[list] = None
        self._task_index = 0
        self._out_buffers: list[ExchangeBuffer] = []
        self._stage_span = None
        self._stage_rows_in = 0
        self._stage_rows_out = 0
        self._stage_sim_ms = 0.0

    # -- observability -------------------------------------------------------

    # No series carries a query id: the registry is bounded by kinds of
    # things, and the per-query numbers are in QueryStats and the trace.

    def _count_task(self, name: str, stage: int, amount: float = 1.0) -> None:
        if self.ctx.metrics is not None:
            self.ctx.metrics.counter(name, stage=stage).inc(amount)

    def _record_exchange(
        self, buffer: ExchangeBuffer, task_index: int, rows: int, pages: list[Page]
    ) -> None:
        """Account one task's committed pages into one output exchange.

        Every row of ``stats.rows_exchanged`` flows through exactly one
        commit, so the exchange spans (and the ``exchange_rows_total``
        series) sum back to it exactly.
        """
        kind = buffer.exchange.kind if buffer.exchange is not None else "GATHER"
        size = sum(page.size_in_bytes() for page in pages)
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
        fragment: PlanFragment,
        task_index: int,
        task_plan: tuple[Optional[dict], dict, str, int],
    ) -> tuple[TaskRecord, list[Page]]:
        """Run one task to success (or terminal failure) with retries.

        Trace-clock accounting mirrors the cost model exactly: a failed
        attempt advances ``TASK_OVERHEAD_MS``, each retry backoff advances
        its charge, and a successful attempt advances ``work_ms`` — so the
        task span's duration equals the task record's ``sim_ms`` and the
        whole trace telescopes to ``stats.simulated_ms``.
        """
        scan_splits, exchange_inputs, data_key, split_count = task_plan
        stats = self.ctx.stats
        tracer = self.ctx.tracer
        stage = fragment.fragment_id
        attempts = 0
        penalty_ms = 0.0  # failed-attempt overheads + retry backoffs
        task_span = (
            tracer.span(
                "task", stage=stage, task=task_index, data_key=data_key,
                splits=split_count,
            )
            if tracer is not None
            else nullcontext()
        )
        with task_span:
            while True:
                attempts += 1
                attempt_span = (
                    tracer.span("attempt", stage=stage, task=task_index,
                                attempt=attempts)
                    if tracer is not None
                    else nullcontext()
                )
                try:
                    with attempt_span as span:
                        try:
                            rows_in, rows_out, pages = self._run_attempt(
                                fragment, task_index, task_plan, attempts
                            )
                            work_ms = TASK_OVERHEAD_MS + ROW_COST_MS * (
                                rows_in + rows_out
                            )
                            if (
                                self.task_timeout_ms is not None
                                and work_ms > self.task_timeout_ms
                            ):
                                raise TaskTimeoutError(
                                    f"task {task_index} of stage {stage} exceeded its "
                                    f"{self.task_timeout_ms}ms budget ({work_ms:.2f}ms)"
                                )
                        except PrestoError as error:
                            if tracer is not None:
                                # A failed attempt costs the task setup overhead.
                                tracer.advance(TASK_OVERHEAD_MS)
                                span.set(outcome="failed",
                                         error=type(error).__name__)
                            raise
                        if tracer is not None:
                            tracer.advance(work_ms)
                            span.set(outcome="ok", rows_in=rows_in,
                                     rows_out=rows_out)
                    record = TaskRecord(
                        stage=stage,
                        task=task_index,
                        splits=split_count,
                        rows_in=rows_in,
                        rows_out=rows_out,
                        data_key=data_key,
                        sim_ms=work_ms + penalty_ms,
                        data_bytes=sum(page.size_in_bytes() for page in pages),
                        attempts=attempts,
                    )
                    return record, pages
                except PrestoError as error:
                    # A failed attempt still costs the task setup overhead.
                    penalty_ms += TASK_OVERHEAD_MS
                    if not error.retryable or attempts > self.max_task_retries:
                        stats.tasks_failed += 1
                        self._count_task("scheduler_tasks_failed_total", stage)
                        stats.simulated_ms += penalty_ms
                        stats.task_records.append(
                            TaskRecord(
                                stage=stage,
                                task=task_index,
                                splits=split_count,
                                rows_in=0,
                                rows_out=0,
                                data_key=data_key,
                                sim_ms=penalty_ms,
                                attempts=attempts,
                                failed=True,
                            ).as_dict()
                        )
                        stats.tasks_total += 1
                        self._count_task("scheduler_tasks_run_total", stage)
                        raise
                    stats.tasks_retried += 1
                    self._count_task("scheduler_tasks_retried_total", stage)
                    # Exponential backoff, charged to the simulated clock only
                    # (deterministic — no wall-clock sleeping).
                    backoff_ms = RETRY_BACKOFF_MS * (2 ** (attempts - 1))
                    penalty_ms += backoff_ms
                    self._count_task(
                        "scheduler_retry_backoff_ms_total", stage, backoff_ms
                    )
                    if tracer is not None:
                        with tracer.span(
                            "backoff", stage=stage, task=task_index,
                            attempt=attempts, backoff_ms=backoff_ms,
                        ):
                            tracer.advance(backoff_ms)

    def _run_attempt(
        self,
        fragment: PlanFragment,
        task_index: int,
        task_plan: tuple[Optional[dict], dict, str, int],
        attempt: int,
    ) -> tuple[int, int, list[Page]]:
        """One execution attempt: returns (rows_in, rows_out, pages)."""
        scan_splits, exchange_inputs, data_key, _ = task_plan
        stats = self.ctx.stats
        injector = self.fault_injector
        if injector is not None:
            injector.maybe_fail_task(
                stats.query_id, fragment.fragment_id, task_index, attempt
            )
            for splits in (scan_splits or {}).values():
                for split in splits:
                    injector.maybe_fail_split(
                        stats.query_id,
                        fragment.fragment_id,
                        task_index,
                        split.split_id,
                        attempt,
                    )
        tracer = self.ctx.tracer
        task_ctx = dc_replace(
            self.ctx,
            scan_splits=scan_splits,
            exchange_inputs=exchange_inputs,
            operator_rows={} if tracer is not None else None,
        )
        rows_in = sum(
            page.position_count
            for pages in (exchange_inputs or {}).values()
            for page in pages
        )
        scanned_before = stats.rows_scanned
        try:
            pages = [page.loaded() for page in execute_plan(fragment.root, task_ctx)]
        except PrestoError:
            raise
        except Exception as error:
            raise _categorized(error) from error
        finally:
            # Emit operator spans even when the pipeline fails mid-drain:
            # the rows it did process are in QueryStats, so the spans must
            # account for them too.
            if tracer is not None:
                record_operator_spans(tracer, fragment.root, task_ctx.operator_rows)
        rows_in += stats.rows_scanned - scanned_before
        rows_out = sum(page.position_count for page in pages)
        return rows_in, rows_out, pages

    # -- task planning -------------------------------------------------------

    def _plan_tasks(
        self, fragment: PlanFragment
    ) -> list[tuple[Optional[dict], dict, str, int]]:
        """One entry per task: (scan_splits, exchange_inputs, data_key, splits)."""
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

        scans = _find_table_scans(fragment.root)
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
        return self.fragmented.fragments[self._fragment_index].fragment_id

    # -- stage lifecycle ------------------------------------------------------

    def _begin_stage(self, fragment: PlanFragment) -> None:
        outgoing = [
            e
            for e in self._consumer_exchanges
            if e.source_fragment == fragment.fragment_id
        ]
        self._out_buffers = []
        for exchange in outgoing:
            key_channels = (
                key_channels_for(exchange, fragment.root)
                if exchange.partitioned
                else None
            )
            buffer = ExchangeBuffer(exchange, key_channels)
            self.buffers[exchange] = buffer
            self._out_buffers.append(buffer)

        if self.dynamic_filtering:
            self._collect_dynamic_filters(fragment)
        self._tasks = self._plan_tasks(fragment)
        self._task_index = 0
        self._stage_rows_in = 0
        self._stage_rows_out = 0
        self._stage_sim_ms = 0.0
        tracer = self.ctx.tracer
        if tracer is not None:
            self._stage_span = tracer.open_span(
                "stage",
                stage=fragment.fragment_id,
                distribution=fragment.distribution,
                tasks=len(self._tasks),
            )

    # -- dynamic filters ------------------------------------------------------

    def _collect_dynamic_filters(self, fragment: PlanFragment) -> None:
        """Summarize completed build sides feeding this fragment's joins.

        Runs when the stage begins — the fragmenter schedules every build
        fragment strictly before the fragment holding its join, so the
        build exchange buffers are complete here, before any probe-side
        split has been planned.  Filters are built exactly once per query
        (this method runs once per stage) and task retries re-read the
        same :class:`DynamicFilterSet`, so a retried probe task can never
        observe — or double-apply — a different filter.
        """
        ctx = self.ctx
        assert ctx.dynamic_filters is not None
        for node in fragment.root.walk():
            if (
                not isinstance(node, JoinNode)
                or node.join_type not in _DYNAMIC_FILTER_JOIN_TYPES
                or not node.criteria
                or not isinstance(node.right, RemoteSourceNode)
            ):
                continue
            buffer = self.buffers.get(node.right.exchange)
            if buffer is None:
                continue
            build_names = [v.name for v in node.right.outputs]
            build_pages = buffer.all_pages()
            for left_variable, right_variable in node.criteria:
                if right_variable.name not in build_names:
                    continue
                if right_variable.type.is_nested():
                    continue  # an ARRAY key has no expression form
                traced = _trace_to_scan_column(node.left, left_variable.name)
                if traced is None:
                    continue  # probe key is computed, or lives beyond an exchange
                scan, column = traced
                channel = build_names.index(right_variable.name)
                dynamic_filter = dynamic_filter_for(
                    [page.block(channel) for page in build_pages]
                )
                filter_set = ctx.dynamic_filters.setdefault(
                    scan.id, DynamicFilterSet()
                )
                filter_set.filters.setdefault(column, []).append(dynamic_filter)
                ctx.stats.dynamic_filters_built += 1
                self._count_task(
                    "scheduler_dynamic_filters_built_total", fragment.fragment_id
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
                self._refresh_filter_expression(scan, filter_set)

    def _refresh_filter_expression(
        self, scan: TableScanNode, filter_set: DynamicFilterSet
    ) -> None:
        """Re-serialize the set's expression form over connector columns."""
        types_by_variable = {v.name: v.type for v in scan.output_variables}
        column_types = {
            column: types_by_variable[variable]
            for variable, column in scan.assignments
            if variable in types_by_variable
        }
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

    def _end_stage(self, fragment: PlanFragment) -> None:
        stats = self.ctx.stats
        tracer = self.ctx.tracer
        if tracer is not None and self._stage_span is not None:
            tracer.close_span(self._stage_span)
        self._stage_span = None
        stats.stages_total += 1
        stats.simulated_ms += self._stage_sim_ms
        stats.stage_summaries.append(
            {
                "stage": fragment.fragment_id,
                "distribution": fragment.distribution,
                "tasks": len(self._tasks or []),
                "rows_in": self._stage_rows_in,
                "rows_out": self._stage_rows_out,
                "sim_ms": self._stage_sim_ms,
            }
        )
        self._tasks = None
        self._fragment_index += 1

    def _fail(self) -> None:
        """Terminal failure: charge the open stage's finished tasks, close
        its span, freeze the machine."""
        if self._tasks is not None:
            # The trace clock advanced for them already (the failed task
            # charged its own attempts).
            self.ctx.stats.simulated_ms += self._stage_sim_ms
        tracer = self.ctx.tracer
        if tracer is not None and self._stage_span is not None:
            tracer.close_span(self._stage_span)
        self._stage_span = None
        self._release()

    def _finish(self) -> None:
        self.ctx.stats.rows_exchanged = sum(
            b.rows_added for b in self.buffers.values()
        )
        self._release()

    def _release(self) -> None:
        """Done: keep ``result_pages``, drop every stage's intermediates.

        A cluster keeps finished handles for its lifetime; without this
        each would pin every exchange page of every stage.
        """
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
        stats = self.ctx.stats
        fragments = self.fragmented.fragments
        fragment = fragments[self._fragment_index]
        try:
            if self._tasks is None:
                self._begin_stage(fragment)
            task_index = self._task_index
            record, pages = self._run_task(
                fragment, task_index, self._tasks[task_index]
            )
        except PrestoError:
            self._fail()
            raise
        except Exception as error:
            # Building dynamic filters and planning splits run outside any
            # task attempt: what they raise raw is categorized the same way.
            self._fail()
            raise _categorized(error) from error
        # Commit only after success: a retried attempt never
        # double-publishes rows.
        if fragment.fragment_id == self.fragmented.root_fragment.fragment_id:
            self.result_pages.extend(pages)
        else:
            for buffer in self._out_buffers:
                before = buffer.rows_added
                for page in pages:
                    buffer.add(page)
                self._record_exchange(
                    buffer, task_index, buffer.rows_added - before, pages
                )
        stats.task_records.append(record.as_dict())
        stats.tasks_total += 1
        self._count_task("scheduler_tasks_run_total", fragment.fragment_id)
        if self.ctx.metrics is not None:
            self.ctx.metrics.histogram("scheduler_task_sim_ms").observe(record.sim_ms)
        self._stage_rows_in += record.rows_in
        self._stage_rows_out += record.rows_out
        self._stage_sim_ms += record.sim_ms

        self._task_index += 1
        if self._task_index >= len(self._tasks):
            self._end_stage(fragment)
            if self._fragment_index >= len(fragments):
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
    if any(split.rows is None for split in splits):
        return [[split] for split in splits]
    total = sum(split.rows for split in splits)
    width = _stage_width(total, len(splits))
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


def _trace_to_scan_column(
    node: PlanNode, name: str
) -> Optional[tuple[TableScanNode, str]]:
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


def _find_table_scans(node: PlanNode) -> list[TableScanNode]:
    """The fragment's scans, pre-order; a remote source has no sources."""
    return [n for n in node.walk() if isinstance(n, TableScanNode)]
