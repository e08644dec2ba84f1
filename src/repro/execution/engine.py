"""The engine facade: SQL string in, rows out.

Mirrors figure 1 end to end: parse → analyze → optimize → execute.  This
is the object examples and benchmarks interact with; distributed concerns
(clusters, gateways, elasticity) wrap around it in
:mod:`repro.execution.cluster` and :mod:`repro.federation`.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.cache.lru import LruCache
from repro.common.clock import SimulatedClock
from repro.common.errors import ExecutionError, PrestoError, SemanticError
from repro.connectors.spi import Catalog
from repro.core.functions import FunctionRegistry, default_registry
from repro.core.page import Page
from repro.execution.context import ExecutionContext, QueryStats
from repro.execution.driver import execute_plan, record_operator_spans
from repro.execution.scheduler import QueryScheduler
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import QueryTrace, activate, current_tracer
from repro.planner.analyzer import Analyzer, Session
from repro.planner.fragmenter import FragmentedPlan, Fragmenter
from repro.planner.optimizer import Optimizer
from repro.planner.plan import OutputNode
from repro.sql import ast, parse_sql, parse_statement

# Prepared queries one engine keeps, bounded the way COMPILE_CACHE_SIZE
# bounds compiled expressions: a dashboard's texts fit many times over.
PLAN_CACHE_SIZE = 256


@dataclass(frozen=True)
class PreparedQuery:
    """A query planned once: its optimized plan and that plan's stages.

    Plan nodes are frozen and every run keeps its state in its own
    ``ExecutionContext`` and scheduler, so one prepared query serves any
    number of runs, staged, direct or concurrent.
    """

    plan: OutputNode
    fragmented: FragmentedPlan


@dataclass
class QueryResult:
    """Materialized query result."""

    column_names: list[str]
    rows: list[tuple]
    stats: QueryStats
    # The query's span tree (None when the engine runs with tracing off).
    trace: Optional[QueryTrace] = None

    @classmethod
    def from_pages(
        cls, column_names, pages: Iterable[Page], stats: QueryStats, trace=None
    ) -> "QueryResult":
        """Drain ``pages`` into rows: the one place pages become a result."""
        rows: list[tuple] = []
        for page in pages:
            rows.extend(page.to_rows())
        return cls(list(column_names), rows, stats, trace)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[Any]:
        index = self.column_names.index(name)
        return [row[index] for row in self.rows]

    def to_dicts(self) -> list[dict]:
        return [dict(zip(self.column_names, row)) for row in self.rows]

    def __repr__(self) -> str:
        return f"QueryResult(columns={self.column_names}, rows={len(self.rows)})"


class QueryHandle:
    """A submitted-but-not-finished query: the non-blocking execute.

    Returned by :meth:`PrestoEngine.submit`.  Each :meth:`step` advances
    the underlying :class:`~repro.execution.scheduler.QueryScheduler` by
    exactly one task, so a cluster event loop can interleave many
    queries' tasks on the shared simulated clock.  Driving a handle to
    completion produces a :class:`QueryResult` (and trace) byte-identical
    to the blocking :meth:`PrestoEngine.execute` path — the handle merely
    re-activates its tracer around each step instead of holding it active
    across the whole query.
    """

    def __init__(
        self, engine: "PrestoEngine", plan, ctx, machine, result: Optional[QueryResult] = None
    ) -> None:
        # A metadata statement is answered at submit: its handle is born
        # finished, holding ``result`` and no plan, context or machine.
        self._engine = engine
        self._plan = plan
        self.ctx = ctx
        self._machine = machine
        self.trace: Optional[QueryTrace] = ctx.tracer if result is None else result.trace
        self.stats: QueryStats = ctx.stats if result is None else result.stats
        self.query_id: str = self.stats.query_id
        self.error: Optional[BaseException] = None
        self._query_span = None
        self._result = result

    # -- state ----------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._result is not None or self.error is not None

    @property
    def state(self) -> str:
        if self.error is not None:
            return "failed"
        if self._result is not None:
            return "finished"
        return "running"

    def peek_stage(self) -> Optional[int]:
        """Stage the next step will run in (None when nothing remains)."""
        return None if self.done else self._machine.peek_stage()

    # -- driving --------------------------------------------------------------

    def step(self):
        """Run one task; returns its ``TaskRecord`` (None if finished).

        On terminal failure the error is recorded on :attr:`error` *and*
        raised, mirroring the blocking path's exception behavior.
        """
        if self.done:
            return None
        tracer = self.trace
        with activate(tracer) if tracer is not None else nullcontext():
            if tracer is not None and self._query_span is None:
                self._query_span = tracer.open_span(
                    "query", query_id=self.query_id, path="staged"
                )
            try:
                step = self._machine.step()
            except PrestoError as error:
                self.error = error
                if tracer is not None and self._query_span is not None:
                    tracer.close_span(self._query_span)
                raise
        if self._machine.done:
            self._finalize()
        return step

    def _finalize(self) -> None:
        tracer = self.trace
        if tracer is not None:
            if self._query_span is not None:
                tracer.close_span(self._query_span)
            self._engine.metrics.histogram("query_simulated_ms").observe(
                self.ctx.stats.simulated_ms
            )
        self._result = QueryResult.from_pages(
            self._plan.column_names, self._machine.result_pages, self.ctx.stats, tracer
        )

    def run_to_completion(self) -> QueryResult:
        """Block until done; the legacy execute path is exactly this."""
        while not self.done:
            self.step()
        return self.result()

    def result(self) -> QueryResult:
        """The materialized result; raises the query's error if it failed."""
        if self.error is not None:
            raise self.error
        if self._result is None:
            raise ExecutionError(
                f"{self.query_id} still running; step it (or run_to_completion)"
            )
        return self._result


class PrestoEngine:
    """A single-coordinator query engine over a catalog of connectors."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        session: Optional[Session] = None,
        registry: Optional[FunctionRegistry] = None,
        clock: Optional[SimulatedClock] = None,
        max_build_rows: int = 10_000_000,
        enable_optimizer: bool = True,
        fragment_result_cache=None,
        hash_partitions: int = 4,
        fault_injector=None,
        max_task_retries: int = 3,
        task_timeout_ms: Optional[float] = None,
        enable_dynamic_filtering: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        tracing: bool = True,
    ) -> None:
        # The geospatial plugin registers its functions on import
        # (section VI.E: "Using the Presto plugin framework").
        import repro.geo.functions  # noqa: F401

        self.catalog = catalog or Catalog()
        self.session = session or Session()
        self.registry = registry or default_registry()
        self.clock = clock
        self.max_build_rows = max_build_rows
        self.fragment_result_cache = fragment_result_cache
        # Staged execution (section III): execute() fragments the plan and
        # runs it stage by stage through exchanges.  The direct pipeline
        # stays available as execute_direct(), the differential oracle.
        # hash_partitions caps a hash stage's task count; below the cap the
        # scheduler sizes each stage from the rows it observed.
        self.hash_partitions = hash_partitions
        # Fault tolerance (sections VIII/IX/XII.C): an optional seeded
        # FaultInjector dooms a deterministic fraction of task attempts;
        # the QueryScheduler retries retryable failures up to
        # max_task_retries with exponential simulated backoff.
        self.fault_injector = fault_injector
        self.max_task_retries = max_task_retries
        self.task_timeout_ms = task_timeout_ms
        # Adaptive execution: push each hash join's build-side key summary
        # into not-yet-started probe scans (staged execution only).
        self.enable_dynamic_filtering = enable_dynamic_filtering
        # Observability (on by default): every query gets a deterministic
        # span tree on ``QueryResult.trace``, and the engine's components
        # report into one shared metrics registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracing = tracing
        if self.fragment_result_cache is not None:
            self.fragment_result_cache.bind_metrics(self.metrics)
        self._query_sequence = itertools.count()
        # Simulated control-plane costs charged per query when a clock is
        # attached: coordinator parse/plan/schedule plus result streaming.
        self.coordinator_overhead_ms = 15.0
        self._optimizer = Optimizer(self.catalog, self.registry) if enable_optimizer else None
        # Query texts planned under a plan version (_plan_key), reused
        # until the session, a registration or a connector's version moves.
        self._plans = LruCache(PLAN_CACHE_SIZE, name="plan", metrics=self.metrics)

    # -- public API ----------------------------------------------------------

    def register_connector(self, catalog_name: str, connector) -> None:
        self.catalog.register(catalog_name, connector)

    def plan(self, sql: str) -> OutputNode:
        """Parse, analyze and optimize ``sql``, returning the final plan."""
        return self._plan_query(parse_sql(sql))

    def _plan_query(self, query: ast.Query) -> OutputNode:
        plan = Analyzer(self.catalog, self.session, self.registry).analyze(query)
        if self._optimizer is not None:
            plan = self._optimizer.optimize(plan, self.session)
        return plan

    def explain(self, sql: str) -> str:
        """EXPLAIN-style rendering of the optimized plan.

        Nodes whose subtree has ANALYZE statistics carry an estimated row
        count; un-analyzed plans render exactly as before.
        """
        return self._explain(parse_sql(sql), "logical")

    def explain_distributed(self, sql: str) -> str:
        """EXPLAIN (TYPE DISTRIBUTED): the plan divided into fragments.

        Shows the stages of section III — where partial aggregations run,
        where the build side of a join is exchanged, where results gather.
        """
        return self._explain(parse_sql(sql), "distributed")

    def explain_analyze(self, sql: str) -> str:
        """EXPLAIN ANALYZE: run staged, report per-stage execution stats."""
        return self._explain(parse_sql(sql), "analyze")

    def _explain(self, query: ast.Query, mode: str) -> str:
        """The text of ``EXPLAIN`` over ``query`` in an ``ast.Explain`` mode."""
        prepared = self._prepare(query)
        if mode == "distributed":
            return prepared.fragmented.describe()
        if mode == "analyze":
            return self._run_and_report(prepared)
        plan = prepared.plan
        from repro.planner.cost import CostEstimator
        from repro.planner.stats import StatsProvider

        estimator = CostEstimator(StatsProvider(self.catalog))

        def annotate(node) -> str:
            estimate = estimator.estimate(node)
            if estimate is None:
                return ""
            return f"{{rows: {_format_row_estimate(estimate.row_count)}}}"

        return plan.pretty(annotate=annotate)

    def execute(self, sql: str) -> QueryResult:
        """Run ``sql`` to completion and materialize the result.

        SELECT queries run through staged execution: the plan is
        fragmented (section III), each fragment runs as a stage of tasks,
        and pages move between stages over exchange buffers.
        :meth:`execute_direct` is the single-pipeline reference.

        ``sql`` is any statement of the grammar in ``docs/API.md``
        ("Statement grammar"): a query or EXPLAIN / SHOW / DESCRIBE /
        ANALYZE, with an optional trailing ``;``.
        """
        # The blocking path is the steppable path driven to completion in
        # one go — one code path, so traces/stats cannot drift between
        # single-query and concurrent execution.
        return self._dispatch(
            sql, lambda prepared: self._submit_plan(prepared).run_to_completion()
        )

    def execute_direct(self, sql: str) -> QueryResult:
        """Run ``sql`` through the single in-process pipeline.

        The pre-staged execution path, retained as the differential
        oracle (the convention the operator kernels also follow): staged
        and direct execution must return the same rows.
        """
        return self._dispatch(sql, self._execute_pipeline)

    def submit(self, sql: str) -> QueryHandle:
        """Non-blocking submit: plan ``sql`` and return a steppable handle.

        Planning/analysis runs eagerly (it is coordinator work and can
        raise USER_ERRORs synchronously, as Presto's POST /v1/statement
        does); execution advances only as the caller — normally a
        cluster's event loop — steps the handle.  Metadata statements
        complete immediately.
        """
        outcome = self._dispatch(sql, self._submit_plan)
        if isinstance(outcome, QueryResult):
            return QueryHandle(self, None, None, None, result=outcome)
        return outcome

    def _dispatch(self, sql: str, run_query: Callable[[PreparedQuery], Any]):
        """The one way in: hand the prepared query to ``run_query`` (the
        path the calling method stands for), or answer the metadata
        statement here.

        A query text already planned under the current plan version is
        not read again; anything else is tokenized and parsed once, and a
        query it plans is kept for the next time.
        """
        key = self._plan_key(sql)
        prepared = None if key is None else self._plans.get(key)
        if prepared is None:
            try:
                statement = parse_statement(sql)
                if isinstance(statement, ast.Query):
                    prepared = self._prepare(statement)
                elif isinstance(statement, ast.Explain):
                    text = self._explain(statement.query, statement.mode)
                    return _answer(["Query Plan"], [(line,) for line in text.splitlines()])
                else:
                    return self._run_metadata_statement(statement)
            except RecursionError:
                raise SemanticError("statement is nested too deeply to plan") from None
            if key is not None:
                self._plans.put(key, prepared)
        return run_query(prepared)

    def _plan_key(self, sql: str) -> Optional[tuple]:
        """``sql`` with everything its plan depends on: the session's
        namespace and properties, the catalog's registrations and every
        connector's ``plan_version()``; ``None`` when a connector's plans
        are never reused."""
        catalog_version = self.catalog.plan_version()
        if catalog_version is None:
            return None
        session = self.session
        properties = tuple(sorted(session.properties.items()))
        return (sql, session.catalog, session.schema, properties, catalog_version)

    def _prepare(self, query: ast.Query) -> PreparedQuery:
        plan = self._plan_query(query)
        return PreparedQuery(plan, Fragmenter().fragment(plan))

    def _run_metadata_statement(self, statement: ast.Statement) -> QueryResult:
        session = self.session
        if isinstance(statement, ast.ShowCatalogs):
            return _answer(["Catalog"], [(c,) for c in self.catalog.catalog_names()])
        if isinstance(statement, ast.ShowSchemas):
            catalog_name = statement.catalog or session.catalog
            if catalog_name is None:
                raise SemanticError("SHOW SCHEMAS requires a catalog")
            connector = self.catalog.connector(catalog_name)
            return _answer(["Schema"], [(s,) for s in connector.list_schemas()])
        if isinstance(statement, ast.ShowTables):
            catalog_name = statement.catalog or session.catalog
            schema_name = statement.schema or session.schema
            if catalog_name is None or schema_name is None:
                raise SemanticError("SHOW TABLES requires a catalog and schema")
            connector = self.catalog.connector(catalog_name)
            return _answer(["Table"], [(t,) for t in connector.list_tables(schema_name)])
        # DESCRIBE and ANALYZE name a table by the rules of a FROM clause.
        analyzer = Analyzer(self.catalog, session, self.registry)
        qualified, connector, handle = analyzer.resolve_table(statement.table)
        if isinstance(statement, ast.Describe):
            columns = connector.get_table_metadata(handle).columns
            return _answer(["Column", "Type"], [(c.name, c.type.display()) for c in columns])
        statistics = connector.collect_table_statistics(handle)
        if statistics is None:
            raise SemanticError(f"connector {qualified[0]!r} does not support ANALYZE")
        self.metrics.counter("engine_tables_analyzed_total").inc()
        return _answer(
            ["Table", "Rows", "Columns Analyzed"],
            [(".".join(qualified), statistics.row_count, len(statistics.columns))],
        )

    def _submit_plan(self, prepared: PreparedQuery) -> QueryHandle:
        ctx = self._fresh_context()
        machine = QueryScheduler(
            ctx,
            prepared.fragmented,
            hash_partitions=self.hash_partitions,
            fault_injector=self.fault_injector,
            max_task_retries=self.max_task_retries,
            task_timeout_ms=self.task_timeout_ms,
            dynamic_filtering=self.enable_dynamic_filtering,
        )
        return QueryHandle(self, prepared.plan, ctx, machine)

    # -- internals -----------------------------------------------------------

    def _fresh_context(self) -> ExecutionContext:
        if self.clock is not None:
            self.clock.advance(self.coordinator_overhead_ms)
        tracer = None
        if self.tracing:
            # Inside a gateway/cluster submission the trace already exists
            # (with routing and admission spans open); the engine's spans
            # nest under it.  Standalone queries get their own tree.
            tracer = current_tracer()
            if tracer is None:
                tracer = QueryTrace()
        stats = QueryStats(query_id=f"query-{next(self._query_sequence)}")
        self.metrics.counter("engine_queries_total").inc()
        return ExecutionContext(
            catalog=self.catalog,
            session=self.session,
            registry=self.registry,
            clock=self.clock,
            max_build_rows=self.max_build_rows,
            fragment_cache=self.fragment_result_cache,
            stats=stats,
            tracer=tracer,
            metrics=self.metrics,
        )

    def _execute_pipeline(self, prepared: PreparedQuery) -> QueryResult:
        plan = prepared.plan
        ctx = self._fresh_context()
        tracer = ctx.tracer
        if tracer is None:
            return QueryResult.from_pages(
                plan.column_names, execute_plan(plan, ctx), ctx.stats
            )
        ctx.operator_rows = {}
        with activate(tracer), tracer.span(
            "query", query_id=ctx.stats.query_id, path="direct"
        ):
            try:
                return QueryResult.from_pages(
                    plan.column_names, execute_plan(plan, ctx), ctx.stats, tracer
                )
            finally:
                record_operator_spans(tracer, plan, ctx.operator_rows)

    def _run_and_report(self, prepared: PreparedQuery) -> str:
        fragmented = prepared.fragmented
        result = self._submit_plan(prepared).run_to_completion()
        stats = result.stats
        lines = [
            f"Query: {stats.stages_total} stages, {stats.tasks_total} tasks "
            f"({stats.tasks_retried} retried, {stats.tasks_failed} failed), "
            f"{stats.rows_exchanged} rows exchanged, "
            f"{stats.simulated_ms:.2f} simulated ms",
            f"Expressions: {stats.expr_positions_vectorized} positions vectorized, "
            f"{stats.expr_positions_fallback} row-at-a-time, "
            f"{stats.expr_positions_dictionary_saved} saved by dictionary evaluation",
        ]
        if stats.dynamic_filters_built:
            skipped = (
                stats.row_groups_skipped_by_stats
                + stats.row_groups_skipped_by_dictionary
                + stats.row_groups_skipped_by_dynamic_filter
            )
            lines.append(
                f"Dynamic filters: {stats.dynamic_filters_built} built, "
                f"{stats.dynamic_filter_splits_skipped} splits skipped, "
                f"{stats.row_groups_skipped_by_dynamic_filter}/"
                f"{stats.row_groups_total} row groups skipped "
                f"({skipped} by all pruning tiers), "
                f"{stats.dynamic_filter_rows_pruned} rows pruned at scan"
            )
        for summary in reversed(stats.stage_summaries):
            fragment = fragmented.fragment_by_id(summary["stage"])
            lines.append(
                f"Stage {summary['stage']} [{summary['distribution']}]: "
                f"{summary['tasks']} tasks, rows in {summary['rows_in']}, "
                f"rows out {summary['rows_out']}, "
                f"{summary['sim_ms']:.2f} simulated ms"
            )
            lines.extend("  " + line for line in fragment.root.pretty().splitlines())
        if result.trace is not None:
            query_spans = result.trace.find("query")
            if query_spans:
                entries = result.trace.critical_path(query_spans[0])
                total = sum(entry.contribution_ms for entry in entries)
                lines.append(f"Critical path: {total:.2f} simulated ms")
                for entry in entries:
                    attrs = ", ".join(
                        f"{key}={value}"
                        for key, value in sorted(entry.span.attributes.items())
                    )
                    lines.append(
                        f"  {entry.span.name} [{attrs}]: "
                        f"{entry.contribution_ms:.2f} ms"
                    )
        return "\n".join(lines)


def _format_row_estimate(rows: float) -> str:
    if rows >= 100 or rows == int(rows):
        return str(int(round(rows)))
    return f"{rows:.2f}"


def _answer(column_names: list[str], rows: list[tuple]) -> QueryResult:
    """A metadata statement's result: made at the coordinator, no stages run."""
    return QueryResult(column_names, rows, QueryStats())
