"""The single-pipeline run: staged execution's reference.

:func:`execute_direct` runs a query's whole optimized plan as one pull
pipeline in this process, with no fragments, stages, tasks or exchanges:
the path the engine took before staged execution.  It enters through the
engine's front door (:meth:`PrestoEngine.dispatch`), so it shares the plan
cache and answers metadata statements as ``execute`` does.  Staged and
direct execution must return the same rows; the differential tests, the
fault-tolerance benchmark and the lakehouse oracle compare against it.
"""

from __future__ import annotations

from repro.execution.context import ExecutionContext
from repro.execution.driver import execute_plan, operator_ordinals, record_operator_spans
from repro.execution.engine import PreparedQuery, PrestoEngine, QueryResult
from repro.obs.trace import activate


def execute_direct(engine: PrestoEngine, sql: str) -> QueryResult:
    """Run ``sql`` on ``engine`` through the single in-process pipeline."""
    return engine.dispatch(sql, _execute_pipeline)


def _execute_pipeline(prepared: PreparedQuery, ctx: ExecutionContext) -> QueryResult:
    plan = prepared.plan
    tracer = ctx.tracer
    if tracer is None:
        with ctx:
            return QueryResult.from_pages(
                plan.column_names, execute_plan(plan, ctx), ctx.stats
            )
    ctx.operator_rows = {}
    with ctx, activate(tracer), tracer.span(
        "query", query_id=ctx.stats.query_id, path="direct"
    ):
        try:
            return QueryResult.from_pages(
                plan.column_names, execute_plan(plan, ctx), ctx.stats, tracer
            )
        finally:
            record_operator_spans(tracer, operator_ordinals(plan), ctx.operator_rows)
