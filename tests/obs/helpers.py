"""Trace-driven invariant helpers, shared across suites.

These assertions tie the observability layer to the engine's own
accounting: any drift between what the spans say and what
:class:`~repro.execution.context.QueryStats` counted is a bug in one of
them.  They are used by the TPC-H end-to-end, fault-tolerance and
staged-differential suites, so every staged query those suites run —
including retried and failed-over ones — is checked for:

- a well-formed span tree (unique ids, existing parents, child intervals
  nested inside their parents, every span closed);
- a critical path that sums to exactly the query's simulated
  milliseconds;
- operator/exchange span row counts that reconcile with the
  ``rows_scanned`` / ``rows_output`` / ``rows_exchanged`` counters;
- attempt/backoff span counts that reconcile with ``tasks_total`` /
  ``tasks_retried``;
- metrics-registry series that reconcile with the same counters.
"""

from __future__ import annotations

import collections
import weakref

import pytest


def assert_well_formed(trace) -> None:
    """Structural invariants of one span tree."""
    assert trace.spans, "trace has no spans"
    ids = [span.span_id for span in trace.spans]
    assert len(ids) == len(set(ids)), "span ids are not unique"
    by_id = {span.span_id: span for span in trace.spans}
    roots = [span for span in trace.spans if span.parent_id is None]
    assert len(roots) == 1, f"expected a single root span, got {len(roots)}"
    for span in trace.spans:
        assert span.end_ms is not None, f"span {span.name} never closed"
        assert span.end_ms >= span.start_ms
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        assert parent is not None, f"span {span.name} has unknown parent"
        assert parent.span_id < span.span_id, "parent created after child"
        assert parent.start_ms <= span.start_ms, (
            f"{span.name} starts before its parent {parent.name}"
        )
        assert span.end_ms <= parent.end_ms, (
            f"{span.name} ends after its parent {parent.name}"
        )


def query_span(trace):
    """The query span the trace's QueryStats describe.

    A gateway trace can hold several ``query`` spans (one per failover
    attempt); the stats returned to the client belong to the last one.
    """
    spans = trace.find("query")
    assert spans, "trace has no query span"
    return spans[-1]


def spans_under(trace, root):
    """``root`` plus all its descendants."""
    selected = {root.span_id}
    result = [root]
    for span in trace.spans:
        if span.parent_id in selected:
            selected.add(span.span_id)
            result.append(span)
    return result


def assert_trace_reconciles(result) -> None:
    """Span row/time accounting must match the result's QueryStats."""
    trace, stats = result.trace, result.stats
    assert trace is not None, "query ran without a trace"
    assert_well_formed(trace)
    query = query_span(trace)
    under = spans_under(trace, query)

    # The scheduler is the only component that advances the trace clock,
    # charging exactly the cost model's milliseconds — so the query span's
    # duration, and the critical path through it, telescope to the
    # simulated time.  (Float tolerance: the two sides add the same terms
    # in different orders.)
    assert query.duration_ms == pytest.approx(stats.simulated_ms, abs=1e-6)
    assert trace.critical_path_ms(query) == pytest.approx(
        stats.simulated_ms, abs=1e-6
    )

    operators = [s for s in under if s.name == "operator"]
    scan_rows = sum(
        s.attributes["rows"]
        for s in operators
        if s.attributes["node"] == "TableScanNode"
    )
    assert scan_rows == stats.rows_scanned
    output_rows = sum(
        s.attributes["rows"]
        for s in operators
        if s.attributes["node"] == "OutputNode"
    )
    assert output_rows == stats.rows_output

    exchange_rows = sum(
        s.attributes["rows"] for s in under if s.name == "exchange"
    )
    assert exchange_rows == stats.rows_exchanged

    tasks = [s for s in under if s.name == "task"]
    attempts = [s for s in under if s.name == "attempt"]
    backoffs = [s for s in under if s.name == "backoff"]
    assert len(tasks) == stats.tasks_total
    assert len(attempts) == stats.tasks_total + stats.tasks_retried
    assert len(backoffs) == stats.tasks_retried
    assert len([s for s in under if s.name == "stage"]) == stats.stages_total

    # Each task span's duration is its record's simulated cost.
    for span, record in zip(tasks, stats.task_records):
        assert span.duration_ms == pytest.approx(record["sim_ms"], abs=1e-6)


# Per registry: what the results reconciled so far account for.
_ACCOUNTED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def assert_metrics_reconcile(metrics, trace) -> None:
    """The registry's scheduler and exchange series must match the traces.

    No series carries a query id (the registry is bounded by kinds of
    things, not by queries run), so this reconciles cumulatively: what this
    result's whole trace shows — a failed-over query's doomed attempt
    included — is added to what earlier results on the same registry
    showed.  The registry can never hold less than that, and holds exactly
    that once every query that finished on it has been reconciled;
    ``assert_trace_reconciles`` ties the same spans to ``QueryStats``.
    """
    names = collections.Counter(span.name for span in trace.spans)
    failed_attempts = sum(
        span.name == "attempt" and span.attributes.get("outcome") == "failed"
        for span in trace.spans
    )
    accounted = _ACCOUNTED.setdefault(metrics, collections.Counter())
    accounted["results"] += 1
    accounted["scheduler_tasks_run_total"] += names["task"]
    accounted["scheduler_tasks_retried_total"] += names["backoff"]
    # A failed attempt is either backed off from or the task's last.
    accounted["scheduler_tasks_failed_total"] += failed_attempts - names["backoff"]
    accounted["exchange_rows_total"] += sum(
        span.attributes["rows"] for span in trace.spans if span.name == "exchange"
    )
    all_reconciled = (
        metrics.histogram("query_simulated_ms").count == accounted["results"]
    )
    for name in accounted.keys() - {"results"}:
        assert metrics.total(name) >= accounted[name], name
        if all_reconciled:
            assert metrics.total(name) == pytest.approx(accounted[name]), name


def assert_cache_metrics_reconcile(metrics, name: str, cache_stats) -> None:
    """A cache's metric series must match its CacheStats counters."""
    assert metrics.total("cache_hits_total", cache=name) == pytest.approx(
        cache_stats.hits
    )
    assert metrics.total("cache_misses_total", cache=name) == pytest.approx(
        cache_stats.misses
    )
    assert metrics.total("cache_evictions_total", cache=name) == pytest.approx(
        cache_stats.evictions
    )


def assert_query_observable(result, metrics=None) -> None:
    """The one-call bundle the suites use after each staged query."""
    assert_trace_reconciles(result)
    if metrics is not None:
        assert_metrics_reconcile(metrics, result.trace)
