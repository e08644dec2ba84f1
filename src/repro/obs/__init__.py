"""Observability: deterministic query tracing and a metrics registry.

The paper's operators could only run Presto at scale because they could
*see* it — per-query metrics, stage/task breakdowns, cache hit rates and
retry counts drive every capacity and routing decision.  This package is
that layer for the reproduction:

- :mod:`repro.obs.trace` — a span tracer.  Every query produces a
  deterministic span tree (gateway routing → cluster admission → stage →
  task attempt → operator → cache/storage access) stamped from the
  simulated clock, so traces are byte-identical across runs for a given
  seed.  ``EXPLAIN ANALYZE`` renders the critical path.
- :mod:`repro.obs.metrics` — named counters, gauges and fixed-bucket
  histograms with labels (query id, stage, connector, cache name),
  snapshot-able as a plain dict and dumpable as JSON from the CLI.

Both are pure added instrumentation: query results are identical with
tracing on or off, so the references in ``tests/reference/`` compare
rows with tracing enabled.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import QueryTrace, Span, activate, current_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryTrace",
    "Span",
    "activate",
    "current_tracer",
]
