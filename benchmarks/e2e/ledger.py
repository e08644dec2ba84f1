"""The per-layer ledger: spans and counts recorded from outside the engine.

Every traced query is driven through the public steppable path
(``PrestoEngine.submit`` then ``QueryHandle.step`` until done), which is
exactly what ``PrestoEngine.execute`` does, with a host-clock mark at each
boundary.  The marks tile the query: ``engine.submit`` plus the
``execution.step`` spans sum to the ``query`` span.  Beside it, and
attributed to the same query id, the ledger replays the same SQL through
the public planning functions (``parse_sql``, ``Analyzer.analyze``,
``Optimizer.optimize``, ``Fragmenter.fragment``) to apportion
``engine.submit``, and drains the optimized plan's table scans through the
connector SPI to separate scan cost from operators and expressions.

Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from repro.planner.analyzer import Analyzer
from repro.planner.fragmenter import Fragmenter
from repro.planner.optimizer import Optimizer
from repro.planner.plan import TableScanNode
from repro.sql import parse_sql

from robust import percentile

PLANNING_SPANS = ("sql.parse", "planner.analyze", "planner.optimize", "planner.fragment")


@dataclass
class EngineUnderTest:
    """An engine plus what the ledger may observe around its queries."""

    engine: object
    # Cumulative counters read before and after each traced query (cache
    # ``stats``, ``MetricsRegistry.total``); the ledger keeps the deltas, so
    # the replays' own cache and storage traffic is not counted.
    counters: dict[str, Callable[[], float]] = field(default_factory=dict)
    # The hybrid table's scans charge the simulated clock the ingestion
    # pipeline runs on; replaying them would shift its schedule.
    replay_scans: bool = True

    @cached_property
    def optimizer(self) -> Optimizer:
        """The ledger's own optimizer for the planning replay, built on first use."""
        return Optimizer(self.engine.catalog, self.engine.registry)


def execute_plain(target: EngineUnderTest, sql: str, label: str = "") -> tuple[float, list[tuple]]:
    """One operation as a user issues it: SQL text to materialized rows.

    ``label`` is unused; the signature matches :meth:`Ledger.execute`.
    """
    start = time.perf_counter()
    rows = target.engine.execute(sql).rows
    return (time.perf_counter() - start) * 1000.0, rows


def _table_scans(node) -> list[TableScanNode]:
    if isinstance(node, TableScanNode):
        return [node]
    return [scan for source in node.sources() for scan in _table_scans(source)]


class Ledger:
    """In-memory spans plus one record of numbers per traced query."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.records: list[dict] = []

    def span(self, name: str, start: float, end: float, query, parent=None, **tags) -> int:
        """Record one span; times are host seconds from ``perf_counter``."""
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start_ms": (start - self.origin) * 1000.0,
                "end_ms": (end - self.origin) * 1000.0,
                "parent": parent,
                "query": query,
                **tags,
            }
        )
        return len(self.spans) - 1

    def timed(self, name: str, fn: Callable, query=None, **tags):
        """Run ``fn`` inside a span; returns ``(milliseconds, result)``."""
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        self.span(name, start, end, query, **tags)
        return (end - start) * 1000.0, result

    # -- one traced query --------------------------------------------------

    def execute(self, target: EngineUnderTest, sql: str, label: str = "") -> tuple[float, list[tuple]]:
        """Run ``sql`` with a mark at every layer boundary; returns like ``execute_plain``."""
        engine = target.engine
        clock = time.perf_counter
        query = len(self.records)
        before = {name: read() for name, read in target.counters.items()}

        start = clock()
        handle = engine.submit(sql)
        marks = [clock()]
        stages = []
        while not handle.done:
            stages.append(handle.peek_stage())
            handle.step()
            marks.append(clock())
        result = handle.result()
        end = clock()

        stats = result.stats.as_dict()
        distribution = {s["stage"]: s["distribution"] for s in stats.pop("stage_summaries")}
        record = {
            "query": query,
            "label": label,
            "query_ms": (end - start) * 1000.0,
            "submit_ms": (marks[0] - start) * 1000.0,
            "steps": [],
            "stats": stats,
            "counters": {
                name: read() - before[name] for name, read in target.counters.items()
            },
        }
        root = self.span("query", start, end, query, label=label, query_id=stats["query_id"])
        self.span("engine.submit", start, marks[0], query, parent=root)
        for index, stage in enumerate(stages):
            kind = distribution.get(stage, "unknown")
            self.span(
                "execution.step", marks[index], marks[index + 1], query,
                parent=root, stage=stage, distribution=kind,
            )
            record["steps"].append((kind, (marks[index + 1] - marks[index]) * 1000.0))

        self._replay_planning(target, sql, query, record)
        self.records.append(record)
        return record["query_ms"], result.rows

    def _replay_planning(self, target: EngineUnderTest, sql: str, query: int, record: dict) -> None:
        engine = target.engine
        parse_ms, ast = self.timed("sql.parse", lambda: parse_sql(sql), query)
        analyzer = Analyzer(engine.catalog, engine.session, engine.registry)
        analyze_ms, plan = self.timed("planner.analyze", lambda: analyzer.analyze(ast), query)
        optimize_ms, plan = self.timed(
            "planner.optimize", lambda: target.optimizer.optimize(plan, engine.session), query
        )
        fragment_ms, _ = self.timed(
            "planner.fragment", lambda: Fragmenter().fragment(plan), query
        )
        record["planning"] = dict(
            zip(PLANNING_SPANS, (parse_ms, analyze_ms, optimize_ms, fragment_ms))
        )
        record["splits_ms"] = record["scan_ms"] = 0.0
        record["scan_rows"] = 0
        if not target.replay_scans:
            return
        for scan in _table_scans(plan):
            connector = engine.catalog.connector(scan.catalog)
            table = scan.handle.table_name
            ms, splits = self.timed(
                "connectors.splits",
                lambda: connector.split_manager().get_splits(scan.handle),
                query, table=table,
            )
            record["splits_ms"] += ms
            columns = [column for _, column in scan.assignments]
            provider = connector.record_set_provider()

            def drain() -> int:
                rows = 0
                for split in splits:
                    for page in provider.pages(scan.handle, split, columns):
                        rows += page.loaded().position_count
                return rows

            ms, rows = self.timed("connectors.scan", drain, query, table=table)
            record["scan_ms"] += ms
            record["scan_rows"] += rows

    # -- output ------------------------------------------------------------

    def write(self, path: str, workload: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            json.dump({"workload": workload, "spans": self.spans}, out)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def query_layer_metrics(records: list[dict], slowdown: float) -> dict[str, float]:
    """The per-layer numbers every traced query contributes to.

    A time is the mean over the traced queries as measured, divided by
    ``slowdown`` (how much slower than the reference the machine ran, see
    robust.py).  Means add up, so the planning spans, ``submit_other`` and
    the three stage times sum to the mean query wall, and ledger and
    end-to-end numbers are on the same footing.
    """

    def mean_ms(value: Callable[[dict], float]) -> float:
        return sum(value(r) for r in records) / len(records) / slowdown

    def total(name: str) -> float:
        return sum(r["stats"][name] for r in records)

    def counter(name: str) -> float:
        return sum(r["counters"].get(name, 0.0) for r in records)

    def stage_ms(kind: str) -> float:
        return mean_ms(lambda r: sum(ms for step_kind, ms in r["steps"] if step_kind == kind))

    planning = {name: mean_ms(lambda r, name=name: r["planning"][name]) for name in PLANNING_SPANS}
    query_ms = mean_ms(lambda r: r["query_ms"])
    queries = len(records)
    rows = total("rows_processed_vectorized") + total("rows_processed_fallback")
    positions = total("expr_positions_vectorized") + total("expr_positions_fallback")
    skipped = sum(
        total(f"row_groups_skipped_by_{tier}") for tier in ("stats", "dictionary", "dynamic_filter")
    )
    footer = counter("footer_hits") + counter("footer_misses")
    file_list = counter("file_list_hits") + counter("file_list_misses")
    steps = [ms for r in records for _, ms in r["steps"]]
    return {
        "sql.parse_ms": planning["sql.parse"],
        "planner.analyze_ms": planning["planner.analyze"],
        "planner.optimize_ms": planning["planner.optimize"],
        "planner.fragment_ms": planning["planner.fragment"],
        "planner.plan_share": _ratio(sum(planning.values()), query_ms),
        "execution.query_ms": query_ms,
        "execution.submit_other_ms": mean_ms(lambda r: r["submit_ms"]) - sum(planning.values()),
        "execution.tasks_per_query": total("tasks_total") / queries,
        "execution.stages_per_query": total("stages_total") / queries,
        "execution.task_ms": percentile(steps, 50) / slowdown,
        "execution.stage_source_ms": stage_ms("source"),
        "execution.stage_hash_ms": stage_ms("hash"),
        "execution.stage_single_ms": stage_ms("single"),
        "execution.rows_exchanged_per_query": total("rows_exchanged") / queries,
        "execution.rows_fallback_share": _ratio(total("rows_processed_fallback"), rows),
        "execution.sim_ms_per_query": total("simulated_ms") / queries,
        "core.expr_positions_per_query": positions / queries,
        "core.expr_fallback_share": _ratio(total("expr_positions_fallback"), positions),
        "core.expr_dictionary_saved_share": _ratio(
            total("expr_positions_dictionary_saved"),
            positions + total("expr_positions_dictionary_saved"),
        ),
        "connectors.splits_ms": mean_ms(lambda r: r["splits_ms"]),
        "connectors.scan_ms": mean_ms(lambda r: r["scan_ms"]),
        "connectors.scan_rows_per_s": _ratio(
            sum(r["scan_rows"] for r in records) * slowdown,
            sum(r["scan_ms"] for r in records) / 1000.0,
        ),
        "connectors.rows_scanned_per_query": total("rows_scanned") / queries,
        "connectors.splits_per_query": total("splits_scanned") / queries,
        "formats.parquet.row_groups_per_query": total("row_groups_total") / queries,
        "formats.parquet.row_groups_skipped_share": _ratio(skipped, total("row_groups_total")),
        "cache.footer_hit_share": _ratio(counter("footer_hits"), footer),
        "cache.file_list_hit_share": _ratio(counter("file_list_hits"), file_list),
        "storage.sim_ms_per_query": counter("storage_sim_ms") / queries,
    }
