"""Streaming ingestion and compaction on the simulated clock.

Two background components keep a :class:`~repro.realtime.hybrid.
HybridTable` fed from its Kafka topic:

- the :class:`IngestionPipeline` polls every partition on a fixed
  cadence, stages each fetched micro-batch as a tail segment, then
  commits the consumed offsets (append → commit, per partition);
- the :class:`Compactor` periodically seals everything committed but not
  yet sealed into one lakehouse data file, committing the new sealed
  watermark atomically in the snapshot summary, then prunes the sealed
  tail segments.

Both run as *due-time events* on the shared simulated clock — `step()`
advances the clock to the next due event and executes it — so pipeline
activity interleaves deterministically with concurrently stepping
queries.  Crash points sit immediately before every state transition
(append, offset commit, file write, snapshot commit, prune); an injected
crash costs ``RESTART_MS`` of simulated downtime and runs
:meth:`HybridTable.recover`, after which the next poll/cycle resumes
from the committed state.  The property suite drives exactly these
points to show no crash schedule can duplicate or drop a row.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import InjectedFaultError
from repro.connectors.kafka import KafkaBroker
from repro.execution.faults import FaultInjector
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import QueryTrace, maybe_span
from repro.realtime.hybrid import (
    MAX_TIMESTAMP_PROPERTY,
    SEALED_WATERMARK_PROPERTY,
    HybridTable,
)

# Simulated cost model: compaction writes each sealed row and commits one
# snapshot per cycle; a crashed pipeline is down this long before recovery.
COMPACTION_WRITE_MS_PER_ROW = 0.002
COMPACTION_COMMIT_MS = 10.0
RESTART_MS = 500.0


class Compactor:
    """Seals committed tail rows into lakehouse snapshots.

    Each cycle moves the sealed watermark up to the committed watermark:
    the rows in between are written as one parquet data file, then the
    file and the new watermark are committed *in one snapshot*.  A crash
    after the write but before the commit leaves an orphan file no
    snapshot references — invisible, retried whole next cycle — and a
    crash after the commit but before the prune leaves sealed rows in
    the tail that visibility already excludes, cleaned up by recovery.
    """

    def __init__(
        self,
        table: HybridTable,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.table = table
        self.fault_injector = fault_injector
        self.cycles = 0  # attempts, crashed or not — the crash-coin step
        self.rows_sealed = 0
        self.snapshots_committed = 0

    def _crash_point(self, point: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector.maybe_crash_pipeline(
                f"{self.table.name}:compact", self.cycles, 0, point
            )

    def compact(self) -> int:
        """Run one compaction cycle; returns rows sealed."""
        self.cycles += 1
        table = self.table
        sealed = table.sealed_watermark()
        target = table.committed
        if target == sealed:
            return 0
        page = table.visible_tail_page(sealed, target)
        rows = page.position_count

        self._crash_point("write")
        data_file = table.lake.write_data_file(page) if rows else None
        table.clock.advance(rows * COMPACTION_WRITE_MS_PER_ROW)

        self._crash_point("commit")
        max_ts = table.sealed_max_timestamp_ms()
        if rows:
            timestamps = page.block(len(table.fields) + 2).values
            max_ts = max(max_ts, int(timestamps.max()))
        properties = [
            (SEALED_WATERMARK_PROPERTY, target.encode()),
            (MAX_TIMESTAMP_PROPERTY, str(max_ts)),
        ]
        table.lake.commit_add_files(
            [data_file] if data_file is not None else [], properties=properties
        )
        table.clock.advance(COMPACTION_COMMIT_MS)
        self.snapshots_committed += 1
        self.rows_sealed += rows

        self._crash_point("prune")
        table.prune_sealed()
        return rows


class IngestionPipeline:
    """Polls Kafka into the tail, drives compaction, survives crashes.

    The pipeline owns both cadences (poll and compaction) as due-times on
    the simulated clock.  ``step()`` runs the earliest due event;
    ``run_until()`` drains events up to a deadline.  Every injected crash
    is caught here: it increments the crash counter, charges
    ``RESTART_MS`` of downtime, and recovers the table, so callers see an
    always-on pipeline whose visible state is exactly-once regardless of
    the crash schedule.
    """

    def __init__(
        self,
        broker: KafkaBroker,
        topic: str,
        table: HybridTable,
        poll_interval_ms: float = 200.0,
        compactor: Optional[Compactor] = None,
        compaction_interval_ms: float = 5000.0,
        fault_injector: Optional[FaultInjector] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[QueryTrace] = None,
    ) -> None:
        self.broker = broker
        self.topic = topic
        self.table = table
        self.clock = table.clock
        self.poll_interval_ms = poll_interval_ms
        self.compactor = compactor
        self.compaction_interval_ms = compaction_interval_ms
        self.fault_injector = fault_injector
        self.metrics = metrics
        self.tracer = tracer
        self.polls = 0  # poll attempts, crashed or not — the crash-coin step
        self.records_ingested = 0
        self.crashes = 0
        self._next_poll_ms = self.clock.now_ms() + poll_interval_ms
        self._next_compaction_ms = (
            self.clock.now_ms() + compaction_interval_ms
            if compactor is not None
            else None
        )

    # -- the two events -------------------------------------------------------

    def poll(self) -> int:
        """Fetch and commit every partition once; returns records ingested."""
        self.polls += 1
        table = self.table
        ingested = 0
        for partition in range(table.partitions):
            committed = table.committed.offset(partition)
            page = self.broker.fetch(self.topic, partition, min_offset=committed)
            if not page.position_count:
                continue
            self._crash_point("ingest", self.polls, partition, "append")
            table.append_tail(partition, page)
            self._crash_point("ingest", self.polls, partition, "commit")
            table.commit_offsets(partition, committed + page.position_count)
            ingested += page.position_count
        self.records_ingested += ingested
        if self.metrics is not None and ingested:
            self.metrics.counter(
                "streaming_records_ingested_total", table=table.name
            ).inc(ingested)
        return ingested

    def _crash_point(self, component: str, step: int, unit: int, point: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector.maybe_crash_pipeline(
                f"{self.table.name}:{component}", step, unit, point
            )

    # -- the event loop -------------------------------------------------------

    def next_due_ms(self) -> float:
        """Simulated time of the next pipeline event."""
        if self._next_compaction_ms is None:
            return self._next_poll_ms
        return min(self._next_poll_ms, self._next_compaction_ms)

    def step(self) -> str:
        """Advance the clock to the next due event and run it.

        Returns the event that ran: ``"poll"``, ``"compact"``, or
        ``"crash"`` when the event's run was cut short by an injected
        crash (the restart and recovery are part of the same step).
        """
        due = self.next_due_ms()
        if due > self.clock.now_ms():
            self.clock.advance(due - self.clock.now_ms())
        compaction_due = (
            self._next_compaction_ms is not None and self._next_compaction_ms <= due
        )
        if compaction_due:
            self._next_compaction_ms = due + self.compaction_interval_ms
            event = "compact"
        else:
            self._next_poll_ms = due + self.poll_interval_ms
            event = "poll"
        try:
            if event == "compact":
                with maybe_span(self.tracer, "compact.seal") as span:
                    sealed = self.compactor.compact()
                    if span is not None:
                        span.set(rows_sealed=sealed)
                    if self.metrics is not None:
                        self.metrics.counter(
                            "streaming_compactions_total", table=self.table.name
                        ).inc()
                        if sealed:
                            self.metrics.counter(
                                "streaming_rows_sealed_total", table=self.table.name
                            ).inc(sealed)
            else:
                with maybe_span(self.tracer, "ingest.poll") as span:
                    ingested = self.poll()
                    if span is not None:
                        span.set(records=ingested)
        except InjectedFaultError as error:
            self._restart(event, error)
            event = "crash"
        self._update_gauges()
        return event

    def _restart(self, component: str, error: InjectedFaultError) -> None:
        self.crashes += 1
        if self.metrics is not None:
            self.metrics.counter(
                "streaming_pipeline_crashes_total",
                table=self.table.name,
                component=component,
            ).inc()
        restart = dict(component=component, error=str(error))
        with maybe_span(self.tracer, "pipeline.restart", **restart):
            self.clock.advance(RESTART_MS)
            self.table.recover()

    def run_until(self, deadline_ms: float) -> None:
        """Run every event due at or before ``deadline_ms``, then idle there."""
        while self.next_due_ms() <= deadline_ms:
            self.step()
        if self.clock.now_ms() < deadline_ms:
            self.clock.advance(deadline_ms - self.clock.now_ms())

    def run_for(self, duration_ms: float) -> None:
        self.run_until(self.clock.now_ms() + duration_ms)

    # -- observability --------------------------------------------------------

    def _update_gauges(self) -> None:
        if self.metrics is None:
            return
        table = self.table
        name = table.name
        end_offsets = self.broker.end_offsets(self.topic)
        lag = sum(end_offsets) - table.committed.total()
        self.metrics.gauge("streaming_tail_rows", table=name).set(
            table.tail_row_count()
        )
        self.metrics.gauge("streaming_consumer_lag_rows", table=name).set(lag)
        self.metrics.gauge("streaming_sealed_rows", table=name).set(
            table.sealed_watermark().total()
        )
        if table.max_committed_timestamp_ms:
            self.metrics.gauge("streaming_freshness_lag_ms", table=name).set(
                self.clock.now_ms() - table.max_committed_timestamp_ms
            )
