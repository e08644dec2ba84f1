"""Unit tests for watermarks, the hybrid table, and the pipeline."""

import pytest

from repro.common.errors import ConnectorError
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.faults import FaultInjector
from repro.realtime import StreamingLakehouse, Watermark, assert_exactly_once
from repro.realtime.pipeline import RESTART_MS

FIELDS = [("order_id", BIGINT), ("city", VARCHAR), ("amount", DOUBLE)]


def make_lakehouse(**kwargs):
    kwargs.setdefault("fields", FIELDS)
    kwargs.setdefault("poll_interval_ms", 200)
    kwargs.setdefault("compaction_interval_ms", 1000)
    return StreamingLakehouse(**kwargs)


def produce_n(lh, n, start=0):
    for i in range(start, start + n):
        lh.produce((i, f"c{i % 4}", i / 10), timestamp_ms=i * 3)


class TestWatermark:
    def test_covers_is_exclusive_high(self):
        wm = Watermark.of(5, 0, 2)
        assert wm.covers(0, 4)
        assert not wm.covers(0, 5)
        assert not wm.covers(1, 0)
        assert wm.covers(2, 1)

    def test_encode_decode_round_trip(self):
        wm = Watermark.of(5, 7, 3)
        assert wm.encode() == "5-7-3"
        assert Watermark.decode("5-7-3") == wm
        with pytest.raises(ValueError):
            Watermark.decode("5-x-3")

    def test_algebra(self):
        a, b = Watermark.of(5, 2), Watermark.of(3, 4)
        assert a.meet(b) == Watermark.of(3, 2)
        assert a.join(b) == Watermark.of(5, 4)
        assert a.join(b).dominates(a) and a.join(b).dominates(b)
        assert a.dominates(a.meet(b)) and b.dominates(a.meet(b))
        assert not a.dominates(b)

    def test_cannot_move_backwards(self):
        with pytest.raises(ValueError):
            Watermark.of(5, 2).with_offset(0, 4)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Watermark.of(1, 2).meet(Watermark.of(1, 2, 3))


class TestIngestion:
    def test_poll_ingests_and_commits(self):
        lh = make_lakehouse()
        produce_n(lh, 30)
        lh.pipeline.run_for(250)  # one poll
        assert lh.table.committed.total() == 30
        assert lh.table.tail_row_count() == 30
        assert lh.pipeline.records_ingested == 30

    def test_committed_rows_partition_the_log(self):
        lh = make_lakehouse()
        produce_n(lh, 50)
        lh.pipeline.run_for(250)
        assert_exactly_once(lh.connector, lh.broker, lh.topic)

    def test_append_gap_rejected(self):
        lh = make_lakehouse()
        produce_n(lh, 10)
        records = lh.broker.log_records(lh.topic, 0)
        with pytest.raises(ConnectorError, match="append gap"):
            lh.table.append_tail(0, records[1:])

    def test_redelivery_is_idempotent(self):
        lh = make_lakehouse()
        produce_n(lh, 20)
        lh.pipeline.run_for(250)
        committed = lh.table.committed
        # Re-deliver the whole log: already-committed records are dropped.
        for p in range(lh.table.partitions):
            lh.table.append_tail(p, lh.broker.log_records(lh.topic, p))
        assert lh.table.committed == committed
        assert lh.table.tail_row_count() == committed.total()


class TestCompaction:
    def test_compaction_moves_rows_to_the_lake(self):
        lh = make_lakehouse()
        produce_n(lh, 40)
        lh.pipeline.run_for(1200)  # past one compaction boundary
        sealed = lh.table.sealed_watermark()
        assert sealed.total() == 40
        assert lh.table.tail_row_count() == 0
        assert lh.lake.current_snapshot().row_count == 40
        assert_exactly_once(lh.connector, lh.broker, lh.topic)

    def test_sealed_watermark_is_in_snapshot_properties(self):
        lh = make_lakehouse()
        produce_n(lh, 40)
        lh.pipeline.run_for(1200)
        properties = lh.lake.current_snapshot().properties_dict()
        assert properties["sealed-watermark"] == lh.table.committed.encode()
        assert int(properties["max-sealed-timestamp-ms"]) == 39 * 3

    def test_empty_cycle_commits_nothing(self):
        lh = make_lakehouse()
        produce_n(lh, 10)
        lh.pipeline.run_for(1200)
        snapshots = len(lh.lake.history())
        lh.pipeline.run_for(2000)  # two more cycles, nothing new to seal
        assert len(lh.lake.history()) == snapshots

    def test_hybrid_read_spans_lake_and_tail(self):
        lh = make_lakehouse()
        produce_n(lh, 40)
        lh.pipeline.run_for(1200)  # 40 rows sealed
        produce_n(lh, 15, start=40)
        lh.pipeline.run_for(250)  # ingested but not compacted
        assert lh.table.sealed_watermark().total() == 40
        assert lh.table.tail_row_count() == 15
        assert_exactly_once(lh.connector, lh.broker, lh.topic)


class TestRecovery:
    def test_recover_drops_uncommitted_appends(self):
        lh = make_lakehouse()
        produce_n(lh, 12)
        records = lh.broker.log_records(lh.topic, 0)
        lh.table.append_tail(0, records)  # staged, never committed
        lh.table.recover()
        assert lh.table.tail_row_count() == 0
        assert lh.table.committed == Watermark.zero(3)

    def test_recover_prunes_already_sealed_segments(self):
        lh = make_lakehouse()
        produce_n(lh, 30)
        lh.pipeline.run_for(250)
        # Seal manually but crash before the prune: compact with a
        # fault-free compactor, then re-add what pruning removed.
        rows_before = lh.table.tail_row_count()
        lh.compactor.compact()
        assert lh.table.tail_row_count() == 0  # compact pruned
        produce_n(lh, 5, start=30)
        lh.pipeline.run_for(250)
        lh.table.recover()  # idempotent with nothing stale
        assert lh.table.tail_row_count() == 5
        assert_exactly_once(lh.connector, lh.broker, lh.topic)

    def test_lose_tail_rewinds_to_sealed_and_replays(self):
        lh = make_lakehouse()
        produce_n(lh, 40)
        lh.pipeline.run_for(1200)  # sealed: 40
        produce_n(lh, 20, start=40)
        lh.pipeline.run_for(250)  # tail: 20
        lh.table.lose_tail()
        assert lh.table.tail_row_count() == 0
        assert lh.table.committed == lh.table.sealed_watermark()
        # Replay from the durable log restores everything.
        lh.pipeline.run_for(250)
        assert lh.table.committed.total() == 60
        assert_exactly_once(lh.connector, lh.broker, lh.topic)

    def test_crashes_are_recovered_and_counted(self):
        injector = FaultInjector(seed=1, pipeline_failure_rate=0.5)
        lh = make_lakehouse(fault_injector=injector)
        produce_n(lh, 60)
        lh.pipeline.run_for(3000)
        assert lh.pipeline.crashes > 0
        assert lh.pipeline.crashes == injector.pipeline_crashes
        assert_exactly_once(lh.connector, lh.broker, lh.topic)

    def test_restart_charges_downtime(self):
        injector = FaultInjector(seed=1, pipeline_failure_rate=1.0)
        lh = make_lakehouse(fault_injector=injector)
        produce_n(lh, 10)
        before = lh.clock.now_ms()
        lh.pipeline.step()  # poll crashes, restart costs 500ms
        assert lh.clock.now_ms() >= before + RESTART_MS
        assert lh.table.tail_row_count() == 0  # nothing committed


class TestObservability:
    def test_gauges_and_counters(self):
        lh = make_lakehouse()
        produce_n(lh, 40)
        lh.pipeline.run_for(1200)
        snapshot = lh.metrics.snapshot()
        assert lh.metrics.total("streaming_records_ingested_total") == 40
        assert lh.metrics.total("streaming_compactions_total") >= 1
        assert lh.metrics.total("streaming_rows_sealed_total") == 40
        gauges = {name: series for name, series in snapshot["gauges"].items()}
        assert gauges["streaming_sealed_rows"][0]["value"] == 40
        assert gauges["streaming_consumer_lag_rows"][0]["value"] == 0

    def test_pipeline_spans(self):
        lh = make_lakehouse()
        produce_n(lh, 40)
        lh.pipeline.run_for(1200)
        names = {span.name for span in lh.pipeline_trace.spans}
        assert "ingest.poll" in names
        assert "compact.seal" in names

    def test_crash_spans(self):
        injector = FaultInjector(seed=1, pipeline_failure_rate=1.0)
        lh = make_lakehouse(fault_injector=injector)
        produce_n(lh, 10)
        lh.pipeline.step()
        assert lh.pipeline_trace.find("pipeline.restart")
