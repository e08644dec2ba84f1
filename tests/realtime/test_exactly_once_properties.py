"""Property suite: exactly-once visibility under arbitrary crash schedules.

Hypothesis drives random event streams through random interleavings of
produce / poll / compact / lose-tail operations, under seeded pipeline
fault injection (including high crash rates), and asserts after every
operation that:

- the rows visible through the hybrid connector at the committed
  watermark are *exactly* the log prefix below it — as a multiset, so a
  duplicated row fails as loudly as a dropped one;
- the same holds at every lower watermark via pinned time-travel reads;
- the tail and the sealed snapshots *partition* the visible log: lake
  rows live strictly below the sealed watermark (each exactly once),
  committed tail rows live exactly in [sealed, committed), and a tail
  read from a lower bound between them starts exactly there.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.common.errors import InjectedFaultError
from repro.core.types import BIGINT, VARCHAR
from repro.execution.faults import FaultInjector
from repro.realtime import (
    StreamingLakehouse,
    Watermark,
    watermark_table_name,
)
from tests.reference.lakehouse import expected_log_keys, tail_layout, visible_log_keys

FIELDS = [("k", BIGINT), ("tag", VARCHAR)]

# One schedule step: produce a few records, run a poll, run a compaction
# cycle, or lose the whole in-memory tail (node loss).
operations = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=7).map(lambda n: ("produce", n)),
        st.just(("poll", 0)),
        st.just(("compact", 0)),
        st.just(("lose_tail", 0)),
    ),
    min_size=3,
    max_size=14,
)


def run_schedule(schedule, partitions, seed, failure_rate):
    injector = FaultInjector(seed=seed, pipeline_failure_rate=failure_rate)
    lh = StreamingLakehouse(
        fields=FIELDS,
        partitions=partitions,
        fault_injector=injector,
        poll_interval_ms=100,
        compaction_interval_ms=100_000,  # compaction only when scheduled
    )
    produced = 0
    for operation, argument in schedule:
        if operation == "produce":
            for _ in range(argument):
                lh.produce(
                    [(produced, f"t{produced % 3}")],
                    partition=produced % partitions,
                    timestamps_ms=[produced * 5],
                )
                produced += 1
        elif operation == "poll":
            try:
                lh.pipeline.poll()
            except InjectedFaultError:
                lh.table.recover()
        elif operation == "compact":
            try:
                lh.compactor.compact()
            except InjectedFaultError:
                lh.table.recover()
        elif operation == "lose_tail":
            lh.table.lose_tail()
        check_invariants(lh)
    return lh


def check_invariants(lh):
    table = lh.table
    committed = table.committed
    sealed = table.sealed_watermark()
    assert committed.dominates(sealed), (
        f"sealed {sealed.encode()} ran ahead of committed {committed.encode()}"
    )

    # Visible multiset at the committed watermark == the log prefix.
    visible = visible_log_keys(lh.connector, table.name)
    expected = expected_log_keys(lh.broker, lh.topic, committed)
    assert visible == expected, (
        f"visible != expected at {committed.encode()}: "
        f"dup={{k: n for k, n in visible.items() if n > 1}}, "
        f"missing={sorted(expected - visible)}, extra={sorted(visible - expected)}"
    )

    # The same at every lower per-partition cut (time travel).
    lower = Watermark.of(*(offset // 2 for offset in committed.offsets))
    if lower != committed:
        pinned = watermark_table_name(table.name, lower)
        assert visible_log_keys(lh.connector, pinned) == expected_log_keys(
            lh.broker, lh.topic, lower
        )

    # Tail XOR lake: lake rows strictly below sealed, each exactly once.
    lake_keys = Counter()
    partition_index = len(table.fields)
    for data_file in table.lake.current_snapshot().files:
        for row in table.lake.read_file_page(data_file).to_rows():
            lake_keys[(row[partition_index], row[partition_index + 1])] += 1
    assert all(n == 1 for n in lake_keys.values()), f"lake duplicates: {lake_keys}"
    assert lake_keys == expected_log_keys(lh.broker, lh.topic, sealed)

    # Committed tail rows cover exactly [sealed, committed).
    tail_keys = Counter(
        (row[partition_index], row[partition_index + 1])
        for row in table.visible_tail_page(sealed, committed).to_rows()
    )
    assert all(n == 1 for n in tail_keys.values()), f"tail duplicates: {tail_keys}"
    assert tail_keys == expected - lake_keys

    # A lower bound inside the tail (as a view refresh reads) cuts it there.
    low = Watermark.of(
        *((s + c) // 2 for s, c in zip(sealed.offsets, committed.offsets))
    )
    mid_keys = Counter(
        (row[partition_index], row[partition_index + 1])
        for row in table.visible_tail_page(low, committed).to_rows()
    )
    assert mid_keys == expected - expected_log_keys(lh.broker, lh.topic, low)


@settings(max_examples=30, deadline=None)
@given(
    schedule=operations,
    partitions=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_exactly_once_without_faults(schedule, partitions, seed):
    run_schedule(schedule, partitions, seed, failure_rate=0.0)


@settings(max_examples=30, deadline=None)
@given(
    schedule=operations,
    partitions=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_exactly_once_under_crashes(schedule, partitions, seed):
    """Crash points fire at ~30% inside appends, commits, writes, prunes."""
    run_schedule(schedule, partitions, seed, failure_rate=0.3)


@settings(max_examples=15, deadline=None)
@given(
    schedule=operations,
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_exactly_once_under_heavy_crashes(schedule, seed):
    """Even at 60% crash rate no schedule duplicates or drops a row."""
    run_schedule(schedule, 2, seed, failure_rate=0.6)


@settings(max_examples=20, deadline=None)
@given(
    schedule=operations,
    partitions=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_replay_is_deterministic(schedule, partitions, seed):
    """The same schedule and seed reproduce byte-identical state."""

    def fingerprint(lh):
        return (
            lh.table.committed.encode(),
            lh.table.sealed_watermark().encode(),
            tuple(tail_layout(lh.table)),
            tuple(
                (f.path, f.row_count)
                for f in lh.table.lake.current_snapshot().files
            ),
            tuple(
                (s.snapshot_id, s.operation, s.properties)
                for s in lh.table.lake.history()
            ),
        )

    first = fingerprint(run_schedule(schedule, partitions, seed, 0.3))
    second = fingerprint(run_schedule(schedule, partitions, seed, 0.3))
    assert first == second
