"""Tests for the simulated Kafka broker and its connector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import SimulatedClock
from repro.common.errors import ConnectorError
from repro.connectors.kafka import FETCH_MS_PER_RECORD, KafkaBroker, KafkaConnector
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session


@pytest.fixture
def broker():
    clock = SimulatedClock()
    broker = KafkaBroker(clock=clock)
    broker.create_topic(
        "orders", [("order_id", BIGINT), ("city", VARCHAR), ("amount", DOUBLE)]
    )
    for i in range(60):
        clock.advance(1_000)  # one message per simulated second
        broker.produce(
            "orders",
            [(i, f"city{i % 4}", float(i))],
            partition=i % 3,
            timestamps_ms=[int(clock.now_ms())],
        )
    return broker


@pytest.fixture
def engine(broker):
    engine = PrestoEngine(session=Session(catalog="kafka", schema="kafka"))
    engine.register_connector("kafka", KafkaConnector(broker))
    return engine


# Channels of a fetched page: the three fields, then the log coordinates.
OFFSET, TIMESTAMP = 4, 5


def column(page, channel):
    return page.block(channel).values.tolist()


class TestBroker:
    def test_offsets_are_per_partition(self, broker):
        assert column(broker.fetch("orders", 0), OFFSET)[0] == 0
        assert column(broker.fetch("orders", 1), OFFSET)[0] == 0

    def test_fetch_offset_range(self, broker):
        page = broker.fetch("orders", 0, min_offset=5, max_offset=7)
        assert column(page, OFFSET) == [5, 6, 7]

    def test_fetch_timestamp_range_uses_binary_search(self, broker):
        page = broker.fetch("orders", 0, min_timestamp_ms=50_000)
        assert all(t >= 50_000 for t in column(page, TIMESTAMP))

    def test_negative_fetch_bounds_fetch_nothing(self, broker):
        # A negative bound is below every offset: it must not wrap as a
        # Python slice index would.
        broker.records_fetched = 0
        now = broker.clock.now_ms()
        assert broker.fetch("orders", 0, max_offset=-2).position_count == 0
        assert broker.fetch("orders", 0, min_offset=-5, max_offset=-1).position_count == 0
        assert column(broker.fetch("orders", 0, min_offset=-5, max_offset=1), OFFSET) == [0, 1]
        assert broker.records_fetched == 2
        assert broker.clock.now_ms() == now + 2 * FETCH_MS_PER_RECORD

    def test_field_arity_checked(self, broker):
        with pytest.raises(ConnectorError):
            broker.produce("orders", [(1, "x")])

    def test_unknown_topic(self, broker):
        with pytest.raises(ConnectorError):
            broker.fetch("nope", 0)


FIELDS = [("order_id", BIGINT), ("city", VARCHAR), ("amount", DOUBLE)]

messages = st.lists(
    st.tuples(
        st.integers(-3, 3), st.sampled_from(["sf", "la", None]), st.floats(-9, 9)
    ),
    max_size=6,
)


@st.composite
def batches(draw):
    """One produce call: messages, an explicit or default partition, explicit
    (possibly out-of-order) or default timestamps, the clock's advance before
    it, and maybe a message of the wrong arity in the middle."""
    batch = draw(messages)
    timestamps = draw(
        st.none() | st.lists(st.integers(0, 50), min_size=len(batch), max_size=len(batch))
    )
    broken = draw(st.none() | st.integers(0, len(batch)))
    return {
        "messages": batch,
        "partition": draw(st.none() | st.integers(0, 2)),
        "timestamps_ms": timestamps,
        "advance_ms": draw(st.integers(0, 20)),
        "broken": broken,
    }


def make_broker():
    broker = KafkaBroker(clock=SimulatedClock())
    broker.create_topic("t", FIELDS)
    return broker


def log_state(broker):
    return broker.end_offsets("t"), [
        [(r.offset, r.timestamp_ms, r.values) for r in broker.log_records("t", p)]
        for p in range(3)
    ]


class TestBatchProduce:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(batches(), max_size=6), st.integers(0, 4), st.integers(-1, 4))
    def test_one_batch_equals_messages_one_by_one(self, calls, low, high):
        batched, single = make_broker(), make_broker()
        offsets_batched, offsets_single = [], []
        for call in calls:
            for broker in (batched, single):
                broker.clock.advance(call["advance_ms"])
            batch, timestamps = call["messages"], call["timestamps_ms"]
            if call["broken"] is not None:
                # The arity check covers the whole batch: nothing is appended.
                before = log_state(batched)
                bad = batch[: call["broken"]] + [(1, "sf")] + batch[call["broken"] :]
                with pytest.raises(ConnectorError, match="fields"):
                    batched.produce(
                        "t", bad, call["partition"], timestamps and timestamps + [0]
                    )
                assert log_state(batched) == before
                continue
            offsets_batched += batched.produce("t", batch, call["partition"], timestamps)
            for i, message in enumerate(batch):
                offsets_single += single.produce(
                    "t", [message], call["partition"], timestamps and [timestamps[i]]
                )
        assert offsets_batched == offsets_single
        assert log_state(batched) == log_state(single)
        ranges = [
            {},
            {"min_offset": low, "max_offset": high},
            {"min_timestamp_ms": low * 10, "max_timestamp_ms": high * 10},
        ]
        for partition in range(3):
            for bounds in ranges:
                assert (
                    batched.fetch("t", partition, **bounds).to_rows()
                    == single.fetch("t", partition, **bounds).to_rows()
                )
        assert batched.records_fetched == single.records_fetched
        assert batched.clock.now_ms() == single.clock.now_ms()


class TestKafkaQueries:
    def test_topic_as_table(self, engine):
        assert engine.execute("SELECT count(*) FROM orders").rows == [(60,)]

    def test_hidden_columns(self, engine):
        result = engine.execute(
            "SELECT _partition_id, _offset FROM orders WHERE order_id = 0"
        )
        assert result.rows == [(0, 0)]

    def test_aggregate_over_stream(self, engine):
        result = engine.execute(
            "SELECT city, count(*) FROM orders GROUP BY city ORDER BY city"
        )
        assert result.rows == [(f"city{i}", 15) for i in range(4)]

    def test_timestamp_pushdown_fetches_fewer_records(self, engine, broker):
        broker.records_fetched = 0
        result = engine.execute(
            "SELECT count(*) FROM orders WHERE _timestamp_ms >= 31000"
        )
        assert result.rows == [(30,)]
        # Log seek: only the tail records were consumed from the broker.
        assert broker.records_fetched == 30

    def test_offset_pushdown(self, engine, broker):
        broker.records_fetched = 0
        result = engine.execute(
            "SELECT count(*) FROM orders WHERE _offset <= 4"
        )
        assert result.rows == [(15,)]  # offsets 0..4 in each of 3 partitions
        assert broker.records_fetched == 15

    def test_mixed_predicate_partially_pushed(self, engine, broker):
        broker.records_fetched = 0
        result = engine.execute(
            "SELECT count(*) FROM orders "
            "WHERE _timestamp_ms >= 31000 AND city = 'city1'"
        )
        # Log range pushed to the broker; field filter left to the engine.
        assert broker.records_fetched == 30
        assert result.rows[0][0] < 30

    def test_tail_query_shape(self, engine):
        # "Tail the last N seconds" — the paper's near-real-time use case.
        result = engine.execute(
            "SELECT order_id FROM orders WHERE _timestamp_ms >= 58000 ORDER BY order_id"
        )
        assert [r[0] for r in result.rows] == [57, 58, 59]

    def test_join_stream_with_stream(self, engine):
        result = engine.execute(
            "SELECT count(*) FROM orders a JOIN orders b ON a.order_id = b.order_id"
        )
        assert result.rows == [(60,)]
