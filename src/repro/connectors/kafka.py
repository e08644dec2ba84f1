"""Simulated Kafka and the Presto-Kafka connector (section XI's list).

The simulated broker keeps topics as partitioned append-only logs.  The
connector maps each topic to a table: message fields become columns and
three hidden columns expose log coordinates (``_partition_id``,
``_offset``, ``_timestamp_ms``).  Range predicates on the hidden columns
push down as log seeks, so "tail the last five minutes" queries do not
scan the whole topic.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

from repro.common.clock import SimulatedClock
from repro.common.errors import ConnectorError
from repro.common.hashing import stable_hash
from repro.connectors.spi import (
    Connector,
    ConnectorSplit,
    ConnectorTableHandle,
    SingleSchemaConnector,
    select_columns,
)
from repro.core.expressions import (
    ColumnTest,
    RowExpression,
    conjuncts,
    match_column_test,
)
from repro.core.page import Page
from repro.core.types import BIGINT, PrestoType

HIDDEN_COLUMNS: list[tuple[str, PrestoType]] = [
    ("_partition_id", BIGINT),
    ("_offset", BIGINT),
    ("_timestamp_ms", BIGINT),
]


# Simulated milliseconds a consumer fetch spends per record.
FETCH_MS_PER_RECORD = 0.0005


@dataclass
class _Record:
    offset: int
    timestamp_ms: int
    values: tuple


class KafkaBroker:
    """Topics as partitioned, append-only, timestamp-ordered logs."""

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock or SimulatedClock()
        self._topics: dict[str, tuple[list[tuple[str, PrestoType]], list[list[_Record]]]] = {}
        self.records_fetched = 0

    def create_topic(
        self,
        name: str,
        fields: Sequence[tuple[str, PrestoType]],
        partitions: int = 3,
    ) -> None:
        self._topics[name] = (list(fields), [[] for _ in range(partitions)])

    def produce(
        self,
        topic: str,
        values: Sequence[Any],
        partition: Optional[int] = None,
        timestamp_ms: Optional[int] = None,
    ) -> int:
        """Append one message; returns its offset."""
        fields, partitions = self._require(topic)
        if len(values) != len(fields):
            raise ConnectorError(
                f"kafka: message has {len(values)} fields, topic {topic!r} has {len(fields)}"
            )
        if partition is None:
            # Key-hash partitioning must be process-stable: builtin hash()
            # of a string varies with PYTHONHASHSEED, which would scatter
            # the same produce sequence differently on every run.
            partition = stable_hash(str(values[0])) % len(partitions)
        log = partitions[partition]
        timestamp = int(
            timestamp_ms if timestamp_ms is not None else self.clock.now_ms()
        )
        if log and timestamp < log[-1].timestamp_ms:
            timestamp = log[-1].timestamp_ms  # logs are time-ordered
        record = _Record(len(log), timestamp, tuple(values))
        log.append(record)
        return record.offset

    def _require(self, topic: str):
        entry = self._topics.get(topic)
        if entry is None:
            raise ConnectorError(f"kafka: no topic {topic!r}")
        return entry

    def topics(self) -> list[str]:
        return sorted(self._topics)

    def fields(self, topic: str) -> list[tuple[str, PrestoType]]:
        return list(self._require(topic)[0])

    def partition_count(self, topic: str) -> int:
        return len(self._require(topic)[1])

    def end_offsets(self, topic: str) -> list[int]:
        """Per-partition log-end offsets (the next offset each would assign).

        A metadata lookup, not a consume: costs no simulated time.  The
        streaming pipeline uses it for consumer-lag gauges.
        """
        return [len(log) for log in self._require(topic)[1]]

    def log_records(self, topic: str, partition: int) -> list[_Record]:
        """The raw partition log, free of charge.

        The differential-oracle surface: test harnesses replay the full
        event log through a batch engine and compare it against hybrid
        reads, and that replay must not perturb the simulated clock or the
        ``records_fetched`` accounting of the run under test.
        """
        return list(self._require(topic)[1][partition])

    def fetch(
        self,
        topic: str,
        partition: int,
        min_offset: int = 0,
        max_offset: Optional[int] = None,
        min_timestamp_ms: Optional[int] = None,
        max_timestamp_ms: Optional[int] = None,
    ) -> list[_Record]:
        """Consume a partition range; only fetched records cost time."""
        _, partitions = self._require(topic)
        log = partitions[partition]
        start = max(min_offset, 0)
        end = len(log) if max_offset is None else min(max_offset + 1, len(log))
        if min_timestamp_ms is not None:
            # Timestamp index: logs are time-ordered, so binary search.
            timestamps = [r.timestamp_ms for r in log]
            start = max(start, bisect.bisect_left(timestamps, min_timestamp_ms))
        records = log[start:end]
        if max_timestamp_ms is not None:
            records = [r for r in records if r.timestamp_ms <= max_timestamp_ms]
        self.records_fetched += len(records)
        self.clock.advance(len(records) * FETCH_MS_PER_RECORD)
        return records


class KafkaConnector(SingleSchemaConnector):
    """Presto-Kafka connector: topic → table with hidden log coordinates."""

    name = "kafka"

    def __init__(self, broker: KafkaBroker, schema_name: str = "kafka") -> None:
        self.broker = broker
        self.schema_name = schema_name

    def all_columns(self, topic: str) -> list[tuple[str, PrestoType]]:
        return self.broker.fields(topic) + HIDDEN_COLUMNS

    def table_names(self) -> list[str]:
        return self.broker.topics()

    def columns_of(self, table_name: str) -> Optional[list[tuple[str, PrestoType]]]:
        if table_name not in self.broker.topics():
            return None
        return self.all_columns(table_name)

    def absorb_conjunct(
        self, handle: ConnectorTableHandle, conjunct: RowExpression
    ) -> Optional[RowExpression]:
        """Absorb offset/timestamp range conjuncts as log seeks."""
        return conjunct if _as_log_range(conjunct) is not None else None

    apply_projection = Connector.absorb_top_level_columns
    apply_limit = Connector.absorb_limit

    def get_splits(self, handle: ConnectorTableHandle) -> list[ConnectorSplit]:
        count = self.broker.partition_count(handle.table_name)
        return [
            ConnectorSplit(
                split_id=f"kafka:{handle.table_name}:{partition}",
                info=(("partition", partition),),
            )
            for partition in range(count)
        ]

    def pages(
        self,
        handle: ConnectorTableHandle,
        split: ConnectorSplit,
        columns: Sequence[str],
    ) -> Iterator[Page]:
        partition = split.info_dict()["partition"]

        ranges = {
            "_offset": [0, None],
            "_timestamp_ms": [None, None],
        }
        for conjunct in conjuncts(handle.constraint_expression()):
            test = _as_log_range(conjunct)
            if test is None:
                continue
            (bound,) = test.values
            low, high = ranges[test.column]
            if test.op in ("greater_than_or_equal", "equal"):
                low = bound if low is None else max(low, bound)
            if test.op in ("less_than_or_equal", "equal"):
                high = bound if high is None else min(high, bound)
            ranges[test.column] = [low, high]

        records = self.broker.fetch(
            handle.table_name,
            partition,
            min_offset=ranges["_offset"][0] or 0,
            max_offset=ranges["_offset"][1],
            min_timestamp_ms=ranges["_timestamp_ms"][0],
            max_timestamp_ms=ranges["_timestamp_ms"][1],
        )
        if handle.limit is not None:
            records = records[: handle.limit]

        # The log is a row store: the records read become one page.
        layout = self.all_columns(handle.table_name)
        rows = [tuple(r.values) + (partition, r.offset, r.timestamp_ms) for r in records]
        yield select_columns(layout, Page.from_rows([t for _, t in layout], rows), columns)


def _as_log_range(conjunct: RowExpression) -> Optional[ColumnTest]:
    """The conjunct as an ``_offset``/``_timestamp_ms`` log seek, else ``None``.

    The log is sought by integer positions only: a NULL or fractional
    bound stays with the engine.
    """
    test = match_column_test(conjunct)
    if (
        test is not None
        and test.column in ("_offset", "_timestamp_ms")
        and test.op in ("greater_than_or_equal", "less_than_or_equal", "equal")
        and test.values
        and type(test.values[0]) is int
    ):
        return test
    return None
