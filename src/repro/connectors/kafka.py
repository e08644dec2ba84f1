"""Simulated Kafka and the Presto-Kafka connector (section XI's list).

The simulated broker keeps topics as partitioned append-only logs of
pages.  The connector maps each topic to a table: message fields become
columns and three hidden columns expose log coordinates
(``_partition_id``, ``_offset``, ``_timestamp_ms``).  The broker alone
lays a record out: a produced batch becomes one page per partition, the
fields then the coordinates, and every read is a slice of those pages.
Range predicates on the hidden columns push down as log seeks, so "tail
the last five minutes" queries do not scan the whole topic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.common.clock import SimulatedClock, charge
from repro.common.errors import ConnectorError
from repro.common.hashing import stable_hash
from repro.connectors.spi import (
    Connector,
    ConnectorSplit,
    ConnectorTableHandle,
    SingleSchemaConnector,
    select_columns,
    stored_page,
)
from repro.core.blocks import PrimitiveBlock
from repro.core.expressions import (
    ColumnTest,
    RowExpression,
    conjuncts,
    match_column_test,
)
from repro.core.page import Page, concat_pages
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


class _Log:
    """One partition: a stored page per produce batch, and every record's timestamp."""

    def __init__(self) -> None:
        self.pages: list[Page] = []
        self.timestamps = np.empty(0, np.int64)


class KafkaBroker:
    """Topics as partitioned, append-only, timestamp-ordered logs."""

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock or SimulatedClock()
        self._topics: dict[str, tuple[list[tuple[str, PrestoType]], list[_Log]]] = {}
        self.records_fetched = 0

    def create_topic(
        self,
        name: str,
        fields: Sequence[tuple[str, PrestoType]],
        partitions: int = 3,
    ) -> None:
        self._topics[name] = (list(fields), [_Log() for _ in range(partitions)])

    def produce(
        self,
        topic: str,
        messages: Sequence[Sequence[Any]],
        partition: Optional[int] = None,
        timestamps_ms: Optional[Sequence[int]] = None,
    ) -> list[int]:
        """Append a batch of messages; returns their offsets in input order.

        A message goes to ``partition``, by default to the key hash of its
        first field, stamped ``timestamps_ms[i]`` (by default the clock's
        now) but never before its partition's last record: logs are
        time-ordered.  Nothing is appended unless the whole batch is valid.
        """
        fields, logs = self._require(topic)
        messages = [tuple(values) for values in messages]
        widths = sorted({len(values) for values in messages} - {len(fields)})
        now = [int(self.clock.now_ms())] * len(messages)
        stamps = np.array(now if timestamps_ms is None else timestamps_ms, np.int64)
        if widths or len(stamps) != len(messages) or partition not in (None, *range(len(logs))):
            raise ConnectorError(
                f"kafka: topic {topic!r} has {len(fields)} fields and {len(logs)} partitions; "
                f"got messages of {widths or len(fields)} fields, partition {partition}, "
                f"{len(stamps)} timestamps for {len(messages)} messages"
            )
        # Process-stable placement: builtin hash() of a string varies with
        # PYTHONHASHSEED, which would scatter the same produce sequence.
        targets = np.array(
            [stable_hash(str(v[0])) % len(logs) for v in messages]
            if partition is None
            else [partition] * len(messages),
            np.int64,
        )
        offsets, appends = np.empty(len(messages), np.int64), []
        for target in np.unique(targets):
            log, positions = logs[target], np.flatnonzero(targets == target)
            base = len(log.timestamps)
            offsets[positions] = np.arange(base, base + len(positions))
            timestamps = np.maximum.accumulate(
                np.concatenate([log.timestamps[-1:], stamps[positions]])
            )[-len(positions):]
            page = stored_page([t for _, t in fields], [messages[i] for i in positions])
            coordinates = (np.full(len(positions), target), offsets[positions], timestamps)
            page = Page(page.blocks + [PrimitiveBlock(BIGINT, c) for c in coordinates])
            appends.append((log, page, timestamps))
        for log, page, timestamps in appends:
            log.pages.append(page)
            log.timestamps = np.concatenate([log.timestamps, timestamps])
        return offsets.tolist()

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
        return [len(log.timestamps) for log in self._require(topic)[1]]

    def log_records(self, topic: str, partition: int) -> list[_Record]:
        """The raw partition log as records, free of charge.

        The differential-oracle surface: test harnesses replay the full
        event log through a batch engine and compare it against hybrid
        reads, and that replay must not perturb the simulated clock or the
        ``records_fetched`` accounting of the run under test.
        """
        fields, logs = self._require(topic)
        rows = self._read(fields, logs[partition], 0, len(logs[partition].timestamps)).to_rows()
        return [_Record(row[-2], row[-1], row[: len(fields)]) for row in rows]

    def fetch(
        self,
        topic: str,
        partition: int,
        min_offset: int = 0,
        max_offset: Optional[int] = None,
        min_timestamp_ms: Optional[int] = None,
        max_timestamp_ms: Optional[int] = None,
    ) -> Page:
        """Consume a partition range as one full-width page; only fetched
        records cost time."""
        fields, logs = self._require(topic)
        log = logs[partition]
        start, end = min_offset, len(log.timestamps) if max_offset is None else max_offset + 1
        # Timestamp index: logs are time-ordered, so binary search.
        if min_timestamp_ms is not None:
            start = max(start, int(np.searchsorted(log.timestamps, min_timestamp_ms, "left")))
        if max_timestamp_ms is not None:
            end = min(end, int(np.searchsorted(log.timestamps, max_timestamp_ms, "right")))
        page = self._read(fields, log, start, end)
        self.records_fetched += page.position_count
        charge(self.clock, "store", page.position_count * FETCH_MS_PER_RECORD)
        return page

    @staticmethod
    def _read(fields: list[tuple[str, PrestoType]], log: _Log, start: int, end: int) -> Page:
        """Offsets ``[start, end)`` of a log, each bound clamped into each
        page (a negative one never wraps), as one full-width page."""
        pieces, base = [], 0
        for page in log.pages:
            positions = np.arange(max(start - base, 0), min(end - base, page.position_count))
            if len(positions):
                whole = len(positions) == page.position_count
                pieces.append(page if whole else page.take(positions))
            base += page.position_count
        types = [t for _, t in fields + HIDDEN_COLUMNS]
        return pieces[0] if len(pieces) == 1 else concat_pages(types, pieces)


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

        ranges = {"_offset": [0, None], "_timestamp_ms": [None, None]}
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

        (low, high), (since, until) = ranges["_offset"], ranges["_timestamp_ms"]
        page = self.broker.fetch(handle.table_name, partition, low, high, since, until)
        if handle.limit is not None and page.position_count > handle.limit:
            page = page.take(np.arange(handle.limit))
        yield select_columns(self.all_columns(handle.table_name), page, columns)


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
