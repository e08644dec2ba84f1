"""The hybrid streaming table: an in-memory tail over a lakehouse base.

One :class:`HybridTable` stitches the repo's three streaming substrates
into a single queryable object (the paper's batch→real-time arc,
Figs 15–16):

- a **Kafka topic** is the durable source of truth (the replayable log);
- the **realtime store** hosts the in-memory *tail* — one immutable
  store segment per ingested micro-batch, carrying the log coordinates
  (``_partition_id``, ``_offset``, ``_timestamp_ms``) as real columns;
- an **Iceberg table** holds the sealed past as parquet snapshots whose
  summary records the *sealed watermark*.

Exactly-once visibility is structural, not procedural.  Three watermarks
order every record::

      sealed  <=  committed  <=  log end
        |             |
        lake rows     tail rows (visible)       in-flight (invisible)
        offset < S    S <= offset < C           offset >= C

A read at watermark ``W`` (``W <= committed``) sees lake rows with
``offset < min(W, S)`` plus tail rows with ``S <= offset < W`` — the two
sides partition the log at ``S``, so a row is visible in the tail XOR a
sealed snapshot, never both and never neither.  Crash recovery only ever
(a) drops tail rows above ``committed`` (uncommitted appends are
re-fetched from Kafka) and (b) re-prunes tail rows below ``sealed``
(both idempotent), so no crash point can duplicate or drop a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.common.errors import ConnectorError
from repro.connectors.kafka import HIDDEN_COLUMNS
from repro.connectors.lakehouse.table_format import IcebergTable
from repro.connectors.olap.store import RealtimeOlapStore, Segment
from repro.core.types import PrestoType
from repro.realtime.watermark import Watermark

SEALED_WATERMARK_PROPERTY = "sealed-watermark"
MAX_TIMESTAMP_PROPERTY = "max-sealed-timestamp-ms"


@dataclass
class TailSegment:
    """Bookkeeping for one in-memory micro-batch segment.

    The row data itself lives in the realtime store's :class:`Segment`;
    this records which slice of which partition's log the segment holds,
    which is what compaction, pruning, and watermark cuts reason over.
    """

    segment_id: int
    partition: int
    base_offset: int  # inclusive
    end_offset: int  # exclusive
    max_timestamp_ms: int
    segment: Segment

    @property
    def row_count(self) -> int:
        return self.end_offset - self.base_offset


class HybridTable:
    """Tail + lake + watermarks for one streamed topic."""

    def __init__(
        self,
        name: str,
        fields: Sequence[tuple[str, PrestoType]],
        partitions: int,
        lake: IcebergTable,
        store: RealtimeOlapStore,
    ) -> None:
        self.name = name
        self.fields = list(fields)
        self.partitions = partitions
        self.lake = lake
        self.store = store
        self.clock = store.clock
        # Full row layout: user fields then the hidden log coordinates.
        self.columns: list[tuple[str, PrestoType]] = list(fields) + list(HIDDEN_COLUMNS)
        expected = [n for n, _ in self.columns]
        if [n for n, _ in lake.columns] != expected:
            raise ConnectorError(
                f"hybrid table {name!r}: lake columns {[n for n, _ in lake.columns]} "
                f"must equal stream layout {expected}"
            )
        if name not in store.datasource_names():
            store.create_datasource(name, self.columns)
        self.committed: Watermark = Watermark.zero(partitions)
        self.tail_segments: list[TailSegment] = []
        self._segment_ids = 0
        # Newest committed event timestamp, for freshness gauges.
        self.max_committed_timestamp_ms: int = 0

    # -- watermarks -----------------------------------------------------------

    def sealed_watermark(self) -> Watermark:
        """The sealed watermark from the lake's current snapshot summary."""
        encoded = self.lake.current_snapshot().properties_dict().get(
            SEALED_WATERMARK_PROPERTY
        )
        if encoded is None:
            return Watermark.zero(self.partitions)
        return Watermark.decode(encoded)

    def sealed_max_timestamp_ms(self) -> int:
        """Newest event timestamp visible through the sealed lake alone."""
        encoded = self.lake.current_snapshot().properties_dict().get(
            MAX_TIMESTAMP_PROPERTY
        )
        return int(encoded) if encoded is not None else 0

    # -- ingestion ------------------------------------------------------------

    def append_tail(self, partition: int, records: Sequence) -> Optional[TailSegment]:
        """Stage one fetched micro-batch as an (uncommitted) tail segment.

        ``records`` are broker records (``offset`` / ``timestamp_ms`` /
        ``values``).  Records below the committed offset are dropped —
        re-delivery after a crash is idempotent — and any previously
        staged-but-uncommitted segment for the partition is replaced, so
        the tail never holds two copies of an offset.
        """
        committed = self.committed.offset(partition)
        fresh = [r for r in records if r.offset >= committed]
        # Self-healing: an earlier append that crashed before its offset
        # commit may have left an uncommitted segment; replace it.
        self._drop_segments(
            lambda s: s.partition == partition and s.base_offset >= committed
        )
        if not fresh:
            return None
        if fresh[0].offset != committed:
            raise ConnectorError(
                f"hybrid table {self.name!r}: partition {partition} append gap "
                f"(expected offset {committed}, got {fresh[0].offset})"
            )
        rows = [
            tuple(r.values) + (partition, r.offset, r.timestamp_ms) for r in fresh
        ]
        segment = self.store.add_segment(self.name, rows)
        tail_segment = TailSegment(
            segment_id=self._segment_ids,
            partition=partition,
            base_offset=fresh[0].offset,
            end_offset=fresh[-1].offset + 1,
            max_timestamp_ms=max(r.timestamp_ms for r in fresh),
            segment=segment,
        )
        self._segment_ids += 1
        self.tail_segments.append(tail_segment)
        return tail_segment

    def commit_offsets(self, partition: int, end_offset: int) -> None:
        """Acknowledge ingestion: rows below ``end_offset`` become visible."""
        self.committed = self.committed.with_offset(partition, end_offset)
        for segment in self.tail_segments:
            if segment.partition == partition and segment.end_offset <= end_offset:
                self.max_committed_timestamp_ms = max(
                    self.max_committed_timestamp_ms, segment.max_timestamp_ms
                )

    # -- recovery -------------------------------------------------------------

    def recover(self) -> None:
        """Restore the invariants after a crash; idempotent.

        Uncommitted tail rows are dropped (the broker still has them — the
        next poll re-fetches from the committed offset) and already-sealed
        tail rows are pruned (a compactor crash between snapshot commit
        and prune leaves them behind; visibility already excluded them).
        """
        committed = self.committed
        self._drop_segments(
            lambda s: s.base_offset >= committed.offset(s.partition)
        )
        self.prune_sealed()

    def lose_tail(self) -> None:
        """Model losing the whole in-memory store (node loss).

        Everything not sealed into the lake must be re-ingested: committed
        offsets rewind to the sealed watermark and the tail empties.  The
        Kafka log is durable, so replaying from ``sealed`` reconstructs an
        identical tail — which is exactly what the determinism tests pin.
        """
        self._drop_segments(lambda s: True)
        self.committed = self.sealed_watermark()

    def prune_sealed(self) -> int:
        """Drop tail segments wholly below the sealed watermark."""
        sealed = self.sealed_watermark()
        before = len(self.tail_segments)
        self._drop_segments(
            lambda s: s.end_offset <= sealed.offset(s.partition)
        )
        return before - len(self.tail_segments)

    def _drop_segments(self, doomed) -> None:
        for tail_segment in [s for s in self.tail_segments if doomed(s)]:
            self.store.remove_segment(self.name, tail_segment.segment)
            self.tail_segments.remove(tail_segment)

    # -- reads ----------------------------------------------------------------

    def visible_tail_rows(
        self, sealed: Watermark, read: Watermark, partition: Optional[int] = None
    ) -> list[tuple]:
        """Committed tail rows with ``sealed[p] <= offset < read[p]``.

        Deterministic order: partition-major, offset ascending.  ``read``
        must not exceed ``committed`` (callers pin read watermarks from
        it), and rows the lake already sealed are excluded by construction
        — the tail side of the exactly-once partition.
        """
        read = read.meet(self.committed)
        rows: list[tuple] = []
        offset_index = len(self.fields) + 1  # _offset position in full rows
        for tail_segment in sorted(
            self.tail_segments, key=lambda s: (s.partition, s.base_offset)
        ):
            p = tail_segment.partition
            if partition is not None and p != partition:
                continue
            low = max(sealed.offset(p), tail_segment.base_offset)
            high = min(read.offset(p), tail_segment.end_offset)
            if low >= high:
                continue
            for row in _segment_rows(tail_segment.segment):
                if low <= row[offset_index] < high:
                    rows.append(row)
        return rows

    def lake_rows_between(self, low: Watermark, high: Watermark) -> list[tuple]:
        """Lake rows with ``low[p] <= offset < high[p]`` (full-width tuples)."""
        partition_index = len(self.fields)
        offset_index = partition_index + 1
        rows: list[tuple] = []
        for data_file in self.lake.current_snapshot().files:
            for row in self.lake.read_file_rows(data_file):
                p, offset = row[partition_index], row[offset_index]
                if low.offset(p) <= offset < high.offset(p):
                    rows.append(row)
        rows.sort(key=lambda r: (r[partition_index], r[offset_index]))
        return rows

    def read_rows_between(self, low: Watermark, high: Watermark) -> list[tuple]:
        """All visible rows in ``[low, high)``, wherever they live.

        Used by incremental materialized-view refresh: the range below the
        sealed watermark is served by the lake, the rest by the tail, and
        the split point guarantees no row is returned twice even while
        compaction is racing ahead.
        """
        sealed = self.sealed_watermark()
        lake_part = self.lake_rows_between(low, high.meet(sealed))
        tail_part = self.visible_tail_rows(low.join(sealed), high)
        return lake_part + tail_part

    # -- introspection --------------------------------------------------------

    def tail_row_count(self) -> int:
        return sum(s.row_count for s in self.tail_segments)

    def tail_layout(self) -> list[tuple]:
        """Deterministic tail descriptor for byte-identical replay tests."""
        return [
            (s.segment_id, s.partition, s.base_offset, s.end_offset, s.max_timestamp_ms)
            for s in sorted(self.tail_segments, key=lambda s: s.segment_id)
        ]

    def column_types(self) -> dict[str, PrestoType]:
        return dict(self.columns)

    def column_names(self) -> list[str]:
        return [n for n, _ in self.columns]


def _segment_rows(segment: Segment) -> list[tuple]:
    """Rebuild row tuples from a columnar store segment.

    Segment column dicts preserve datasource column order, which is the
    hybrid table's full row layout (user fields then log coordinates).
    """
    columns = list(segment.columns.values())
    return [tuple(c[i] for c in columns) for i in range(segment.num_rows)]
