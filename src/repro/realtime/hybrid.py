"""The hybrid streaming table: an in-memory tail over a lakehouse base.

One :class:`HybridTable` stitches the repo's three streaming substrates
into a single queryable object (the paper's batch→real-time arc,
Figs 15–16):

- a **Kafka topic** is the durable source of truth (the replayable log);
- the in-memory *tail* is the table's own: one immutable segment per
  ingested micro-batch, the page the broker fetched kept as it is, each
  row carrying the log coordinates the broker laid out
  (``_partition_id``, ``_offset``, ``_timestamp_ms``) as real columns, so
  an offset range of a segment is one contiguous ``take``;
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

import numpy as np

from repro.common.clock import SimulatedClock
from repro.common.errors import ConnectorError
from repro.connectors.kafka import HIDDEN_COLUMNS
from repro.connectors.lakehouse.table_format import IcebergTable
from repro.core.page import Page, concat_pages
from repro.core.types import PrestoType
from repro.realtime.watermark import Watermark

SEALED_WATERMARK_PROPERTY = "sealed-watermark"
MAX_TIMESTAMP_PROPERTY = "max-sealed-timestamp-ms"


@dataclass
class TailSegment:
    """One in-memory micro-batch: a consecutive slice of one partition's log.

    ``page`` holds the full-width rows of offsets ``[base_offset,
    end_offset)`` in offset order, so the row of offset ``o`` is position
    ``o - base_offset``; compaction, pruning and watermark cuts reason
    over the offset range.
    """

    segment_id: int
    partition: int
    base_offset: int  # inclusive
    end_offset: int  # exclusive
    max_timestamp_ms: int
    page: Page


class HybridTable:
    """Tail + lake + watermarks for one streamed topic."""

    def __init__(
        self,
        name: str,
        fields: Sequence[tuple[str, PrestoType]],
        partitions: int,
        lake: IcebergTable,
        clock: SimulatedClock,
    ) -> None:
        self.name = name
        self.fields = list(fields)
        self.partitions = partitions
        self.lake = lake
        self.clock = clock
        # Full row layout: user fields then the hidden log coordinates.
        self.columns: list[tuple[str, PrestoType]] = list(fields) + list(HIDDEN_COLUMNS)
        self.types = [t for _, t in self.columns]
        expected = [n for n, _ in self.columns]
        if [n for n, _ in lake.columns] != expected:
            raise ConnectorError(
                f"hybrid table {name!r}: lake columns {[n for n, _ in lake.columns]} "
                f"must equal stream layout {expected}"
            )
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

    def append_tail(self, partition: int, page: Page) -> Optional[TailSegment]:
        """Stage one fetched micro-batch as an (uncommitted) tail segment.

        ``page`` is a full-width page as :meth:`KafkaBroker.fetch` returns
        it.  Rows below the committed offset are dropped — re-delivery
        after a crash is idempotent — and any previously
        staged-but-uncommitted segment for the partition is replaced, so
        the tail never holds two copies of an offset.  The fresh rows must
        continue the committed offset without a gap.
        """
        committed = self.committed.offset(partition)
        fresh = np.flatnonzero(self.coordinates(page)[1] >= committed)
        # Self-healing: an earlier append that crashed before its offset
        # commit may have left an uncommitted segment; replace it.
        self._drop_segments(
            lambda s: s.partition == partition and s.base_offset >= committed
        )
        if not len(fresh):
            return None
        if len(fresh) < page.position_count:
            page = page.take(fresh)
        offsets = self.coordinates(page)[1]
        gaps = np.flatnonzero(offsets != np.arange(committed, committed + len(offsets)))
        if len(gaps):
            raise ConnectorError(
                f"hybrid table {self.name!r}: partition {partition} append gap "
                f"(expected offset {committed + gaps[0]}, got {offsets[gaps[0]]})"
            )
        tail_segment = TailSegment(
            segment_id=self._segment_ids,
            partition=partition,
            base_offset=committed,
            end_offset=committed + len(offsets),
            max_timestamp_ms=int(page.block(len(self.fields) + 2).values.max()),
            page=page,
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
        """Model losing the whole in-memory tail (node loss).

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
        self.tail_segments = [s for s in self.tail_segments if not doomed(s)]

    # -- reads ----------------------------------------------------------------

    def visible_tail_page(
        self, sealed: Watermark, read: Watermark, partition: Optional[int] = None
    ) -> Page:
        """Committed tail rows with ``sealed[p] <= offset < read[p]``.

        Deterministic order: partition-major, offset ascending.  ``read``
        must not exceed ``committed`` (callers pin read watermarks from
        it), and rows the lake already sealed are excluded by construction
        — the tail side of the exactly-once partition.
        """
        read = read.meet(self.committed)
        pages: list[Page] = []
        for segment in sorted(self.tail_segments, key=lambda s: (s.partition, s.base_offset)):
            p, base, end = segment.partition, segment.base_offset, segment.end_offset
            low, high = max(sealed.offset(p), base), min(read.offset(p), end)
            if (partition is None or p == partition) and low < high:
                page = segment.page
                if (low, high) != (base, end):
                    page = page.take(np.arange(low - base, high - base))
                pages.append(page)
        return self._concat(pages)

    def read_page_between(self, low: Watermark, high: Watermark) -> Page:
        """All visible rows in ``[low, high)``, wherever they live.

        Used by incremental materialized-view refresh: the range below the
        sealed watermark is served by the lake (partition-major, offset
        ascending), the rest by the tail, and the split point guarantees
        no row is returned twice even while compaction is racing ahead.
        """
        sealed = self.sealed_watermark()
        files = self.lake.current_snapshot().files
        lake = concat_pages(self.types, [self.lake.read_file_page(f) for f in files])
        partitions, offsets = self.coordinates(lake)
        keep = np.flatnonzero(
            (np.asarray(low.offsets)[partitions] <= offsets)
            & (offsets < np.asarray(high.meet(sealed).offsets)[partitions])
        )
        lake = lake.take(keep[np.lexsort((offsets[keep], partitions[keep]))])
        return self._concat([lake, self.visible_tail_page(low.join(sealed), high)])

    def coordinates(self, page: Page) -> tuple[np.ndarray, np.ndarray]:
        """The ``_partition_id`` and ``_offset`` columns of a full-width
        page as int64 arrays: BIGINT pages are flat, and log coordinates
        are never NULL."""
        width = len(self.fields)
        return page.block(width).values, page.block(width + 1).values

    def _concat(self, pages: Sequence[Page]) -> Page:
        """Full-width pages end to end; a lone non-empty page as it is."""
        pages = [page for page in pages if page.position_count]
        return pages[0] if len(pages) == 1 else concat_pages(self.types, pages)

    # -- introspection --------------------------------------------------------

    def tail_row_count(self) -> int:
        return sum(s.page.position_count for s in self.tail_segments)
