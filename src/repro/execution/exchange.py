"""Exchange buffers: page movement between stages of a fragmented plan.

Section III: stages are connected by exchanges — GATHER (all data to one
node), REPARTITION (hash-partition on keys), REPLICATE (broadcast).  In
this in-process reproduction an exchange is a buffer of pages produced by
the upstream stage's tasks, in task order, so staged execution stays
deterministic.

Partitioning is columnar: the producer's key channels go through
:func:`repro.execution.kernels.partition_assignments`, which hashes each
key block's buffers with numpy (:func:`repro.execution.kernels.block_hash`:
no key tuple, no Python work per key) and takes the combined hash modulo
the partition count; each partition's rows are extracted with
``Page.take``.  The hash is a fixed function of the SQL value, so
partition placement is reproducible across processes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.errors import ExecutionError
from repro.core.page import Page
from repro.execution import kernels
from repro.planner.fragmenter import Exchange, ExchangeKind


class ExchangeBuffer:
    """Buffered output of one stage, keyed by the consuming exchange.

    ``partition_count`` only matters for partitioned exchanges (the
    REPARTITION edge feeding a hash-distributed stage); every other kind
    keeps a single buffer which consumers read in full — GATHER because
    there is one consumer task, REPLICATE because every consumer task
    receives the whole broadcast, and non-partitioned REPARTITION (a join
    build side) because the in-process hash join needs the complete build
    table per probe task.

    Partitioning is **lazy**: producer pages accumulate in arrival order
    and are routed into partitions only at the first partitioned read.
    A buffer is one partition wide until told otherwise; in that window —
    after the producer finished, before the consumer is planned — the
    scheduler calls :meth:`set_partition_count` with the width it chose
    for the consuming stage from ``rows_added``.
    """

    def __init__(
        self,
        exchange: Optional[Exchange],
        key_channels: Optional[list[int]] = None,
    ) -> None:
        self.exchange = exchange
        self.partitioned = bool(exchange is not None and exchange.partitioned)
        self.partition_count = 1
        self.key_channels = key_channels or []
        if self.partitioned and not self.key_channels:
            raise ExecutionError(
                f"partitioned exchange {exchange.kind} has no key channels"
            )
        self._added: list[Page] = []
        self._partitions: Optional[list[list[Page]]] = None
        self.rows_added = 0

    def add(self, page: Page) -> None:
        """Buffer one producer page (partitioning deferred to first read)."""
        self.rows_added += page.position_count
        self._added.append(page)
        self._partitions = None  # late adds re-partition lazily

    def set_partition_count(self, count: int) -> None:
        """Set the consuming stage's width, before its first read."""
        if count < 1:
            raise ExecutionError("partition count must be at least 1")
        if not self.partitioned:
            return
        self.partition_count = count
        self._partitions = None

    def _materialized(self) -> list[list[Page]]:
        if self._partitions is None:
            partitions: list[list[Page]] = [
                [] for _ in range(self.partition_count)
            ]
            if not self.partitioned or self.partition_count == 1:
                partitions[0] = list(self._added)
            else:
                for page in self._added:
                    if page.position_count == 0:
                        continue
                    key_blocks = [
                        page.block(c).loaded() for c in self.key_channels
                    ]
                    assignments = kernels.partition_assignments(
                        key_blocks, self.partition_count
                    )
                    for partition in range(self.partition_count):
                        positions = np.nonzero(assignments == partition)[0]
                        if len(positions):
                            partitions[partition].append(page.take(positions))
            self._partitions = partitions
        return self._partitions

    def pages_for_partition(self, partition: int) -> list[Page]:
        """Pages owned by one consumer task of a partitioned exchange."""
        return list(self._materialized()[partition])

    def all_pages(self) -> list[Page]:
        """Every buffered page, partition-major, in production order."""
        return [page for partition in self._materialized() for page in partition]


def key_channels_for(exchange: Exchange, producer_root) -> list[int]:
    """Channel indexes of the exchange's partition keys in producer output."""
    names = [v.name for v in producer_root.outputs]
    channels = []
    for key in exchange.partition_keys:
        if key not in names:
            raise ExecutionError(
                f"partition key {key!r} not in producer outputs {names}"
            )
        channels.append(names.index(key))
    return channels
