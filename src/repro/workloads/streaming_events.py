"""Deterministic event stream for the streaming-lakehouse benchmarks.

Stands in for the paper's realtime feeds (section XI): an append-only
order-event topic with a handful of hot cities, skewed amounts, and
timestamps pacing out at a fixed event rate.  Generation is driven by
:func:`repro.common.hashing.stable_hash`, never ``random`` or builtin
``hash``, so the same parameters produce byte-identical streams in every
interpreter process — the property the determinism and differential
suites rely on.
"""

from __future__ import annotations

from typing import Iterator

from repro.common.hashing import stable_hash
from repro.core.types import BIGINT, DOUBLE, PrestoType, VARCHAR

EVENT_FIELDS: list[tuple[str, PrestoType]] = [
    ("order_id", BIGINT),
    ("city", VARCHAR),
    ("amount", DOUBLE),
]

_CITIES = ["sf", "nyc", "la", "chi", "sea", "mia", "aus", "den"]


def event_stream(
    count: int,
    seed: int = 0,
    events_per_second: float = 200.0,
    start_ms: int = 0,
    start_id: int = 0,
) -> Iterator[tuple[tuple[int, str, float], int]]:
    """Yield ``(values, timestamp_ms)`` pairs for ``count`` events.

    City choice is Zipf-flavoured (earlier cities are hotter) and amounts
    spread over [1, 201) with two decimal places, both keyed off
    ``(seed, order_id)`` so distinct seeds give distinct streams.  Pass
    ``start_id`` to continue the same stream across multiple calls (the
    pacing benchmarks produce it in small ticks).
    """
    interval_ms = 1000.0 / events_per_second
    for position in range(count):
        order_id = start_id + position
        coin = stable_hash(f"evt:{seed}:{order_id}")
        # Squaring the unit draw skews mass toward index 0 (hot cities).
        unit = (coin % 10_000) / 10_000.0
        city = _CITIES[int(unit * unit * len(_CITIES))]
        amount = 1.0 + (stable_hash(f"amt:{seed}:{order_id}") % 20_000) / 100.0
        timestamp_ms = start_ms + int(position * interval_ms)
        yield (order_id, city, amount), timestamp_ms


def produce_events(
    lakehouse,
    count: int,
    seed: int = 0,
    events_per_second: float = 200.0,
    start_ms: int = 0,
    start_id: int = 0,
) -> int:
    """Feed ``count`` generated events into a :class:`StreamingLakehouse`.

    One batch; returns the number of events produced.  Partition
    assignment is left to the broker's stable key-hash partitioner.
    """
    events = list(event_stream(count, seed, events_per_second, start_ms, start_id))
    lakehouse.produce([e for e, _ in events], timestamps_ms=[t for _, t in events])
    return len(events)
