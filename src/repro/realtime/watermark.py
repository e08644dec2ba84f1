"""Per-partition offset watermarks: the unit of exactly-once visibility.

A :class:`Watermark` is a vector of *exclusive* high offsets, one per
Kafka partition: offset ``o`` of partition ``p`` is **covered** iff
``o < offsets[p]``.  Every visibility decision in the streaming lakehouse
is phrased as set algebra over watermarks:

- the **committed** watermark bounds what the ingestion pipeline has
  durably acknowledged (tail rows at or above it are in-flight and
  invisible);
- the **sealed** watermark — stored atomically in the lakehouse snapshot
  summary — splits the visible log between the lake (below) and the
  in-memory tail (at or above);
- a **read** watermark pins one consistent cut for a query, which is how
  hybrid scans and time travel stay exactly-once under concurrent
  ingestion and compaction.

Watermarks are immutable, totally ordered per partition (and partially
ordered as vectors), and encode to the compact ``"5-7-3"`` form used in
time-travel table names (``events$watermark=5-7-3``) and snapshot
properties.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=False)
class Watermark:
    """An immutable vector of per-partition exclusive high offsets."""

    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(o < 0 for o in self.offsets):
            raise ValueError(f"watermark offsets must be >= 0, got {self.offsets}")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, partitions: int) -> "Watermark":
        return cls((0,) * partitions)

    @classmethod
    def of(cls, *offsets: int) -> "Watermark":
        return cls(tuple(offsets))

    # -- accessors ------------------------------------------------------------

    @property
    def partitions(self) -> int:
        return len(self.offsets)

    def offset(self, partition: int) -> int:
        return self.offsets[partition]

    def total(self) -> int:
        """Total number of covered records across partitions."""
        return sum(self.offsets)

    def covers(self, partition: int, offset: int) -> bool:
        """Whether record ``(partition, offset)`` is below this watermark."""
        return 0 <= offset < self.offsets[partition]

    # -- algebra --------------------------------------------------------------

    def with_offset(self, partition: int, offset: int) -> "Watermark":
        if offset < self.offsets[partition]:
            raise ValueError(
                f"watermark for partition {partition} cannot move backwards "
                f"({self.offsets[partition]} -> {offset})"
            )
        updated = list(self.offsets)
        updated[partition] = offset
        return Watermark(tuple(updated))

    def dominates(self, other: "Watermark") -> bool:
        """Pointwise >=: everything ``other`` covers, this covers too."""
        self._check_arity(other)
        return all(a >= b for a, b in zip(self.offsets, other.offsets))

    def meet(self, other: "Watermark") -> "Watermark":
        """Pointwise minimum (greatest lower bound)."""
        self._check_arity(other)
        return Watermark(tuple(min(a, b) for a, b in zip(self.offsets, other.offsets)))

    def join(self, other: "Watermark") -> "Watermark":
        """Pointwise maximum (least upper bound)."""
        self._check_arity(other)
        return Watermark(tuple(max(a, b) for a, b in zip(self.offsets, other.offsets)))

    def _check_arity(self, other: "Watermark") -> None:
        if len(self.offsets) != len(other.offsets):
            raise ValueError(
                f"watermark arity mismatch: {len(self.offsets)} vs {len(other.offsets)}"
            )

    # -- serialization --------------------------------------------------------

    def encode(self) -> str:
        """Compact text form, e.g. ``"5-7-3"`` (used in table suffixes)."""
        return "-".join(str(o) for o in self.offsets)

    @classmethod
    def decode(cls, text: str) -> "Watermark":
        try:
            return cls(tuple(int(part) for part in text.split("-")))
        except ValueError as error:
            raise ValueError(f"bad watermark encoding {text!r}") from error
