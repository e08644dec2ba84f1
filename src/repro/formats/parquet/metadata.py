"""File footer metadata: schema, row groups, column chunk statistics.

"Each Parquet file has a footer that stores codecs, encoding information,
as well as column-level statistics, e.g., the minimum and maximum number of
column values" (section V.B).  Everything here serializes to JSON so the
footer can live at the end of the file blob and be cached by the worker's
footer cache (section VII.B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.formats.parquet.schema import ParquetSchema


@dataclass(frozen=True)
class ColumnStatistics:
    """Min/max/null statistics for one column chunk."""

    min_value: Optional[Any]
    max_value: Optional[Any]
    null_count: int
    num_values: int  # triplet count (defined + null slots)

    def to_dict(self) -> dict:
        return {
            "min": self.min_value,
            "max": self.max_value,
            "nullCount": self.null_count,
            "numValues": self.num_values,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnStatistics":
        return cls(data["min"], data["max"], data["nullCount"], data["numValues"])

    @classmethod
    def of(cls, values: list, num_slots: int) -> "ColumnStatistics":
        """Compute stats from the defined (non-null) values of a chunk."""
        defined = [v for v in values if v is not None]
        if not defined:
            return cls(None, None, num_slots, num_slots)
        # NaN never orders against anything, so a single NaN would make
        # min()/max() order-dependent garbage: compare the comparable.
        comparable = [v for v in defined if v == v]
        if not comparable:
            return cls(None, None, num_slots - len(defined), num_slots)
        try:
            low, high = min(comparable), max(comparable)
        except TypeError:
            low = high = None  # non-orderable values: no min/max stats
        return cls(low, high, num_slots - len(defined), num_slots)


@dataclass(frozen=True)
class ColumnChunkMetadata:
    """Layout and statistics of one leaf column within one row group.

    ``segments`` maps segment name ("rep", "def", "data", "dict") to
    (absolute offset, compressed length) within the file blob.  The
    dictionary lives in its own segment so dictionary pushdown can read it
    without touching the data pages.
    """

    path: str
    encoding: str  # "plain" | "dictionary"
    codec: str
    num_values: int
    statistics: ColumnStatistics
    segments: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def has_dictionary(self) -> bool:
        return "dict" in self.segments

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "encoding": self.encoding,
            "codec": self.codec,
            "numValues": self.num_values,
            "statistics": self.statistics.to_dict(),
            "segments": {k: list(v) for k, v in self.segments.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnChunkMetadata":
        return cls(
            data["path"],
            data["encoding"],
            data["codec"],
            data["numValues"],
            ColumnStatistics.from_dict(data["statistics"]),
            {k: (v[0], v[1]) for k, v in data["segments"].items()},
        )


@dataclass(frozen=True)
class RowGroupMetadata:
    num_rows: int
    columns: dict[str, ColumnChunkMetadata]  # keyed by leaf path

    def column(self, path: str) -> ColumnChunkMetadata:
        return self.columns[path]

    def to_dict(self) -> dict:
        return {
            "numRows": self.num_rows,
            "columns": {k: v.to_dict() for k, v in self.columns.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RowGroupMetadata":
        return cls(
            data["numRows"],
            {k: ColumnChunkMetadata.from_dict(v) for k, v in data["columns"].items()},
        )


@dataclass(frozen=True)
class FileMetadata:
    """The footer: schema plus row group layout."""

    schema: ParquetSchema
    row_groups: list[RowGroupMetadata]
    created_by: str = "repro-parquet"

    @property
    def num_rows(self) -> int:
        return sum(g.num_rows for g in self.row_groups)

    def to_dict(self) -> dict:
        return {
            "schema": self.schema.to_dict(),
            "rowGroups": [g.to_dict() for g in self.row_groups],
            "createdBy": self.created_by,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FileMetadata":
        return cls(
            ParquetSchema.from_dict(data["schema"]),
            [RowGroupMetadata.from_dict(g) for g in data["rowGroups"]],
            data.get("createdBy", "repro-parquet"),
        )
