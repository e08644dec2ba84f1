"""Legacy Parquet writer (section V.J).

"The legacy Presto Parquet writer iterates each columnar block in a page
and reconstructs every single record, then it consumes each individual
record and writes value bytes to Parquet pages.  The old Parquet writer was
adding unnecessary overhead to convert Presto's columnar in-memory data
into row based records, and then doing one more conversion to write row
based records to Parquet's columnar on disk file format."

This writer reproduces that double conversion faithfully: pages are first
materialized as Python record objects (column → row transform), and the
records are then consumed one at a time to rebuild per-column value
streams (row → column transform) before encoding.  It produces byte-for-
byte the same file format as the native writer.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.core.page import Page
from repro.formats.parquet import compression
from repro.formats.parquet.file import LeafChunk, ParquetBlobWriter
from repro.formats.parquet.schema import ParquetSchema
from repro.formats.parquet.shredder import shred_column


class OldParquetWriter:
    """Row-reconstructing writer: columnar → records → columnar → disk."""

    def __init__(
        self,
        schema: ParquetSchema,
        codec: str = compression.SNAPPY,
        row_group_size: int = 10_000,
    ) -> None:
        self.schema = schema
        self.codec = codec
        self.row_group_size = row_group_size

    def write_pages(self, pages: Iterable[Page]) -> bytes:
        blob = ParquetBlobWriter(self.schema, self.codec, value_at_a_time=True)
        column_names = self.schema.column_names()
        for page in pages:
            # Conversion 1: columnar page → row-based records.
            records = [dict(zip(column_names, row)) for row in page.loaded().rows()]
            for start in range(0, len(records), self.row_group_size):
                group = records[start : start + self.row_group_size]
                blob.add_row_group(len(group), self._shred_records(group))
        return blob.finish()

    def _shred_records(self, records: list[dict[str, Any]]) -> dict[str, LeafChunk]:
        chunks: dict[str, LeafChunk] = {}
        for name, presto_type in self.schema.columns:
            # Conversion 2: consume each individual record, rebuilding the
            # column's value stream one value at a time.
            column_values: list[Any] = []
            for record in records:
                column_values.append(record[name])
            for path, levels in shred_column(name, presto_type, column_values).items():
                leaf = self.schema.leaf(path)
                max_def = leaf.max_definition_level
                defined = [
                    v for v, d in zip(levels.values, levels.definition) if d == max_def
                ]
                chunks[path] = LeafChunk(
                    leaf=leaf,
                    repetition=levels.repetition,
                    definition=levels.definition,
                    defined_values=defined,
                    num_slots=len(levels),
                )
        return chunks
