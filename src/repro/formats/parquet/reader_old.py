"""Original open source Parquet reader (section V.C, figure 4).

"The original reader conducts analysis in three steps: (1) reads all
Parquet data row by row using the open source Parquet library; (2)
transforms row-based records into columnar Presto blocks in-memory for all
nested columns; and (3) evaluates the predicate on these blocks, executing
the queries in our Presto engine."

Accordingly this reader: reads *every* column of the file (no pruning),
decodes values one at a time (no vectorization), assembles full records,
and only then converts the records into columnar blocks.  Predicates are
NOT evaluated here — the engine does that on the returned pages.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.blocks import block_from_values
from repro.core.page import Page
from repro.formats.parquet.encoding import (
    DICTIONARY,
    decode_dictionary_indices_scalar,
    decode_levels,
    decode_plain_scalar,
    plain_varchar_count,
)
from repro.formats.parquet.file import ParquetFile
from repro.formats.parquet.shredder import ColumnLevels, assemble_column


class OldParquetReader:
    """Row-by-row reader of all columns."""

    def __init__(self, file: ParquetFile) -> None:
        self.file = file
        self.values_decoded = 0

    def read_pages(self) -> Iterator[Page]:
        """Yield one page per row group containing every schema column."""
        for group_index in range(self.file.num_row_groups()):
            with self.file.decoding():
                page = self._read_group(group_index)
            yield page

    def _read_group(self, group_index: int) -> Page:
        schema = self.file.schema
        num_rows = self.file.metadata.row_groups[group_index].num_rows
        # Step 1: read ALL leaf columns of ALL fields, value by value.
        per_column_values: list[list[Any]] = []
        for name, presto_type in schema.columns:
            chunks: dict[str, ColumnLevels] = {}
            for leaf in schema.leaves_under(name):
                chunks[leaf.path] = self._read_chunk_scalar(group_index, leaf.path)
            per_column_values.append(
                assemble_column(name, presto_type, chunks, num_rows)
            )
        # Row-by-row: materialize full records.
        records = [
            tuple(column[i] for column in per_column_values)
            for i in range(num_rows)
        ]
        # Step 2: transform row-based records into columnar blocks.
        blocks = [
            block_from_values(presto_type, [record[channel] for record in records])
            for channel, (_, presto_type) in enumerate(schema.columns)
        ]
        return Page(blocks, num_rows)

    def _read_chunk_scalar(self, group_index: int, path: str) -> ColumnLevels:
        """Decode one leaf chunk one value at a time."""
        chunk_meta = self.file.chunk_metadata(group_index, path)
        leaf = self.file.schema.leaf(path)
        count = chunk_meta.num_values
        repetition = list(decode_levels(self.file.read_segment(group_index, path, "rep"), count))
        definition = list(decode_levels(self.file.read_segment(group_index, path, "def"), count))
        defined_count = count - chunk_meta.statistics.null_count

        if chunk_meta.encoding == DICTIONARY:
            dictionary = decode_plain_scalar(
                self.file.read_segment(group_index, path, "dict"),
                leaf.type,
                _dictionary_size(self.file, group_index, path),
            )
            indices = decode_dictionary_indices_scalar(
                self.file.read_segment(group_index, path, "data"), defined_count
            )
            defined_values: list[Any] = [dictionary[i] for i in indices]
        else:
            defined_values = decode_plain_scalar(
                self.file.read_segment(group_index, path, "data"),
                leaf.type,
                defined_count,
            )
        self.values_decoded += count

        values: list[Any] = [None] * count
        cursor = 0
        max_def = leaf.max_definition_level
        for i, level in enumerate(definition):
            if level == max_def:
                values[i] = defined_values[cursor]
                cursor += 1
        return ColumnLevels(
            [int(r) for r in repetition], [int(d) for d in definition], values
        )


def _dictionary_size(file: ParquetFile, group_index: int, path: str) -> int:
    """Number of dictionary entries, from a read of its own of the
    dictionary segment's count header."""
    return plain_varchar_count(file.read_segment(group_index, path, "dict"))
