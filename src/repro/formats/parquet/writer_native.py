"""Native Parquet writer (section V.J).

"Writes directly from Presto's in-memory data structure to Parquet's
columnar file format, including data values, repetition values, and
definition values" — no intermediate row-based records.

One walk shreds every type tree: Dremel's level computation (Melnik et
al., VLDB 2010) done over block offsets and null masks instead of over
records.  The walk carries one slot per position, ``-1`` where an
ancestor is NULL or empty:

- a struct adds a definition level where it is present and hands the
  same slots to its fields;
- an array or map expands each slot through its offsets: a NULL
  collection adds no level, an empty one 1, an element slot 2; the first
  slot of a collection keeps its parent's repetition level, the others
  repeat at the collection's depth;
- a leaf adds its own presence and emits its levels and its defined
  values, a view of the block's buffers when they are one contiguous run
  and a gather otherwise.  A varchar leaf stays a ``VarcharBlock``, so
  its PLAIN page, its dictionary and its min/max statistics all come
  from the block's ``(data, offsets)``.

A row group is the positions ``[start, end)`` of the page, so no block
is cut to write it.  Leaves are visited in schema leaf order (fields in
order, a map's key before its value), the order the file stores them in.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.blocks import Block, DictionaryBlock, VarcharBlock
from repro.core.page import Page
from repro.core.types import ArrayType, MapType, PrestoType, RowType
from repro.formats.parquet import compression
from repro.formats.parquet.file import LeafChunk, ParquetBlobWriter
from repro.formats.parquet.schema import ParquetSchema


def _flat_values(block: Block) -> Block:
    """The loaded block, a dictionary block decoded to its flat form."""
    block = block.loaded()
    if isinstance(block, DictionaryBlock):
        return block.decode()
    return block


def _defined_values(block: Block, positions: np.ndarray):
    """The values at ``positions`` (all non-NULL): a ``VarcharBlock`` for
    varchar, otherwise the value array; views of the block's buffers when
    the positions are one contiguous run, a gather otherwise."""
    if len(positions) == 0 or positions[-1] - positions[0] != len(positions) - 1:
        if isinstance(block, VarcharBlock):
            return block.take(positions)
        return block.values[positions]  # type: ignore[attr-defined]
    start, end = int(positions[0]), int(positions[-1]) + 1
    if isinstance(block, VarcharBlock):
        offsets = block.offsets[start : end + 1]
        data = block.data[int(offsets[0]) : int(offsets[-1])]
        return VarcharBlock(block.type, data, offsets - offsets[0])
    return block.values[start:end]  # type: ignore[attr-defined]


class NativeParquetWriter:
    """Writes engine pages straight to the columnar format."""

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
        """Serialize pages (channel order == schema column order) to bytes."""
        blob = ParquetBlobWriter(self.schema, self.codec)
        for page in pages:
            # Loaded and decoded once per page, not once per row group.
            blocks = [_flat_values(block) for block in page.blocks]
            for start in range(0, page.position_count, self.row_group_size):
                end = min(start + self.row_group_size, page.position_count)
                positions = np.arange(start, end, dtype=np.int64)
                levels = np.zeros(end - start, dtype=np.int32)
                chunks: dict[str, LeafChunk] = {}
                for (name, presto_type), block in zip(self.schema.columns, blocks):
                    self._shred(name, presto_type, block, levels, levels, positions, 0, chunks)
                blob.add_row_group(end - start, chunks)
        return blob.finish()

    def _shred(
        self,
        path: str,
        presto_type: PrestoType,
        block: Block,
        repetition: np.ndarray,
        definition: np.ndarray,
        positions: np.ndarray,
        depth: int,
        chunks: dict[str, LeafChunk],
    ) -> None:
        """Add the leaf chunks under ``path`` to ``chunks``.

        One slot per entry of ``positions`` (a position of ``block``, or
        -1 under a NULL or empty ancestor), with the slot's repetition
        level and the definition level its ancestors reached; ``depth``
        is the number of repeated ancestors.
        """
        block = _flat_values(block)
        live = positions >= 0
        present = live.copy()
        present[live] = ~block.null_mask()[positions[live]]
        definition = definition + present
        if isinstance(presto_type, RowType):
            positions = np.where(present, positions, -1)
            for field in presto_type.fields:
                self._shred(
                    f"{path}.{field.name}", field.type, block.field(field.name),
                    repetition, definition, positions, depth, chunks,
                )
            return
        if isinstance(presto_type, (ArrayType, MapType)):
            offsets = block.offsets  # type: ignore[attr-defined]
            starts = np.zeros(len(positions), dtype=np.int64)
            counts = np.zeros(len(positions), dtype=np.int64)
            starts[present] = offsets[positions[present]]
            counts[present] = offsets[positions[present] + 1] - starts[present]
            slots = np.maximum(counts, 1)
            first = np.cumsum(slots) - slots
            total = int(slots.sum())
            positions = np.repeat(starts - first, slots) + np.arange(total)
            positions[np.repeat(counts == 0, slots)] = -1
            child_repetition = np.full(total, depth + 1, dtype=np.int32)
            child_repetition[first] = repetition
            definition = np.repeat(definition + (counts > 0), slots)
            if isinstance(presto_type, ArrayType):
                children = [("element", presto_type.element_type, block.elements)]  # type: ignore[attr-defined]
            else:
                children = [
                    ("key", presto_type.key_type, block.keys),  # type: ignore[attr-defined]
                    ("value", presto_type.value_type, block.values),  # type: ignore[attr-defined]
                ]
            for name, child_type, child in children:
                self._shred(
                    f"{path}.{name}", child_type, child,
                    child_repetition, definition, positions, depth + 1, chunks,
                )
            return
        chunks[path] = LeafChunk(
            leaf=self.schema.leaf(path),
            repetition=repetition,
            definition=definition,
            defined_values=_defined_values(block, positions[present]),
            num_slots=len(positions),
        )
