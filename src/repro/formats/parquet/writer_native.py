"""Native Parquet writer (section V.J).

"Writes directly from Presto's in-memory data structure to Parquet's
columnar file format, including data values, repetition values, and
definition values" — no intermediate row-based records.

Fast paths:

- flat scalar columns: numpy null masks become definition levels and the
  value array is encoded with zero Python-level boxing; a varchar column
  stays a ``VarcharBlock``, and its PLAIN page, its dictionary and its
  min/max statistics all come from the block's ``(data, offsets)``;
- pure struct trees: definition levels accumulate vectorized down the
  field-block hierarchy;
- arrays and maps of scalars: levels from the offsets, values as above;
- deeper nesting falls back to per-value shredding (still one pass, no
  record reconstruction).

A row group is a contiguous row range of the page, so flat columns are
cut from it as views rather than gathered.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.blocks import (
    ArrayBlock,
    Block,
    DictionaryBlock,
    MapBlock,
    PrimitiveBlock,
    RowBlock,
    VarcharBlock,
)


from repro.core.page import Page
from repro.core.types import PrestoType, RowType
from repro.formats.parquet import compression
from repro.formats.parquet.file import LeafChunk, ParquetBlobWriter
from repro.formats.parquet.schema import LeafColumn, ParquetSchema, _enumerate_leaves
from repro.formats.parquet.shredder import shred_column


def _flat_values(block: Block) -> Block:
    """Decode a dictionary block to its flat form (a ``PrimitiveBlock`` or
    a ``VarcharBlock``), the two kinds the shredders take."""
    if isinstance(block, DictionaryBlock):
        return block.decode()
    return block


def _defined(block: Block, present: np.ndarray):
    """The values at ``present``: a ``VarcharBlock`` for varchar, otherwise
    the value array."""
    if isinstance(block, VarcharBlock):
        return block if present.all() else block.take(np.flatnonzero(present))
    return block.values[present]  # type: ignore[union-attr]


def _row_range(block: Block, start: int, end: int) -> Block:
    """Rows ``[start, end)``: views of a flat block's buffers, a gather
    only for the other kinds."""
    if (start, end) == (0, block.position_count):
        return block
    if isinstance(block, VarcharBlock):
        offsets = block.offsets[start : end + 1]
        return VarcharBlock(
            block.type,
            block.data[int(offsets[0]) : int(offsets[-1])],
            offsets - offsets[0],
            None if block.nulls is None else block.nulls[start:end],
        )
    if isinstance(block, PrimitiveBlock):
        return PrimitiveBlock(
            block.type,
            block.values[start:end],
            None if block.nulls is None else block.nulls[start:end],
        )
    return block.take(np.arange(start, end))


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
            for start in range(0, page.position_count, self.row_group_size):
                end = min(start + self.row_group_size, page.position_count)
                blocks = [_row_range(block.loaded(), start, end) for block in page.blocks]
                blob.add_row_group(end - start, self._shred_group(Page(blocks, end - start)))
        return blob.finish()

    def _shred_group(self, page: Page) -> dict[str, LeafChunk]:
        chunks: dict[str, LeafChunk] = {}
        for (name, presto_type), block in zip(self.schema.columns, page.blocks):
            block = _flat_values(block.loaded())
            self._shred_block(name, presto_type, block, chunks)
        return chunks

    def _shred_block(
        self, name: str, presto_type: PrestoType, block: Block, chunks: dict[str, LeafChunk]
    ) -> None:
        count = block.position_count
        if isinstance(block, (PrimitiveBlock, VarcharBlock)) and not presto_type.is_nested():
            present = ~block.null_mask()
            chunks[name] = LeafChunk(
                leaf=self.schema.leaf(name),
                repetition=np.zeros(count, dtype=np.int32),
                definition=present.astype(np.int32),
                defined_values=_defined(block, present),
                num_slots=count,
            )
            return
        if isinstance(block, RowBlock) and self._is_pure_struct(presto_type):
            parent_present = ~block.null_mask()
            parent_def = parent_present.astype(np.int32)
            self._shred_struct(
                name, presto_type, block, parent_present, parent_def, chunks
            )
            return
        if (
            isinstance(block, ArrayBlock)
            and not presto_type.element_type.is_nested()  # type: ignore[union-attr]
        ):
            self._shred_flat_array(name, block, chunks)
            return
        if (
            isinstance(block, MapBlock)
            and not presto_type.key_type.is_nested()  # type: ignore[union-attr]
            and not presto_type.value_type.is_nested()  # type: ignore[union-attr]
        ):
            self._shred_flat_map(name, block, chunks)
            return
        # Deeply nested collections (or unexpected block kinds): per-value
        # shredding.
        for path, levels in shred_column(name, presto_type, block.to_list()).items():
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

    def _collection_levels(
        self, offsets: np.ndarray, nulls: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized slot layout for a top-level collection column.

        Returns (repetition, base definition per slot, slots per row,
        element-slot mask).  Base definition: 0 null, 1 empty, 2 element
        present (the element's own presence adds the final level).
        """
        counts = np.diff(offsets)
        slots = np.where(counts > 0, counts, 1)
        total = int(slots.sum())
        row_base = np.where(nulls, 0, np.where(counts == 0, 1, 2)).astype(np.int32)
        definition = np.repeat(row_base, slots)
        element_slot = np.repeat((~nulls) & (counts > 0), slots)
        repetition = np.ones(total, dtype=np.int32)
        row_starts = np.concatenate(([0], np.cumsum(slots)[:-1]))
        repetition[row_starts] = 0
        return repetition, definition, slots, element_slot

    def _shred_flat_array(
        self, name: str, block: ArrayBlock, chunks: dict[str, LeafChunk]
    ) -> None:
        """Columnar shredding of array(scalar): levels from offsets."""
        elements = _flat_values(block.elements.loaded())
        repetition, definition, _, element_slot = self._collection_levels(
            block.offsets, block.null_mask()
        )
        element_nulls = elements.null_mask()
        definition = definition.copy()
        definition[element_slot] += (~element_nulls).astype(np.int32)
        leaf = self.schema.leaf(f"{name}.element")
        chunks[leaf.path] = LeafChunk(
            leaf=leaf,
            repetition=repetition,
            definition=definition,
            defined_values=_defined(elements, ~element_nulls),
            num_slots=len(definition),
        )

    def _shred_flat_map(
        self, name: str, block: MapBlock, chunks: dict[str, LeafChunk]
    ) -> None:
        """Columnar shredding of map(scalar, scalar)."""
        keys = _flat_values(block.keys.loaded())
        values = _flat_values(block.values.loaded())
        repetition, base_definition, _, entry_slot = self._collection_levels(
            block.offsets, block.null_mask()
        )
        key_leaf = self.schema.leaf(f"{name}.key")
        value_leaf = self.schema.leaf(f"{name}.value")
        # Keys are never null: every entry slot gets the full level.
        key_definition = base_definition.copy()
        key_definition[entry_slot] += 1
        chunks[key_leaf.path] = LeafChunk(
            leaf=key_leaf,
            repetition=repetition,
            definition=key_definition,
            defined_values=_defined(keys, ~keys.null_mask()),
            num_slots=len(key_definition),
        )
        value_nulls = values.null_mask()
        value_definition = base_definition.copy()
        value_definition[entry_slot] += (~value_nulls).astype(np.int32)
        chunks[value_leaf.path] = LeafChunk(
            leaf=value_leaf,
            repetition=repetition,
            definition=value_definition,
            defined_values=_defined(values, ~value_nulls),
            num_slots=len(value_definition),
        )

    def _is_pure_struct(self, presto_type: PrestoType) -> bool:
        """True when the type tree contains only structs and scalars."""
        if isinstance(presto_type, RowType):
            return all(self._is_pure_struct(f.type) for f in presto_type.fields)
        return not presto_type.is_nested()

    def _shred_struct(
        self,
        path: str,
        row_type: RowType,
        block: RowBlock,
        present: np.ndarray,
        definition: np.ndarray,
        chunks: dict[str, LeafChunk],
    ) -> None:
        count = block.position_count
        for field in row_type.fields:
            field_path = f"{path}.{field.name}"
            field_block = _flat_values(block.field(field.name).loaded())
            if isinstance(field.type, RowType):
                child_present = present & ~field_block.null_mask()
                child_def = definition + child_present.astype(np.int32)
                self._shred_struct(
                    field_path, field.type, field_block, child_present, child_def, chunks
                )
            else:
                leaf = self.schema.leaf(field_path)
                value_present = present & ~field_block.null_mask()
                leaf_def = definition + value_present.astype(np.int32)
                chunks[field_path] = LeafChunk(
                    leaf=leaf,
                    repetition=np.zeros(count, dtype=np.int32),
                    definition=leaf_def,
                    defined_values=_defined(field_block, value_present),
                    num_slots=count,
                )
