"""Pages: the unit of data flow between operators.

A :class:`Page` is a batch of rows represented as parallel columnar blocks.
Operators consume and produce pages; connectors stream pages into the
engine ("Hadoop data and MySQL data are streamed in Presto pages into the
Presto engine", section IV.A).
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.blocks import (
    Block,
    DictionaryBlock,
    PrimitiveBlock,
    RowBlock,
    VarcharBlock,
    _numpy_dtype_for,
    block_from_values,
    concat_varchar_blocks,
)
from repro.core.types import PrestoType, RowType


class Page:
    """An immutable batch of columnar blocks with equal position counts."""

    def __init__(self, blocks: list[Block], position_count: int | None = None) -> None:
        if position_count is None:
            if not blocks:
                raise ValueError("empty page needs an explicit position count")
            position_count = blocks[0].position_count
        for block in blocks:
            if block.position_count != position_count:
                raise ValueError(
                    f"block has {block.position_count} positions, page has {position_count}"
                )
        self.blocks = blocks
        self.position_count = position_count

    @classmethod
    def from_columns(
        cls, types: Sequence[PrestoType], columns: Sequence[Sequence[Any]]
    ) -> "Page":
        """Build a page from per-column Python value lists."""
        if len(types) != len(columns):
            raise ValueError("types/columns length mismatch")
        n = len(columns[0]) if columns else 0
        blocks = [block_from_values(t, c) for t, c in zip(types, columns)]
        return cls(blocks, n)

    @classmethod
    def from_rows(cls, types: Sequence[PrestoType], rows: Sequence[Sequence[Any]]) -> "Page":
        """Build a page from row tuples: one ``zip`` transposes them."""
        columns = list(zip(*rows)) if rows else [[] for _ in types]
        return cls.from_columns(types, columns)

    @property
    def channel_count(self) -> int:
        return len(self.blocks)

    def block(self, channel: int) -> Block:
        return self.blocks[channel]

    def take(self, positions: np.ndarray) -> "Page":
        """Select a subset of positions (filter result) across all blocks."""
        return Page([b.take(positions) for b in self.blocks], len(positions))

    def select_channels(self, channels: Sequence[int]) -> "Page":
        """Project to a subset/reordering of channels."""
        return Page([self.blocks[c] for c in channels], self.position_count)

    def append_block(self, block: Block) -> "Page":
        if block.position_count != self.position_count:
            raise ValueError("appended block position count mismatch")
        return Page(self.blocks + [block], self.position_count)

    def loaded(self) -> "Page":
        """Force all lazy blocks."""
        return Page([b.loaded() for b in self.blocks], self.position_count)

    def row(self, position: int) -> tuple:
        return tuple(b.get(position) for b in self.blocks)

    def rows(self) -> Iterator[tuple]:
        for i in range(self.position_count):
            yield self.row(i)

    def to_rows(self) -> list[tuple]:
        """Every row, built from one ``to_list()`` per block and one ``zip``."""
        if not self.blocks:
            return [()] * self.position_count
        return list(zip(*[block.to_list() for block in self.blocks]))

    def size_in_bytes(self) -> int:
        return sum(b.size_in_bytes() for b in self.blocks)

def concat_pages(types: Sequence[PrestoType], pages: Sequence[Page]) -> Page:
    """Concatenate pages row-wise into a single page.

    Used by final operators (Output, aggregation build, sort, join build)
    and tests.  Primitive columns concatenate as numpy arrays (dictionary
    blocks decode first), and so do the fields of a row column that holds
    all of them; other nested columns fall back to Python values,
    per-column, with the declared type's coercion semantics either way.
    """
    if not pages:
        return Page.from_columns(types, [[] for _ in types])
    position_count = sum(page.position_count for page in pages)
    blocks = [
        _concat_blocks(presto_type, [page.block(channel) for page in pages])
        for channel, presto_type in enumerate(types)
    ]
    return Page(blocks, position_count)


def concat_blocks(presto_type: PrestoType, blocks: Sequence[Block]) -> Block:
    """One column's blocks end to end, dictionary encoding kept.

    What hash aggregation batches its key and argument columns with: a
    lone block passes through as it is, and dictionary blocks stay ids
    over the (concatenated) dictionaries, so the kernels downstream still
    factorize ids instead of decoded values.  At least one block.
    """
    blocks = [block.loaded() for block in blocks]
    if len(blocks) == 1:
        return blocks[0]
    if all(isinstance(block, DictionaryBlock) for block in blocks):
        # Each distinct dictionary goes in once, matched by identity (the
        # pages of one column chunk or one memory split share theirs), and
        # each page's ids shift by where its dictionary starts.  (A value
        # in two dictionaries is two entries; the kernels deduplicate.)
        starts: dict[int, int] = {}
        dictionaries: list[Block] = []
        ids, start = [], 0
        for block in blocks:
            offset = starts.get(id(block.dictionary))
            if offset is None:
                offset = starts[id(block.dictionary)] = start
                dictionaries.append(block.dictionary)
                start += block.dictionary.position_count
            ids.append(np.where(block.ids < 0, -1, block.ids + offset))
        dictionary = (
            dictionaries[0]
            if len(dictionaries) == 1
            else _concat_blocks(presto_type, dictionaries)
        )
        return DictionaryBlock(dictionary, np.concatenate(ids))
    return _concat_blocks(presto_type, blocks)


def _concat_blocks(presto_type: PrestoType, blocks: Sequence[Block]) -> Block:
    """Concatenate one column's blocks; vectorized for flat columns."""
    loaded: list[Block] = []
    for block in blocks:
        block = block.loaded()
        if isinstance(block, DictionaryBlock):
            block = block.decode()
        loaded.append(block)
    expected_dtype = _numpy_dtype_for(presto_type)
    if loaded and all(isinstance(b, VarcharBlock) for b in loaded):
        return concat_varchar_blocks(presto_type, loaded)
    if isinstance(presto_type, RowType) and all(
        isinstance(b, RowBlock) and list(b.field_blocks) == presto_type.field_names()
        for b in loaded
    ):
        # Every field present (avg's intermediate among them): field by field.
        fields = {
            f.name: _concat_blocks(f.type, [b.field(f.name) for b in loaded])
            for f in presto_type.fields
        }
        nulls = None
        if any(b.nulls is not None for b in loaded):
            nulls = np.concatenate([b.null_mask() for b in loaded])
        return RowBlock(presto_type, fields, nulls, sum(b.position_count for b in loaded))
    if any(isinstance(b, VarcharBlock) for b in loaded):
        # Mixed representations (native pages meeting legacy object pages):
        # normalize to the permissive object lane.
        loaded = [
            b.to_primitive() if isinstance(b, VarcharBlock) else b for b in loaded
        ]
    if all(isinstance(b, PrimitiveBlock) for b in loaded) and (
        expected_dtype is object
        or all(b.values.dtype != object for b in loaded)
    ):
        values = np.concatenate([b.values for b in loaded]) if loaded else np.empty(0)
        if expected_dtype is not object and values.dtype != expected_dtype:
            values = values.astype(expected_dtype)
        nulls = None
        if any(b.nulls is not None for b in loaded):
            nulls = np.concatenate([b.null_mask() for b in loaded])
            if not nulls.any():
                nulls = None
            elif values.dtype == object:
                # Normalize padding under nulls, matching the Python path.
                values = values.copy()
                values[nulls] = None
        return PrimitiveBlock(presto_type, values, nulls)
    values_list: list[Any] = []
    for block in loaded:
        values_list.extend(block.to_list())
    return block_from_values(presto_type, values_list)
