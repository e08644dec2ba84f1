"""Vectorized columnar blocks.

Presto "processes a bunch of in memory encoded column values vectorized,
instead of row by row" (section III).  A :class:`Block` holds one column's
values for a batch of rows.  The variants mirror Presto's:

- :class:`PrimitiveBlock` — flat scalar values over numpy storage.
- :class:`VarcharBlock` — strings as one contiguous UTF-8 byte buffer plus
  int64 offsets, so factorize/compare/substr run as numpy array ops over
  bytes instead of per-element Python dispatch.  Every VARCHAR column of
  ``str`` is built this way; objects materialize only at the final-result
  boundary and where a string function has no offsets-native kernel.
- :class:`DictionaryBlock` — ids into a shared dictionary; produced by the
  new Parquet reader when a column chunk is dictionary-encoded, and consumed
  by dictionary-aware operators without decoding.
- :class:`RowBlock` — a struct column stored as per-field child blocks,
  which is what makes nested column pruning (section V.D) possible: unread
  fields simply have no child block materialized.
- :class:`ArrayBlock` / :class:`MapBlock` — offset-encoded collections.
- :class:`LazyBlock` — a column whose loading is deferred until first
  access; the "lazy reads" optimization of section V.H builds on it.

Blocks are immutable once constructed; ``take`` produces new blocks.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.types import (
    ArrayType,
    BIGINT,
    BOOLEAN,
    DOUBLE,
    MapType,
    PrestoType,
    RowType,
    VARCHAR,
)


# Padded fixed-width views cost O(rows * max_len) transient memory; beyond
# this width the object fallback is cheaper.
_FIXED_WIDTH_CAP = 256


def _slice_positions(
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the ranges ``[starts[i], starts[i] + lengths[i])``,
    concatenated, and the offsets of each range in the result."""
    count = len(lengths)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    # Absolute index = repeat(starts) + within-row position, where the
    # within-row position is a global arange minus each row's output start.
    index = np.repeat(
        np.asarray(starts, dtype=np.int64) - offsets[:-1], lengths
    ) + np.arange(int(offsets[-1]), dtype=np.int64)
    return index, offsets


def _gather_slices(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``data[starts[i] : starts[i] + lengths[i]]`` slices.

    Returns (new byte buffer, new offsets).  This is the core varchar
    primitive: ``take``, dictionary decode, and substr are all one gather.
    """
    index, offsets = _slice_positions(starts, lengths)
    return data[index], offsets


def _take_collections(
    offsets: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For the collections at ``positions`` of an offsets array: the
    positions of their entries, and the taken block's offsets."""
    starts = offsets[:-1][positions]
    return _slice_positions(starts, offsets[1:][positions] - starts)


def _numpy_dtype_for(presto_type: PrestoType) -> Any:
    """Storage dtype for a scalar type; strings/dates use object arrays."""
    if presto_type in (BIGINT,):
        return np.int64
    if presto_type.name == "integer":
        return np.int64
    if presto_type is DOUBLE:
        return np.float64
    if presto_type is BOOLEAN:
        return np.bool_
    return object


def masked_tolist(values: np.ndarray, nulls: Optional[np.ndarray]) -> list[Any]:
    """A numeric array as Python scalars through one ``tolist()``, ``None`` at nulls."""
    if nulls is not None and nulls.any():
        values = values.astype(object)
        values[nulls] = None
    return values.tolist()


class Block:
    """One column of values for a batch of rows."""

    type: PrestoType
    position_count: int

    def get(self, position: int) -> Any:
        """Value at ``position`` as a Python object (``None`` when null)."""
        raise NotImplementedError

    def is_null(self, position: int) -> bool:
        raise NotImplementedError

    def take(self, positions: np.ndarray) -> "Block":
        """New block containing the given positions, in order."""
        raise NotImplementedError

    def to_list(self) -> list[Any]:
        return [self.get(i) for i in range(self.position_count)]

    def null_mask(self) -> np.ndarray:
        """Boolean array, True where the value is null; callers must not
        mutate it."""
        raise NotImplementedError

    def size_in_bytes(self) -> int:
        """Approximate retained size, used by memory accounting."""
        raise NotImplementedError

    def loaded(self) -> "Block":
        """Force any lazy loading and return a fully materialized block."""
        return self

    def __len__(self) -> int:
        return self.position_count

class PrimitiveBlock(Block):
    """Flat scalar column backed by a numpy array plus an optional null mask."""

    def __init__(
        self,
        presto_type: PrestoType,
        values: np.ndarray,
        nulls: Optional[np.ndarray] = None,
    ) -> None:
        self.type = presto_type
        self.values = values
        self.nulls = nulls
        self._zero_mask: Optional[np.ndarray] = None
        self.position_count = len(values)
        if nulls is not None and len(nulls) != len(values):
            raise ValueError("nulls mask length mismatch")

    @classmethod
    def from_values(
        cls, presto_type: PrestoType, values: Sequence[Any]
    ) -> "PrimitiveBlock":
        """Build from Python values, inferring the null mask from ``None``s.

        A numeric column holding no ``None`` converts with one ``np.array``
        call; with a ``None`` in it, it is tested and copied value by
        value.  An object-dtype column is one bulk assignment and one
        elementwise comparison against ``None``.
        """
        dtype = _numpy_dtype_for(presto_type)
        count = len(values)
        if dtype is not object:
            if None not in values:
                return cls(presto_type, np.array(values, dtype=dtype))
            nulls = np.fromiter((v is None for v in values), dtype=bool, count=count)
            storage = np.array([0 if v is None else v for v in values], dtype=dtype)
            return cls(presto_type, storage, nulls)
        storage = np.empty(count, dtype=object)
        try:
            # Bulk object assignment; numpy rejects it when elements
            # are equal-length sequences, hence the per-item fallback.
            storage[:] = values if isinstance(values, (list, np.ndarray)) else list(values)
        except ValueError:
            for i, v in enumerate(values):
                storage[i] = v
        nulls = np.asarray(np.equal(storage, None), dtype=bool)
        return cls(presto_type, storage, nulls if nulls.any() else None)

    def get(self, position: int) -> Any:
        if self.is_null(position):
            return None
        value = self.values[position]
        if isinstance(value, np.generic):
            return value.item()
        return value

    def is_null(self, position: int) -> bool:
        return bool(self.nulls is not None and self.nulls[position])

    def null_mask(self) -> np.ndarray:
        if self.nulls is None:
            if self._zero_mask is None:
                self._zero_mask = np.zeros(self.position_count, dtype=bool)
            return self._zero_mask
        return self.nulls

    def to_list(self) -> list[Any]:
        if self.values.dtype == object:
            # May hold numpy scalars, which ``get`` unwraps one by one.
            return super().to_list()
        return masked_tolist(self.values, self.nulls)

    def take(self, positions: np.ndarray) -> "PrimitiveBlock":
        new_nulls = self.nulls[positions] if self.nulls is not None else None
        return PrimitiveBlock(self.type, self.values[positions], new_nulls)

    def size_in_bytes(self) -> int:
        if self.values.dtype == object:
            base = sum(len(v) if isinstance(v, str) else 8 for v in self.values if v is not None)
        else:
            base = int(self.values.nbytes)
        return base + (int(self.nulls.nbytes) if self.nulls is not None else 0)


class VarcharBlock(Block):
    """String column as one contiguous UTF-8 buffer plus int64 offsets.

    Layout (Arrow/Presto VariableWidthBlock style)::

        data    uint8[total_bytes]   all strings back to back, UTF-8
        offsets int64[n + 1]         row i's bytes are data[offsets[i]:offsets[i+1]]
        nulls   bool[n] | None       True where the row is SQL NULL

    Null rows normally own zero bytes, but kernels never rely on that —
    they mask by ``nulls``.  Because UTF-8 byte order equals code-point
    order, byte-wise sorts and comparisons agree with Python ``str`` — the
    kernels exploit this with padded fixed-width (``S``-dtype) views.  The
    padding trick is unsafe when the payload itself contains NUL bytes
    (numpy strips trailing NULs), so every padded path is guarded by
    :meth:`has_nul` and falls back to the object lane.  The point lookups
    (:meth:`exact_match`, :meth:`prefix_mask`) compare single bytes and
    need no guard.
    """

    def __init__(
        self,
        presto_type: PrestoType,
        data: np.ndarray,
        offsets: np.ndarray,
        nulls: Optional[np.ndarray] = None,
    ) -> None:
        self.type = presto_type
        self.data = data
        self.offsets = offsets
        self.nulls = nulls
        self.position_count = len(offsets) - 1
        self._zero_mask: Optional[np.ndarray] = None
        self._objects: Optional[np.ndarray] = None
        self._factorized: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._ascii_only: Optional[bool] = None
        self._has_nul: Optional[bool] = None
        if nulls is not None and len(nulls) != self.position_count:
            raise ValueError("nulls mask length mismatch")

    @classmethod
    def from_values(
        cls, values: Sequence[Optional[str]], presto_type: PrestoType = VARCHAR
    ) -> "VarcharBlock":
        """Build from Python strings (``None`` for nulls).

        A column of ASCII ``str`` only is one join, one encode and one
        ``map(len, ...)``: characters are bytes.  A ``None``, a non-``str``
        payload or non-ASCII text is encoded value by value below.
        """
        count = len(values)
        try:
            joined = "".join(values)
        except TypeError:
            joined = None
        if joined is not None and joined.isascii():
            nulls = None
            lengths = np.fromiter(map(len, values), dtype=np.int64, count=count)
            data = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
        else:
            nulls = np.fromiter((v is None for v in values), dtype=bool, count=count)
            if not nulls.any():
                nulls = None
            encoded = [b"" if v is None else v.encode("utf-8") for v in values]
            lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=count)
            data = np.frombuffer(b"".join(encoded), dtype=np.uint8)
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(presto_type, data, offsets, nulls)

    # -- row access (the object boundary) ----------------------------------

    def get(self, position: int) -> Optional[str]:
        if self.is_null(position):
            return None
        return self.to_object_array()[position]

    def is_null(self, position: int) -> bool:
        return bool(self.nulls is not None and self.nulls[position])

    def null_mask(self) -> np.ndarray:
        if self.nulls is None:
            if self._zero_mask is None:
                self._zero_mask = np.zeros(self.position_count, dtype=bool)
            return self._zero_mask
        return self.nulls

    def to_list(self) -> list[Optional[str]]:
        return list(self.to_object_array())

    def to_object_array(self) -> np.ndarray:
        """Decode every row to a Python string (cached).

        This is the only place offsets-native data becomes objects; it runs
        at the final-result boundary and inside object-lane fallbacks.
        """
        if self._objects is None:
            out = np.empty(self.position_count, dtype=object)
            buf = self.data.tobytes()
            offsets = self.offsets
            nulls = self.nulls
            for i in range(self.position_count):
                if nulls is not None and nulls[i]:
                    out[i] = None
                else:
                    out[i] = buf[offsets[i] : offsets[i + 1]].decode("utf-8")
            self._objects = out
        return self._objects

    def to_primitive(self) -> PrimitiveBlock:
        """The object-array form: an object-dtype ``PrimitiveBlock``."""
        return PrimitiveBlock(self.type, self.to_object_array(), self.nulls)

    # -- vectorized structure ----------------------------------------------

    def byte_lengths(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]

    def char_lengths(self) -> np.ndarray:
        """Per-row character counts: byte length minus continuation bytes."""
        lengths = self.byte_lengths()
        if self.ascii_only():
            return lengths
        continuation = np.zeros(len(self.data) + 1, dtype=np.int64)
        np.cumsum((self.data & 0xC0) == 0x80, out=continuation[1:])
        return lengths - (continuation[self.offsets[1:]] - continuation[self.offsets[:-1]])

    def ascii_only(self) -> bool:
        """True when every byte is ASCII (chars == bytes, offsets slicing safe)."""
        if self._ascii_only is None:
            self._ascii_only = bool(self.data.size == 0 or int(self.data.max()) < 0x80)
        return self._ascii_only

    def has_nul(self) -> bool:
        """True when the payload contains 0x00 bytes (padded views unsafe)."""
        if self._has_nul is None:
            self._has_nul = bool((self.data == 0).any())
        return self._has_nul

    def fixed_view(self, width: Optional[int] = None) -> Optional[np.ndarray]:
        """Padded ``S{width}`` view of all rows (nulls read as ``b""``).

        Byte-order comparisons on the view agree with ``str`` comparisons.
        Returns None when the view would be unsafe (embedded NULs) or too
        wide; callers then fall back to the object path.
        """
        lengths = self.byte_lengths()
        if self.nulls is not None:
            lengths = np.where(self.nulls, 0, lengths)
        max_len = int(lengths.max()) if len(lengths) else 0
        if width is None:
            width = max_len
        if width < max_len or width > _FIXED_WIDTH_CAP or self.has_nul():
            return None
        return _padded_view(self.data, self.offsets[:-1], lengths, width)

    def factorize(self) -> tuple[np.ndarray, np.ndarray]:
        """(codes, uniques): int64 codes with -1 at nulls; sorted distinct strings.

        Matches ``np.unique`` over the object lane exactly: UTF-8 byte order
        is code-point order, so the distinct list sorts identically.
        """
        if self._factorized is None:
            codes = np.full(self.position_count, -1, dtype=np.int64)
            non_null = ~self.null_mask()
            if not non_null.any():
                uniques = np.empty(0, dtype=object)
            else:
                starts = self.offsets[:-1][non_null]
                lengths = self.byte_lengths()[non_null]
                width = int(lengths.max())
                if width <= 8 and not self.has_nul():
                    # Narrow strings pack into big-endian unsigned ints
                    # (zero padded, order preserving): integer np.unique
                    # beats the S-dtype comparison sort by a wide margin.
                    pack = 1 if width <= 1 else 2 if width <= 2 else 4 if width <= 4 else 8
                    ints = _padded_view(self.data, starts, lengths, pack).view(
                        f">u{pack}"
                    )
                    if pack <= 2:
                        # Dense-table factorization: no sort at all.  The
                        # flatnonzero scan emits values in ascending order,
                        # matching np.unique's sorted-uniques contract.
                        domain = 256 if pack == 1 else 65536
                        wide = ints.astype(np.int64, copy=False)
                        present = np.zeros(domain, dtype=bool)
                        present[wide] = True
                        uniq_ints = np.flatnonzero(present)
                        lookup = np.zeros(domain, dtype=np.int64)
                        lookup[uniq_ints] = np.arange(len(uniq_ints), dtype=np.int64)
                        inverse = lookup[wide]
                    else:
                        uniq_ints, inverse = np.unique(ints, return_inverse=True)
                    uniques = np.empty(len(uniq_ints), dtype=object)
                    for i, raw in enumerate(uniq_ints):
                        uniques[i] = (
                            int(raw)
                            .to_bytes(pack, "big")
                            .rstrip(b"\x00")
                            .decode("utf-8")
                        )
                elif width <= _FIXED_WIDTH_CAP and not self.has_nul():
                    view = _padded_view(self.data, starts, lengths, width)
                    uniq_bytes, inverse = np.unique(view, return_inverse=True)
                    uniques = np.empty(len(uniq_bytes), dtype=object)
                    for i, raw in enumerate(uniq_bytes):
                        uniques[i] = raw.decode("utf-8")
                else:
                    uniques, inverse = np.unique(
                        self.to_object_array()[non_null], return_inverse=True
                    )
                codes[non_null] = inverse
            self._factorized = (codes, uniques)
        return self._factorized

    def exact_match(self, value: bytes) -> np.ndarray:
        """Rows whose bytes equal ``value``: the rows of its length,
        narrowed byte by byte (:meth:`_narrow`)."""
        return self._narrow(self._defined_lengths() == len(value), value)

    def prefix_mask(self, prefix: bytes) -> np.ndarray:
        """Rows whose bytes start with ``prefix`` (byte-exact ``startswith``)."""
        return self._narrow(self._defined_lengths() >= len(prefix), prefix)

    def _defined_lengths(self) -> np.ndarray:
        """Byte lengths with ``-1`` at NULL rows, which no length matches."""
        lengths = self.byte_lengths()
        if self.nulls is not None:
            lengths = np.where(self.nulls, -1, lengths)
        return lengths

    def _narrow(self, candidates: np.ndarray, prefix: bytes) -> np.ndarray:
        """``candidates``, rows owning at least ``len(prefix)`` bytes, cut to
        those whose bytes start with ``prefix``.

        Each byte is compared only on the rows every byte before it kept,
        so the work shrinks with the matches instead of gathering a
        rows x ``len(prefix)`` matrix, and a NUL byte is compared like any
        other.
        """
        if not prefix:
            return candidates
        rows = np.flatnonzero(candidates)
        starts = self.offsets[:-1][rows]
        for byte in prefix:
            keep = self.data[starts] == byte
            rows, starts = rows[keep], starts[keep] + 1
            if not len(rows):
                break
        out = np.zeros(self.position_count, dtype=bool)
        out[rows] = True
        return out

    # -- block protocol ----------------------------------------------------

    def take(self, positions: np.ndarray) -> "VarcharBlock":
        positions = np.asarray(positions)
        starts = self.offsets[:-1][positions]
        lengths = self.byte_lengths()[positions]
        data, offsets = _gather_slices(self.data, starts, lengths)
        new_nulls = self.nulls[positions] if self.nulls is not None else None
        return VarcharBlock(self.type, data, offsets, new_nulls)

    def size_in_bytes(self) -> int:
        total = int(self.data.nbytes) + int(self.offsets.nbytes)
        return total + (int(self.nulls.nbytes) if self.nulls is not None else 0)


def _padded_view(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int
) -> np.ndarray:
    """``S{width}`` array over variable-width slices, zero-padded on the right."""
    count = len(starts)
    if width == 0:
        return np.zeros(count, dtype="S1")
    lane = np.arange(width, dtype=np.int64)
    index = np.asarray(starts, dtype=np.int64)[:, None] + lane[None, :]
    if len(data) == 0:
        return np.zeros(count, dtype=f"S{width}")
    lengths = np.asarray(lengths)
    if int(lengths.min()) >= width:
        # Every row fills the width (fixed-width strings like dates):
        # plain gather, no padding or bounds work at all.
        return data[index].reshape(-1).view(f"S{width}")
    # Rows shorter than the pad width read stray neighbor bytes; those
    # lanes are zeroed below, the bound only keeps the gather in-range.
    np.minimum(index, len(data) - 1, out=index)
    matrix = data[index]
    matrix[lane[None, :] >= lengths[:, None]] = 0
    return matrix.reshape(-1).view(f"S{width}")


def concat_varchar_blocks(
    presto_type: PrestoType, blocks: Sequence[VarcharBlock]
) -> VarcharBlock:
    """Concatenate varchar blocks: append buffers, shift offsets, merge nulls."""
    total_rows = sum(b.position_count for b in blocks)
    offsets = np.zeros(total_rows + 1, dtype=np.int64)
    row = 0
    shift = 0
    for block in blocks:
        offsets[row + 1 : row + 1 + block.position_count] = block.offsets[1:] + shift
        row += block.position_count
        shift += int(block.offsets[-1])
    data = (
        np.concatenate([b.data for b in blocks])
        if blocks
        else np.empty(0, dtype=np.uint8)
    )
    nulls = None
    if any(b.nulls is not None for b in blocks):
        nulls = np.concatenate([b.null_mask() for b in blocks])
    return VarcharBlock(presto_type, data, offsets, nulls)


class DictionaryBlock(Block):
    """Ids into a shared dictionary block.

    The vectorized Parquet reader caches column dictionaries and emits
    DictionaryBlocks so "dictionary lookups are saved" (section V.I); the
    engine decodes only when an operator needs flat values.
    """

    def __init__(self, dictionary: Block, ids: np.ndarray) -> None:
        # The dictionary is flat: a PrimitiveBlock, or a VarcharBlock when
        # the column is varchar and the native string lane is on.
        self.type = dictionary.type
        self.dictionary = dictionary
        self.ids = ids
        self.position_count = len(ids)

    def get(self, position: int) -> Any:
        idx = int(self.ids[position])
        if idx < 0:
            return None
        return self.dictionary.get(idx)

    def is_null(self, position: int) -> bool:
        idx = int(self.ids[position])
        return idx < 0 or self.dictionary.is_null(idx)

    def null_mask(self) -> np.ndarray:
        mask = self.ids < 0
        dict_nulls = self.dictionary.null_mask()
        if dict_nulls.any():
            safe_ids = np.where(self.ids < 0, 0, self.ids)
            mask = mask | dict_nulls[safe_ids]
        return mask

    def take(self, positions: np.ndarray) -> "DictionaryBlock":
        return DictionaryBlock(self.dictionary, self.ids[positions])

    def decode(self) -> Block:
        """Expand into a flat block (Primitive or Varchar, matching the dictionary)."""
        mask = self.ids < 0
        safe_ids = np.where(mask, 0, self.ids)
        nulls = self.null_mask()
        if isinstance(self.dictionary, VarcharBlock):
            flat = self.dictionary.take(safe_ids)
            return VarcharBlock(
                self.type, flat.data, flat.offsets, nulls if nulls.any() else None
            )
        values = self.dictionary.values[safe_ids]
        return PrimitiveBlock(self.type, values, nulls if nulls.any() else None)

    def size_in_bytes(self) -> int:
        return int(self.ids.nbytes) + self.dictionary.size_in_bytes()


class RowBlock(Block):
    """A struct column stored field-by-field.

    ``field_blocks`` may cover only a subset of the row type's fields (the
    pruned projection); ``get`` then returns a dict with just those keys.
    """

    def __init__(
        self,
        row_type: RowType,
        field_blocks: dict[str, Block],
        nulls: Optional[np.ndarray] = None,
        position_count: Optional[int] = None,
    ) -> None:
        self.type = row_type
        self.field_blocks = field_blocks
        self.nulls = nulls
        self._zero_mask: Optional[np.ndarray] = None
        if position_count is not None:
            self.position_count = position_count
        elif field_blocks:
            self.position_count = next(iter(field_blocks.values())).position_count
        elif nulls is not None:
            self.position_count = len(nulls)
        else:
            raise ValueError("RowBlock needs field blocks, nulls, or a position count")
        for name, blk in field_blocks.items():
            if blk.position_count != self.position_count:
                raise ValueError(f"field {name} has {blk.position_count} positions, expected {self.position_count}")

    @classmethod
    def from_values(cls, row_type: RowType, values: Sequence[Optional[dict]]) -> "RowBlock":
        """Build from a sequence of dicts (``None`` for a null struct)."""
        nulls = np.array([v is None for v in values], dtype=bool)
        field_blocks: dict[str, Block] = {}
        for f in row_type.fields:
            field_values = [None if v is None else v.get(f.name) for v in values]
            field_blocks[f.name] = block_from_values(f.type, field_values)
        return cls(row_type, field_blocks, nulls if nulls.any() else None, len(values))

    def get(self, position: int) -> Optional[dict]:
        if self.is_null(position):
            return None
        return {name: blk.get(position) for name, blk in self.field_blocks.items()}

    def is_null(self, position: int) -> bool:
        return bool(self.nulls is not None and self.nulls[position])

    def null_mask(self) -> np.ndarray:
        if self.nulls is None:
            if self._zero_mask is None:
                self._zero_mask = np.zeros(self.position_count, dtype=bool)
            return self._zero_mask
        return self.nulls

    def field(self, name: str) -> Block:
        """Child block for field ``name``; the DEREFERENCE fast path."""
        return self.field_blocks[name]

    def has_field(self, name: str) -> bool:
        return name in self.field_blocks

    def take(self, positions: np.ndarray) -> "RowBlock":
        taken = {name: blk.take(positions) for name, blk in self.field_blocks.items()}
        new_nulls = self.nulls[positions] if self.nulls is not None else None
        return RowBlock(self.type, taken, new_nulls, len(positions))

    def size_in_bytes(self) -> int:
        total = sum(blk.size_in_bytes() for blk in self.field_blocks.values())
        return total + (int(self.nulls.nbytes) if self.nulls is not None else 0)


class ArrayBlock(Block):
    """Variable-length arrays encoded as offsets into an elements block."""

    def __init__(
        self,
        array_type: ArrayType,
        offsets: np.ndarray,
        elements: Block,
        nulls: Optional[np.ndarray] = None,
    ) -> None:
        self.type = array_type
        self.offsets = offsets
        self.elements = elements
        self.nulls = nulls
        self._zero_mask: Optional[np.ndarray] = None
        self.position_count = len(offsets) - 1

    @classmethod
    def from_values(cls, array_type: ArrayType, values: Sequence[Optional[list]]) -> "ArrayBlock":
        nulls = np.array([v is None for v in values], dtype=bool)
        offsets = np.zeros(len(values) + 1, dtype=np.int64)
        flat: list[Any] = []
        for i, v in enumerate(values):
            if v is not None:
                flat.extend(v)
            offsets[i + 1] = len(flat)
        elements = block_from_values(array_type.element_type, flat)
        return cls(array_type, offsets, elements, nulls if nulls.any() else None)

    def get(self, position: int) -> Optional[list]:
        if self.is_null(position):
            return None
        start, end = int(self.offsets[position]), int(self.offsets[position + 1])
        return [self.elements.get(i) for i in range(start, end)]

    def is_null(self, position: int) -> bool:
        return bool(self.nulls is not None and self.nulls[position])

    def null_mask(self) -> np.ndarray:
        if self.nulls is None:
            if self._zero_mask is None:
                self._zero_mask = np.zeros(self.position_count, dtype=bool)
            return self._zero_mask
        return self.nulls

    def take(self, positions: np.ndarray) -> "ArrayBlock":
        positions = np.asarray(positions)
        entries, offsets = _take_collections(self.offsets, positions)
        new_nulls = self.nulls[positions] if self.nulls is not None else None
        return ArrayBlock(self.type, offsets, self.elements.take(entries), new_nulls)

    def size_in_bytes(self) -> int:
        total = int(self.offsets.nbytes) + self.elements.size_in_bytes()
        return total + (int(self.nulls.nbytes) if self.nulls is not None else 0)


class MapBlock(Block):
    """Maps encoded as offsets into parallel key/value blocks."""

    def __init__(
        self,
        map_type: MapType,
        offsets: np.ndarray,
        keys: Block,
        values: Block,
        nulls: Optional[np.ndarray] = None,
    ) -> None:
        self.type = map_type
        self.offsets = offsets
        self.keys = keys
        self.values = values
        self.nulls = nulls
        self._zero_mask: Optional[np.ndarray] = None
        self.position_count = len(offsets) - 1

    @classmethod
    def from_values(cls, map_type: MapType, values: Sequence[Optional[dict]]) -> "MapBlock":
        nulls = np.array([v is None for v in values], dtype=bool)
        offsets = np.zeros(len(values) + 1, dtype=np.int64)
        flat_keys: list[Any] = []
        flat_values: list[Any] = []
        for i, v in enumerate(values):
            if v is not None:
                for k, val in v.items():
                    flat_keys.append(k)
                    flat_values.append(val)
            offsets[i + 1] = len(flat_keys)
        keys_block = block_from_values(map_type.key_type, flat_keys)
        values_block = block_from_values(map_type.value_type, flat_values)
        return cls(map_type, offsets, keys_block, values_block, nulls if nulls.any() else None)

    def get(self, position: int) -> Optional[dict]:
        if self.is_null(position):
            return None
        start, end = int(self.offsets[position]), int(self.offsets[position + 1])
        return {self.keys.get(i): self.values.get(i) for i in range(start, end)}

    def is_null(self, position: int) -> bool:
        return bool(self.nulls is not None and self.nulls[position])

    def null_mask(self) -> np.ndarray:
        if self.nulls is None:
            if self._zero_mask is None:
                self._zero_mask = np.zeros(self.position_count, dtype=bool)
            return self._zero_mask
        return self.nulls

    def take(self, positions: np.ndarray) -> "MapBlock":
        positions = np.asarray(positions)
        entries, offsets = _take_collections(self.offsets, positions)
        new_nulls = self.nulls[positions] if self.nulls is not None else None
        return MapBlock(
            self.type, offsets, self.keys.take(entries), self.values.take(entries), new_nulls
        )

    def size_in_bytes(self) -> int:
        total = int(self.offsets.nbytes) + self.keys.size_in_bytes() + self.values.size_in_bytes()
        return total + (int(self.nulls.nbytes) if self.nulls is not None else 0)


class LazyBlock(Block):
    """A column whose materialization is deferred until first access.

    The loader runs at most once.  The lazy-reads optimization (section V.H)
    wraps projected columns in LazyBlocks; if every row of a batch fails the
    predicate the loader never runs and the column's bytes are never decoded.
    """

    def __init__(
        self,
        presto_type: PrestoType,
        position_count: int,
        loader: Callable[[], Block],
    ) -> None:
        self.type = presto_type
        self.position_count = position_count
        self._loader = loader
        self._delegate: Optional[Block] = None

    @property
    def is_loaded(self) -> bool:
        return self._delegate is not None

    def loaded(self) -> Block:
        if self._delegate is None:
            block = self._loader()
            if block.position_count != self.position_count:
                raise ValueError(
                    f"lazy loader produced {block.position_count} positions, expected {self.position_count}"
                )
            self._delegate = block
        return self._delegate

    def get(self, position: int) -> Any:
        return self.loaded().get(position)

    def to_list(self) -> list[Any]:
        return self.loaded().to_list()

    def is_null(self, position: int) -> bool:
        return self.loaded().is_null(position)

    def null_mask(self) -> np.ndarray:
        return self.loaded().null_mask()

    def take(self, positions: np.ndarray) -> Block:
        # Stay lazy: defer the load AND the take until someone reads values.
        positions = np.asarray(positions)
        return LazyBlock(self.type, len(positions), lambda: self.loaded().take(positions))

    def size_in_bytes(self) -> int:
        return self._delegate.size_in_bytes() if self._delegate is not None else 0


# What block_from_values raises on values its type cannot hold: text or an
# unconvertible object under a numeric type (ValueError, TypeError), an
# integer past int64 (OverflowError), a scalar under a row, array or map
# type (AttributeError, TypeError).
BLOCK_VALUE_ERRORS = (ValueError, TypeError, OverflowError, AttributeError)


def block_from_values(presto_type: PrestoType, values: Sequence[Any]) -> Block:
    """Build the natural block kind for ``presto_type`` from Python values."""
    if isinstance(presto_type, RowType):
        return RowBlock.from_values(presto_type, values)
    if isinstance(presto_type, ArrayType):
        return ArrayBlock.from_values(presto_type, values)
    if isinstance(presto_type, MapType):
        return MapBlock.from_values(presto_type, values)
    if presto_type is VARCHAR:
        try:
            return VarcharBlock.from_values(values, presto_type)
        except (AttributeError, TypeError, UnicodeEncodeError):
            # Non-string payloads (tests feed arbitrary objects through
            # varchar columns): keep the permissive object representation.
            pass
    return PrimitiveBlock.from_values(presto_type, values)


def constant_block(value: Any, presto_type: PrestoType, count: int) -> Block:
    """A block repeating ``value`` ``count`` times (run-length style)."""
    if value is None:
        dtype = _numpy_dtype_for(presto_type)
        storage = np.zeros(count, dtype=dtype) if dtype is not object else np.empty(count, dtype=object)
        return PrimitiveBlock(presto_type, storage, np.ones(count, dtype=bool))
    if presto_type.is_nested():
        return block_from_values(presto_type, [value] * count)
    if presto_type is VARCHAR and isinstance(value, str):
        encoded = np.frombuffer(value.encode("utf-8"), dtype=np.uint8)
        offsets = np.arange(count + 1, dtype=np.int64) * len(encoded)
        return VarcharBlock(presto_type, np.tile(encoded, count), offsets)
    dtype = _numpy_dtype_for(presto_type)
    if dtype is object:
        storage = np.empty(count, dtype=object)
        storage[:] = value
    else:
        storage = np.full(count, value, dtype=dtype)
    return PrimitiveBlock(presto_type, storage)


def with_extra_nulls(block: Block, extra_nulls: np.ndarray) -> Block:
    """Return ``block`` with additional positions marked null."""
    if not extra_nulls.any():
        return block
    block = block.loaded()
    merged = block.null_mask() | extra_nulls
    if isinstance(block, PrimitiveBlock):
        return PrimitiveBlock(block.type, block.values, merged)
    if isinstance(block, VarcharBlock):
        return VarcharBlock(block.type, block.data, block.offsets, merged)
    values = [None if merged[i] else block.get(i) for i in range(block.position_count)]
    return block_from_values(block.type, values)
