"""Column encodings: PLAIN, DICTIONARY, and RLE for levels.

PLAIN for bigint/integer/double/boolean is the little-endian value array.
PLAIN for varchar/date/timestamp is one length block and then the payload,
in the style of parquet's DELTA_LENGTH_BYTE_ARRAY::

    [u32 count][count x u32 byte lengths][UTF-8 payloads back to back]

so a page is read in bulk: one ``frombuffer`` of the lengths, one
``cumsum`` into offsets and one view of the payload.  A dictionary page is
such a page, and its header is the dictionary's entry count.

Each direction has two code paths over the same bytes:

- **vectorized** — numpy bulk encode and decode ("a vectorized parquet
  reader batch reads 1000 triplets ... decoder state is kept in
  registers", section V.I), straight from and into the
  ``(data, offsets)`` buffers of a varchar block;
- **scalar / value-at-a-time** — one ``struct`` call per value, the
  pre-vectorized reader and the legacy writer the benchmarks compare
  against.
"""

from __future__ import annotations

import struct
from typing import Any, Optional, Sequence

import numpy as np

from repro.core.types import BIGINT, BOOLEAN, DOUBLE, INTEGER, PrestoType


PLAIN = "plain"
DICTIONARY = "dictionary"


# ---------------------------------------------------------------------------
# Level encoding: RLE of small ints as (varint value, varint run-length)
# ---------------------------------------------------------------------------


def _write_varint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def encode_levels(levels: Sequence[int]) -> bytes:
    """RLE-encode a level stream (runs found vectorized)."""
    array = np.asarray(levels, dtype=np.int32)
    out = bytearray()
    if len(array) == 0:
        return bytes(out)
    boundaries = np.flatnonzero(np.diff(array)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(array)]))
    for start, end in zip(starts, ends):
        _write_varint(out, int(array[start]))
        _write_varint(out, int(end - start))
    return bytes(out)


def encode_levels_value_at_a_time(levels: Sequence[int]) -> bytes:
    """RLE-encode a level stream one value at a time (legacy writer path).

    Produces byte-identical output to :func:`encode_levels`; the difference
    is purely the per-value Python loop the legacy writer paid.
    """
    out = bytearray()
    i = 0
    n = len(levels)
    while i < n:
        value = int(levels[i])
        run = 1
        while i + run < n and levels[i + run] == value:
            run += 1
        _write_varint(out, value)
        _write_varint(out, run)
        i += run
    return bytes(out)


def decode_levels(data: bytes, count: int) -> np.ndarray:
    """Decode an RLE level stream into an int32 array of ``count`` levels."""
    result = np.empty(count, dtype=np.int32)
    pos = 0
    filled = 0
    while filled < count:
        value, pos = _read_varint(data, pos)
        run, pos = _read_varint(data, pos)
        result[filled : filled + run] = value
        filled += run
    return result


# ---------------------------------------------------------------------------
# PLAIN encoding
# ---------------------------------------------------------------------------


def _fixed_width_dtype(presto_type: PrestoType) -> Optional[type]:
    if presto_type in (BIGINT, INTEGER):
        return np.int64
    if presto_type is DOUBLE:
        return np.float64
    if presto_type is BOOLEAN:
        return np.uint8
    return None


def encode_plain(values: Sequence[Any], presto_type: PrestoType) -> bytes:
    """PLAIN-encode non-null values."""
    dtype = _fixed_width_dtype(presto_type)
    if dtype is not None:
        return np.asarray(values, dtype=dtype).tobytes()
    encoded = [str(value).encode("utf-8") for value in values]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    return _varchar_page(lengths, b"".join(encoded))


def encode_plain_array(array: np.ndarray, presto_type: PrestoType) -> bytes:
    """PLAIN-encode a numpy array without Python-level boxing.

    This is the native writer's fast path for flat numeric columns.
    """
    dtype = _fixed_width_dtype(presto_type)
    if dtype is not None:
        return np.ascontiguousarray(array, dtype=dtype).tobytes()
    return encode_plain(list(array), presto_type)


def encode_plain_varchar(data: np.ndarray, offsets: np.ndarray) -> bytes:
    """PLAIN-encode a varchar block's ``(data, offsets)`` buffers.

    Byte-identical to :func:`encode_plain` over the decoded strings: the
    lengths are the offsets' differences and the payload is the one byte
    range the offsets span.
    """
    payload = data[int(offsets[0]) : int(offsets[-1])]
    return _varchar_page(np.diff(offsets), payload.tobytes())


def _varchar_page(lengths: np.ndarray, payload: bytes) -> bytes:
    header = np.array([len(lengths)], dtype="<u4").tobytes()
    return header + lengths.astype("<u4").tobytes() + payload


def encode_plain_value_at_a_time(values: Sequence[Any], presto_type: PrestoType) -> bytes:
    """PLAIN-encode one value at a time (legacy writer path).

    Byte-identical to :func:`encode_plain`, but each value goes through its
    own ``struct.pack`` call — the "consumes each individual record and
    writes value bytes" behaviour of the old writer (section V.J).
    """
    out = bytearray()
    if presto_type in (BIGINT, INTEGER):
        for value in values:
            out.extend(struct.pack("<q", int(value)))
        return bytes(out)
    if presto_type is DOUBLE:
        for value in values:
            out.extend(struct.pack("<d", float(value)))
        return bytes(out)
    if presto_type is BOOLEAN:
        for value in values:
            out.append(1 if value else 0)
        return bytes(out)
    out.extend(struct.pack("<I", len(values)))
    payload = bytearray()
    for value in values:
        encoded = str(value).encode("utf-8")
        out.extend(struct.pack("<I", len(encoded)))
        payload.extend(encoded)
    out.extend(payload)
    return bytes(out)


def encode_dictionary_indices_value_at_a_time(indices: Sequence[int]) -> bytes:
    out = bytearray()
    for index in indices:
        out.extend(struct.pack("<i", int(index)))
    return bytes(out)


def decode_plain_vectorized(
    data: bytes, presto_type: PrestoType, count: int
) -> np.ndarray:
    """Bulk numpy decode (the vectorized reader path).

    Varchar-like types come back as an object array of ``str``: the
    object form that date and timestamp columns keep.
    """
    dtype = _fixed_width_dtype(presto_type)
    if dtype is not None:
        values = np.frombuffer(data, dtype=dtype, count=count)
        return values.astype(bool) if presto_type is BOOLEAN else values
    payload, offsets = decode_plain_varchar(data, count)
    raw = payload.tobytes()
    bounds = offsets.tolist()
    result = np.empty(count, dtype=object)
    result[:] = [raw[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]
    return result


def plain_varchar_count(data: bytes) -> int:
    """The count header of a PLAIN varchar page (a dictionary page's entry
    count), checked to fit the page before anything is sized from it."""
    if len(data) < 4:
        raise ValueError(f"varchar page of {len(data)} bytes has no count header")
    (count,) = struct.unpack_from("<I", data)
    if 4 + 4 * count > len(data):
        raise ValueError(
            f"varchar page of {len(data)} bytes cannot hold {count} lengths"
        )
    return count


def _expect_count(data: bytes, count: int) -> None:
    found = plain_varchar_count(data)
    if found != count:
        raise ValueError(f"varchar page holds {found} values, expected {count}")


def decode_plain_varchar(data: bytes, count: int) -> tuple[np.ndarray, np.ndarray]:
    """PLAIN varchar decode straight into the offsets layout.

    Returns ``(payload uint8 buffer, int64 offsets)`` for a
    :class:`repro.core.blocks.VarcharBlock` — no per-value ``str`` objects.
    The page's lengths are one ``frombuffer`` and one ``cumsum``, and the
    payload is a view of the page's tail.  A count header that is not
    ``count``, or lengths that do not sum to the payload's size, raise
    ``ValueError``; both are checked before an array is sized.
    """
    _expect_count(data, count)
    lengths = np.frombuffer(data, dtype="<u4", count=count, offset=4)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    start = 4 + 4 * count
    if int(offsets[-1]) != len(data) - start:
        raise ValueError(
            f"varchar lengths sum to {int(offsets[-1])} bytes, "
            f"the payload is {len(data) - start}"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=start), offsets


def decode_plain_scalar(data: bytes, presto_type: PrestoType, count: int) -> list[Any]:
    """Value-at-a-time decode (the pre-vectorized reader path)."""
    values: list[Any] = []
    pos = 0
    if presto_type in (BIGINT, INTEGER):
        for _ in range(count):
            (value,) = struct.unpack_from("<q", data, pos)
            pos += 8
            values.append(value)
        return values
    if presto_type is DOUBLE:
        for _ in range(count):
            (value,) = struct.unpack_from("<d", data, pos)
            pos += 8
            values.append(value)
        return values
    if presto_type is BOOLEAN:
        for _ in range(count):
            values.append(bool(data[pos]))
            pos += 1
        return values
    _expect_count(data, count)
    pos = 4 + 4 * count
    for index in range(count):
        (length,) = struct.unpack_from("<I", data, 4 + 4 * index)
        if pos + length > len(data):
            raise ValueError("varchar lengths overrun the payload")
        values.append(data[pos : pos + length].decode("utf-8"))
        pos += length
    if pos != len(data):
        raise ValueError("varchar lengths underrun the payload")
    return values


# ---------------------------------------------------------------------------
# DICTIONARY encoding
# ---------------------------------------------------------------------------


def build_dictionary(values: Sequence[Any]) -> Optional[tuple[list[Any], np.ndarray]]:
    """Dictionary-encode if beneficial; returns (dictionary, indices).

    Follows the usual writer heuristic: only when the distinct count is
    small relative to the value count (at most max(16, n/2) distinct
    values, and at most 65 536).  It gives up at the first distinct value
    past that count.
    """
    if not len(values):
        return None
    limit = min(max(16, len(values) // 2), 65536)
    index_of: dict[Any, int] = {}
    indices = np.empty(len(values), dtype=np.int32)
    for i, value in enumerate(values):
        slot = index_of.get(value)
        if slot is None:
            slot = len(index_of)
            if slot >= limit:
                return None  # too many distinct values to pay off
            index_of[value] = slot
        indices[i] = slot
    return list(index_of), indices


def varchar_dictionary(
    data: np.ndarray, offsets: np.ndarray
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """:func:`build_dictionary` over a varchar block's buffers, in bulk.

    Returns ``(entry rows, int32 ids)``: entry ``k`` is the value at row
    ``entry_rows[k]``, entries in first-occurrence order, so the pages
    written are byte for byte the ones ``build_dictionary`` over the
    decoded strings gives; ``None`` where that rule declines.
    """
    count = len(offsets) - 1
    if count == 0:
        return None
    codes = _byte_codes(data, offsets, limit=min(max(16, count // 2), 65536))
    if codes is None:
        return None
    _, first = np.unique(codes, return_index=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return first[order], rank[codes]


def _byte_codes(
    data: np.ndarray, offsets: np.ndarray, limit: int
) -> Optional[np.ndarray]:
    """Int64 codes, equal exactly where two values' bytes are; ``None`` as
    soon as more than ``limit`` distinct values are told apart.

    Each round splits the groups of values by their next eight bytes (zero
    past a value's end) while a group of two or more has bytes left; a last
    step splits by length what differs only in trailing zero bytes.  A
    round's group count is a lower bound of the distinct count, so text
    that is distinct in its first eight bytes is declined after one round,
    not after a sort of whole values.
    """
    starts, lengths = offsets[:-1], np.diff(offsets)
    words = _words(data)
    codes = np.zeros(len(lengths), dtype=np.int64)
    sizes = np.array([len(lengths)])
    position = 0
    while ((sizes[codes] > 1) & (lengths > position)).any():
        key = _word_at(words, starts, lengths, position)
        if position:  # within the groups so far
            _, key = np.unique(key, return_inverse=True)
            key = codes * (int(key.max()) + 1) + key
        _, codes, sizes = np.unique(key, return_inverse=True, return_counts=True)
        if len(sizes) > limit:
            return None
        position += 8
    if lengths.min() < lengths.max():
        key = codes * (int(lengths.max()) + 1) + lengths
        _, codes, sizes = np.unique(key, return_inverse=True, return_counts=True)
    return None if len(sizes) > limit else codes


def varchar_min_max(
    data: np.ndarray, offsets: np.ndarray
) -> tuple[Optional[str], Optional[str]]:
    """The least and the greatest value of a varchar block's buffers, as
    ``str``; ``(None, None)`` when there is none.  UTF-8 byte order is
    code-point order, so these are ``min``/``max`` over the strings."""
    if len(offsets) == 1:
        return None, None
    words = _words(data)
    return _extreme(data, offsets, words, np.min), _extreme(data, offsets, words, np.max)


def _extreme(data: np.ndarray, offsets: np.ndarray, words: np.ndarray, pick) -> str:
    """The value ``pick`` (``np.min`` or ``np.max``) selects, found by
    narrowing the candidate rows eight bytes at a time."""
    starts, lengths = offsets[:-1], np.diff(offsets)
    rows = np.arange(len(lengths))
    position = 0
    while len(rows) > 1 and position < int(lengths[rows].max()):
        word = _word_at(words, starts[rows], lengths[rows], position)
        rows = rows[word == pick(word)]
        position += 8
    # The rows left agree on every byte, zero padded: the shorter is less.
    row = rows[lengths[rows] == pick(lengths[rows])][0]
    return data[starts[row] : starts[row] + lengths[row]].tobytes().decode("utf-8")


# _KEEP[k] keeps the first k bytes of a big-endian word.
_KEEP = np.array(
    [(0xFFFF_FFFF_FFFF_FFFF << (8 * (8 - k))) & 0xFFFF_FFFF_FFFF_FFFF for k in range(9)],
    dtype=np.uint64,
)


def _words(data: np.ndarray) -> np.ndarray:
    """One unaligned big-endian uint64 at every byte offset of ``data``
    (zero padded past its end): integer order is byte order."""
    padded = np.zeros(len(data) + 8, dtype=np.uint8)
    padded[: len(data)] = data
    return np.ndarray((len(data) + 1,), dtype=">u8", buffer=padded, strides=(1,))


def _word_at(
    words: np.ndarray, starts: np.ndarray, lengths: np.ndarray, position: int
) -> np.ndarray:
    """Each value's bytes from ``position`` on, eight at most and zero past
    its end, as one uint64 per value."""
    index = np.minimum(starts + position, len(words) - 1)
    left = np.minimum(np.maximum(lengths - position, 0), 8)
    return words[index].astype(np.uint64) & _KEEP[left]


def encode_dictionary_indices(indices: np.ndarray) -> bytes:
    return np.ascontiguousarray(indices, dtype=np.int32).tobytes()


def decode_dictionary_indices_vectorized(data: bytes, count: int) -> np.ndarray:
    return np.frombuffer(data, dtype=np.int32, count=count)


def decode_dictionary_indices_scalar(data: bytes, count: int) -> list[int]:
    values = []
    pos = 0
    for _ in range(count):
        (value,) = struct.unpack_from("<i", data, pos)
        pos += 4
        values.append(value)
    return values
