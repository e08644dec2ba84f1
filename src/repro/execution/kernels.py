"""Vectorized operator kernels: the engine-side array hot path.

The block layer (section III: Presto "processes a bunch of in memory
encoded column values vectorized, instead of row by row") keeps column
values in numpy storage, and this module keeps the relational operators
downstream columnar too.  It is their one production lane: every key and
every aggregate the dialect accepts runs here.

- **Group-key factorization** (:func:`factorize_keys`): encode the key
  columns of a batch into one dense ``int64`` code array plus the
  distinct keys, one block per key column (``block.take`` of each key's
  first row: no key ever becomes a Python tuple).  :func:`column_codes`
  is total over the key blocks the analyzer admits: dictionary-encoded
  columns factorize on their id arrays without decoding; an int64
  column whose value span is narrow (:func:`dense_table`) through a
  presence table, other primitive columns through ``np.unique`` (object
  values of kinds that do not compare with each other order by kind
  first); offsets-based
  :class:`VarcharBlock` columns factorize on padded byte views; ARRAY
  columns factorize through their elements' codes.  ROW and MAP keys
  never arrive: the analyzer rejects them.  :class:`GroupIndex` keeps the
  key blocks from the first batch to the output page; its tuple-keyed
  dict exists only once a second batch has to be matched against the
  first.
- **Grouped accumulators**: count/sum/avg accumulate per group code with
  ``np.bincount`` / ``np.add.at``, min/max with ``np.minimum.at`` over
  numeric values or over the ranks :func:`column_codes` gives any other
  orderable column, and hand their states and final values back as arrays
  that become blocks as they are.  ``np.add.at`` applies updates in row
  order, so float results are bit-identical to the row loop.  avg's
  partial state is the ``AVG_INTERMEDIATE`` row of its sums and counts.
  DISTINCT deduplicates (group, argument) pairs with one factorization
  before the plain kernel; ``approx_distinct`` is that distinct count and
  ``array_agg`` a stable argsort by group into ``ArrayBlock`` offsets.
- **Hash aggregation** (:class:`HashAggregation`): the factorization, the
  group index and one accumulator per aggregate, fed batch by batch; the
  aggregation operator, the realtime store and materialized views all
  aggregate through it.
- **Hash-join index** (:class:`JoinKeyIndex`): the build side factorizes
  once; probe pages map into the same code space, narrow integer keys
  through lookup tables built once per index, and expand into the
  ``(probe_positions, build_positions)`` index pair in probe-row order.
- **Exchange partitioning** (:func:`partition_assignments`): a row's
  partition is its key's hash modulo the partition count.
  :func:`block_hash` computes a ``uint64`` per position from the block's
  own buffers (integers and doubles through a splitmix64 finalizer,
  strings as a positional sum over their bytes, dictionaries through
  their dictionary, arrays through their elements), so the hash is a
  function of the SQL value whichever block holds it, and no key becomes
  a Python tuple.  ``tests/reference/hashing.py`` is its scalar reference.
- **Sort ranks** (:func:`sort_order`): per-key rank arrays (nulls
  ranked last ascending, first descending) fed to a stable ``np.lexsort``.
  :func:`top_positions` is that order cut to ``count``; on a numeric
  first key it selects candidates with ``np.partition`` (every row that
  beats or ties the cut-off) and sorts only those.

NaN keys canonicalize to the null sentinel before factorization (NaN is
not equal to itself, so ``np.unique`` grouping and dict-keyed grouping
would otherwise disagree), so a NaN key groups, joins and partitions
exactly like SQL NULL; the row-at-a-time references in
``tests/reference/operators.py`` apply the same rule to their key tuples.
NULL keys are handled exactly.
"""

from __future__ import annotations

import zlib
from itertools import repeat
from numbers import Real
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.common.errors import EngineDefectError, InvalidValueError
from repro.core.blocks import (
    ArrayBlock,
    Block,
    DictionaryBlock,
    PrimitiveBlock,
    RowBlock,
    VarcharBlock,
    _numpy_dtype_for,
    block_from_values,
    constant_block,
    masked_tolist,
)
from repro.core.functions import (
    AVG_INTERMEDIATE,
    AggregateFunction,
    FunctionHandle,
    FunctionRegistry,
)
from repro.core.page import Page, concat_blocks, concat_pages
from repro.core.types import BIGINT, BOOLEAN, DOUBLE, PrestoType, parse_type

EMPTY_POSITIONS = np.empty(0, dtype=np.int64)

# Mixed-radix key codes re-compact through ``np.unique`` before their
# product could leave int64.
_MAX_RADIX = 2**62

# Int64 keys whose value span is at most this many slots per key are
# looked up in a table over the span (:func:`dense_table`), not sorted.
_DENSE_SPAN = 8

# Rows one hash-stage task should own (the scheduler runs ceil(observed
# rows / target) of them), and so the rows hash aggregation factorizes at
# once: a FINAL task's whole input is one batch.
TARGET_PARTITION_ROWS = 65_536


def page_runs(
    pages: Iterable[Page], alone: Optional[Callable[[Page], bool]] = None
) -> Iterator[list[Page]]:
    """Consecutive pages grouped greedily within ``TARGET_PARTITION_ROWS`` rows.

    A run grows while its rows stay within the target; a page larger than
    the target is a run of its own.  A page for which ``alone`` holds
    leaves as a run of its own, cutting the pending run short, yet still
    counts toward the rows of the run it fell in.  The runs are therefore
    always pieces of the plain greedy runs, and grouping them greedily
    again (hash aggregation over a scan) gives back exactly those runs.
    """
    pending: list[Page] = []
    rows = 0
    for page in pages:
        if rows and rows + page.position_count > TARGET_PARTITION_ROWS:
            if pending:
                yield pending
            pending, rows = [], 0
        rows += page.position_count
        if alone is not None and alone(page):
            if pending:
                yield pending
                pending = []
            yield [page]
        else:
            pending.append(page)
    if pending:
        yield pending


# ---------------------------------------------------------------------------
# Dense integer keys
# ---------------------------------------------------------------------------


def dense_table(
    keys: np.ndarray, payload: Any, miss: Any
) -> Optional[tuple[int, np.ndarray]]:
    """``(low, table)`` over the int64 ``keys``' span, or None when it is wide.

    ``table[key - low]`` holds ``payload`` (a scalar, or one entry per
    key), every other slot ``miss``, and one trailing ``miss`` slot is
    what :func:`dense_lookup` reads for a value outside ``[low, high]``.
    The span is checked in Python ints before anything is subtracted, so
    keys at the int64 extremes cannot overflow; it passes while it is at
    most ``_DENSE_SPAN`` slots per key.  No keys, no table.
    """
    if not len(keys):
        return None
    low, high = int(keys.min()), int(keys.max())
    if high - low >= _DENSE_SPAN * len(keys):
        return None
    table = np.full(high - low + 2, miss, dtype=np.asarray(payload).dtype)
    table[keys - low] = payload
    return low, table


def dense_lookup(low: int, table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``table[value - low]`` per int64 value; values off the span read the
    trailing ``miss`` slot.  The subtraction wraps in uint64, so a value
    below ``low`` lands past the end with every other miss."""
    slots = values.view(np.uint64) - np.uint64(low % 2**64)
    np.minimum(slots, len(table) - 1, out=slots)
    return table[slots.view(np.int64)]


def _dense_codes(values: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """``np.unique(values, return_inverse=True)`` of int64 ``values`` with
    a narrow span: a presence table, ``flatnonzero`` and one gather."""
    dense = dense_table(values, True, False)
    if dense is None:
        return None
    low, present = dense
    slots = np.flatnonzero(present)
    codes = np.zeros(len(present), dtype=np.int64)
    codes[slots] = np.arange(len(slots), dtype=np.int64)
    return slots + low, codes[values - low]


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


def column_codes(block: Block) -> tuple[np.ndarray, np.ndarray]:
    """Factorize one column into ``(codes, uniques)``.

    ``codes`` is an int64 array with ``-1`` marking nulls; ``uniques`` is
    the ascending sorted ndarray of the distinct non-null values, so
    ``uniques[c]`` is the value for code ``c`` and ``uniques.tolist()``
    the distinct values as Python scalars (lists for an ARRAY column).
    Total over every key block the analyzer admits; a ROW or MAP block,
    which it rejects, raises ``TypeError``.
    """
    block = block.loaded()
    if isinstance(block, DictionaryBlock):
        return _dictionary_codes(block)
    if isinstance(block, VarcharBlock):
        return block.factorize()
    if isinstance(block, ArrayBlock):
        return _array_codes(block)
    if not isinstance(block, PrimitiveBlock):
        raise TypeError(f"{block.type.display()} values have no key codes")
    values = block.values
    nulls = block.null_mask()
    if np.issubdtype(values.dtype, np.floating):
        # NaN keys canonicalize to the null sentinel (module docstring).
        nulls = nulls | np.isnan(values)
    if values.dtype == object or nulls.any():
        non_null = ~nulls
        uniq, inverse = _unique(values[non_null])
        codes = np.full(len(values), -1, dtype=np.int64)
        codes[non_null] = inverse
    else:
        uniq, inverse = _unique(values)
        codes = inverse.astype(np.int64, copy=False)
    return codes, uniq


def _unique(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique`` and its inverse.  Int64 values with a narrow span
    give the same pair from a presence table (:func:`_dense_codes`), with
    no sort; object values of kinds that do not compare with each other
    (ints beside strings) order by kind first."""
    if values.dtype == np.int64:
        dense = _dense_codes(values)
        if dense is not None:
            return dense
    try:
        return np.unique(values, return_inverse=True)
    except TypeError:
        kinds = (("" if isinstance(v, Real) else type(v).__name__, v) for v in values)
        keyed = np.fromiter(kinds, dtype=object, count=len(values))
        _, first, inverse = np.unique(keyed, return_index=True, return_inverse=True)
        return values[first], inverse


def _dictionary_codes(block: DictionaryBlock) -> tuple[np.ndarray, np.ndarray]:
    """Factorize on the id array without decoding the column.

    The dictionary itself is deduplicated defensively (a dictionary with
    repeated values must not split one group in two): the small
    dictionary is factorized once, then the remap table is applied to
    the full id array with one vectorized gather.
    """
    dict_codes, uniq = column_codes(block.dictionary)
    # remap[dict_id] -> code; the extra trailing slot catches id == -1.
    remap = np.append(dict_codes, -1)
    return remap[block.ids], uniq


def _array_codes(block: ArrayBlock) -> tuple[np.ndarray, np.ndarray]:
    """An array is the sequence of its elements' codes.

    Each array becomes one row of a matrix of element ranks, zero-padded
    on the right: rank 0 pads past an array's end, so a prefix orders
    first, and a NULL element ranks after every value.  One stable
    ``np.lexsort`` of the rows orders the arrays element by element, as
    Python orders lists, and adjacent unequal rows number the distinct
    arrays.  ``uniques`` holds each one's first row as a list.
    """
    count = block.position_count
    element_codes, element_uniques = column_codes(block.elements)
    ranks = np.where(element_codes < 0, len(element_uniques) + 1, element_codes + 1)
    offsets = block.offsets
    lengths = offsets[1:] - offsets[:-1]
    width = max(int(lengths.max()) if count else 0, 1)
    matrix = np.zeros((count, width), dtype=np.int64)
    row_of = np.repeat(np.arange(count, dtype=np.int64), lengths)
    column_of = np.arange(len(row_of), dtype=np.int64) - np.repeat(
        offsets[:-1] - offsets[0], lengths
    )
    matrix[row_of, column_of] = ranks[offsets[0] : offsets[-1]]
    valid = np.flatnonzero(~block.null_mask())
    order = np.lexsort(matrix[valid].T[::-1])  # column 0 is the primary key
    ordered = matrix[valid[order]]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    codes = np.full(count, -1, dtype=np.int64)
    codes[valid[order]] = np.cumsum(first) - 1
    uniques = np.empty(int(first.sum()), dtype=object)
    for code, row in enumerate(valid[order[first]].tolist()):
        uniques[code] = block.get(row)
    return codes, uniques


def _factorize(
    blocks: Sequence[Block],
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Dense group codes, one representative row per group, per-column codes.

    ``group_codes[row]`` numbers the distinct keys in first-appearance
    order and ``reps[group]`` is the first row holding that key;
    ``columns`` are the :func:`column_codes` pairs the keys decode
    from.  Columns are combined with mixed-radix arithmetic, re-compacting
    through ``np.unique`` whenever the radix product could overflow int64.
    The combined codes find each group's first row (a dense table over a
    radix of at most 65 536 or ``_DENSE_SPAN`` slots per row, else
    ``np.unique``'s first indices).  Those
    rows, marked and read back in row order, are ``reps`` in appearance
    order, and numbering them numbers the groups: no step sorts the
    distinct keys.
    """
    columns = [column_codes(block) for block in blocks]
    n = len(columns[0][0])
    combined = np.zeros(n, dtype=np.int64)
    radix = 1
    for codes, uniques in columns:
        width = len(uniques) + 1  # +1 slot so null (-1) encodes as 0
        if radix > _MAX_RADIX // max(width, 1):
            _, combined = np.unique(combined, return_inverse=True)
            combined = combined.astype(np.int64, copy=False)
            radix = int(combined.max()) + 1 if n else 1
        combined = combined * width + (codes + 1)
        radix *= width
    if radix <= max(65536, _DENSE_SPAN * n):
        # Narrow key domain: dense first-occurrence table.  Reversed
        # assignment leaves each slot holding the SMALLEST row index that
        # wrote it.
        first = np.full(radix, -1, dtype=np.int64)
        first[combined[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
        first_rows = first[first >= 0]
        slots, slot_count = combined, radix
    else:
        _, first_rows, slots = np.unique(combined, return_index=True, return_inverse=True)
        slot_count = len(first_rows)
    is_first = np.zeros(n, dtype=bool)
    is_first[first_rows] = True
    reps = np.flatnonzero(is_first)
    rank = np.zeros(slot_count, dtype=np.int64)
    rank[slots[reps]] = np.arange(len(reps), dtype=np.int64)
    group_codes = rank[slots]
    return group_codes, reps, columns


def _array_block(
    presto_type: PrestoType, values: np.ndarray, nulls: Optional[np.ndarray]
) -> Block:
    """``values`` / ``nulls`` as the block their Python values would build.

    No Python value in between: the null mask is dropped when nothing is
    null and storage is zeroed under it, so the block is the one
    ``block_from_values`` makes, byte for byte.  Only object-dtype storage
    (the legacy varchar lane, dates) is rebuilt from its values.
    """
    dtype = _numpy_dtype_for(presto_type)
    if dtype is object or values.dtype == object:
        return block_from_values(presto_type, masked_tolist(values, nulls))
    if nulls is not None and nulls.any():
        values = np.where(nulls, values.dtype.type(0), values)
    else:
        nulls = None
    return PrimitiveBlock(presto_type, values.astype(dtype, copy=False), nulls)


def _distinct_key_block(block: Block, reps: np.ndarray) -> Block:
    """The distinct keys of one column: ``block`` at rows ``reps``.

    One gather.  NaN keys are nulled (they group, and so print, as NULL)
    and a dictionary decodes over the distinct keys only.
    """
    taken = block.take(reps)
    if isinstance(taken, DictionaryBlock):
        taken = taken.decode()
    if isinstance(taken, VarcharBlock):
        nulls = taken.null_mask()
        return VarcharBlock(
            taken.type, taken.data, taken.offsets, nulls if nulls.any() else None
        )
    if isinstance(taken, PrimitiveBlock):
        nulls = taken.null_mask()
        if np.issubdtype(taken.values.dtype, np.floating):
            nulls = nulls | np.isnan(taken.values)
        return _array_block(taken.type, taken.values, nulls)
    return taken  # an ARRAY key


def factorize_keys(blocks: Sequence[Block]) -> tuple[np.ndarray, list[Block]]:
    """Encode multi-column row keys into dense int64 group codes.

    Returns ``(codes, keys)`` where ``keys`` holds one block per key
    column and row ``codes[row]`` of them is that row's key: the distinct
    keys in first-appearance order (NULL where the key is NULL or NaN;
    pairwise unequal).
    """
    group_codes, reps, _ = _factorize(blocks)
    return group_codes, [_distinct_key_block(block.loaded(), reps) for block in blocks]


# ---------------------------------------------------------------------------
# Block hashing
# ---------------------------------------------------------------------------

# Every lane ends in splitmix64's finalizer over uint64 (wrapping).
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
# SQL NULL (and a NaN double) hashes to one constant in every lane.
NULL_HASH = np.uint64(0x9E3779B97F4A7C15)
# A sequence (a string's bytes, an array's element hashes) is summed with
# ``_POSITION ** index`` weights; its length is salted before it joins.
_POSITION = np.uint64(0x100000001B3)
_LENGTH_SALT = np.uint64(0xC2B2AE3D27D4EB4F)
# Key columns join left to right: ``mix(acc * _COMBINE + column)``.
_COMBINE = np.uint64(0xFF51AFD7ED558CCD)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, elementwise over a uint64 array."""
    x = (x ^ (x >> np.uint64(30))) * _MIX_1
    x = (x ^ (x >> np.uint64(27))) * _MIX_2
    return x ^ (x >> np.uint64(31))


def _int_hash(values: np.ndarray) -> np.ndarray:
    """BIGINT, INTEGER and BOOLEAN: the finalizer over the int64 bits."""
    return _mix(values.astype(np.int64, copy=False).view(np.uint64))


def _double_hash(values: np.ndarray) -> np.ndarray:
    """DOUBLE: the finalizer over the bits, ``-0.0`` folded onto ``0.0``
    (IEEE addition: ``-0.0 + 0.0`` is ``+0.0``).  NaN is the caller's NULL."""
    return _mix((values.astype(np.float64, copy=False) + 0.0).view(np.uint64))


def _sequence_hash(terms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Hash of each segment ``terms[offsets[i]:offsets[i + 1]]``: a
    VARCHAR row's bytes, or an ARRAY's element hashes.

    ``sum(terms[start + j] * _POSITION ** j)`` per segment, from one
    wrapping cumulative sum (so empty segments and offsets that do not
    start at 0 need no special case), then mixed with the segment length.
    """
    base = offsets[0]
    lengths = (offsets[1:] - offsets[:-1]).astype(np.int64, copy=False)
    terms = terms[base : offsets[-1]].astype(np.uint64, copy=False)
    width = int(lengths.max()) if len(lengths) else 0
    powers = np.full(max(width, 1), _POSITION, dtype=np.uint64)
    powers[0] = 1
    powers = np.multiply.accumulate(powers)  # _POSITION ** j
    position = np.arange(len(terms), dtype=np.int64) - np.repeat(offsets[:-1] - base, lengths)
    sums = np.zeros(len(terms) + 1, dtype=np.uint64)
    np.cumsum(terms * powers[position], out=sums[1:])
    totals = sums[offsets[1:] - base] - sums[offsets[:-1] - base]
    return _mix(totals + _mix(lengths.view(np.uint64) ^ _LENGTH_SALT))


def _object_hash(block: PrimitiveBlock) -> np.ndarray:
    """Object storage (DATE, TIMESTAMP, a VARCHAR column of non-``str``):
    each distinct value hashed once, by the rule of its Python type.

    A ``str`` hashes as its UTF-8 bytes in a :class:`VarcharBlock`, an
    ``int`` as int64 and a ``float`` as a double; any other value (or an
    ``int`` past int64) is CRC32 of its ``repr``, then the finalizer.
    """
    codes, uniques = column_codes(block)
    texts: list[bytes] = []
    text_at, ints, int_at, floats, float_at = [], [], [], [], []
    hashes = np.empty(len(uniques) + 1, dtype=np.uint64)
    hashes[-1] = NULL_HASH  # code -1
    for code, value in enumerate(uniques.tolist()):
        if isinstance(value, np.generic):
            value = value.item()  # as ``block.get`` returns it
        if isinstance(value, str):
            texts.append(value.encode("utf-8", "surrogatepass"))
            text_at.append(code)
        elif isinstance(value, int) and -(2**63) <= value < 2**63:
            ints.append(value)
            int_at.append(code)
        elif isinstance(value, float):
            floats.append(value)
            float_at.append(code)
        else:
            crc = zlib.crc32(repr(value).encode("utf-8", "surrogatepass"))
            hashes[code] = _mix(np.array([crc], dtype=np.uint64))[0]
    if texts:
        offsets = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)), out=offsets[1:])
        hashes[text_at] = _sequence_hash(np.frombuffer(b"".join(texts), dtype=np.uint8), offsets)
    if ints:
        hashes[int_at] = _int_hash(np.array(ints, dtype=np.int64))
    if floats:
        values = np.array(floats, dtype=np.float64)
        hashes[float_at] = np.where(np.isnan(values), NULL_HASH, _double_hash(values))
    return hashes[codes]


def block_hash(block: Block) -> np.ndarray:
    """A ``uint64`` hash of each position's SQL value, from the block's buffers.

    A function of (type, value), whichever block holds the value: a
    dictionary hashes its dictionary once and gathers by id, an ARRAY
    combines its elements' hashes by position, and object storage hashes
    each distinct value once.  NULL, a NaN double and a dictionary id of
    ``-1`` are :data:`NULL_HASH`; ``-0.0`` hashes as ``0.0``.  A ROW or
    MAP block, which the analyzer never admits as a key, raises
    ``TypeError``.
    """
    block = block.loaded()
    if isinstance(block, DictionaryBlock):
        # The trailing slot is id -1's.
        return np.append(block_hash(block.dictionary), NULL_HASH)[block.ids]
    nulls = block.null_mask()
    if isinstance(block, VarcharBlock):
        hashes = _sequence_hash(block.data, block.offsets)
    elif isinstance(block, ArrayBlock):
        hashes = _sequence_hash(block_hash(block.elements), block.offsets)
    elif not isinstance(block, PrimitiveBlock):
        raise TypeError(f"{block.type.display()} values have no hash")
    elif block.values.dtype.kind == "f":
        nulls = nulls | np.isnan(block.values)
        hashes = _double_hash(block.values)
    elif block.values.dtype.kind in "iub":
        hashes = _int_hash(block.values)
    else:
        return _object_hash(block)
    return np.where(nulls, NULL_HASH, hashes) if nulls.any() else hashes


def key_hash(blocks: Sequence[Block]) -> np.ndarray:
    """One ``uint64`` per row over several key columns: :func:`block_hash`
    of each, joined left to right by ``mix(acc * _COMBINE + column)``."""
    if not blocks:
        raise ValueError("partitioning requires at least one key column")
    hashes = block_hash(blocks[0])
    for block in blocks[1:]:
        hashes = _mix(hashes * _COMBINE + block_hash(block))
    return hashes


def partition_assignments(blocks: Sequence[Block], n_partitions: int) -> np.ndarray:
    """Per-row partition indexes for a hash-partitioned exchange:
    ``key_hash(blocks) % n_partitions``, as int64.

    Keys that are one SQL group (``0.0`` and ``-0.0``, NaN and NULL, the
    same array in any block) share a partition, and placement is the same
    in every process (no ``PYTHONHASHSEED`` dependence).
    """
    return (key_hash(blocks) % np.uint64(n_partitions)).astype(np.int64)


class GroupIndex:
    """Distinct group keys, numbered in first-seen order and kept as blocks.

    A batch factorizes locally (:func:`factorize_keys`) and hands over its
    distinct keys as one block per key column; they stay blocks until
    :meth:`key_blocks` lays them into the output page.  The first batch's
    codes are the group ids.  Only when a second batch has to be matched
    against what is stored does a ``key tuple -> id`` dict get built, from
    the stored blocks, and from then on each batch's *distinct* keys go
    through it (an ARRAY key's lists as tuples).
    """

    def __init__(self) -> None:
        # One entry per batch that minted groups: its new keys, a block
        # per key column.
        self._segments: list[list[Block]] = []
        self._count = 0
        self._ids: Optional[dict[tuple, int]] = None

    def __len__(self) -> int:
        return self._count

    def map_codes(self, codes: np.ndarray, keys: Sequence[Block]) -> np.ndarray:
        """Translate batch-local codes into global group ids.

        ``keys`` are pairwise unequal (:func:`factorize_keys`), so the
        ones not seen before take consecutive new ids in batch order.
        """
        first = self._count
        if not first:
            self._segments.append(list(keys))
            self._count = keys[0].position_count
            return codes
        if self._ids is None:
            stored = (key for segment in self._segments for key in _block_rows(segment))
            self._ids = dict(zip(stored, range(first)))
        distinct = list(_block_rows(keys))
        remap = np.fromiter(
            map(self._ids.get, distinct, repeat(-1)), dtype=np.int64, count=len(distinct)
        )
        unseen = np.flatnonzero(remap < 0)
        if len(unseen):
            self._count += len(unseen)
            self._ids.update(zip((distinct[i] for i in unseen.tolist()), range(first, self._count)))
            self._segments.append([block.take(unseen) for block in keys])
            remap[unseen] = np.arange(first, self._count, dtype=np.int64)
        return remap[codes]

    def key_blocks(self, types: Sequence[PrestoType]) -> list[Block]:
        """Every group's key, one block per key column, in group-id order."""
        if len(self._segments) == 1:
            return self._segments[0]
        return concat_pages(types, [Page(segment) for segment in self._segments]).blocks


def _block_rows(blocks: Sequence[Block]) -> Iterator[tuple]:
    """Row tuples of parallel blocks: one ``to_list`` each, one ``zip``."""
    return zip(*(
        map(_hashable, block.to_list()) if block.type.is_nested() else block.to_list()
        for block in blocks
    ))


def _hashable(value: Any) -> Any:
    """A key value a dict can hold: lists (ARRAY values) become tuples."""
    return tuple(map(_hashable, value)) if isinstance(value, list) else value


# ---------------------------------------------------------------------------
# Grouped accumulators
# ---------------------------------------------------------------------------


def _numeric_input(block: Block) -> tuple[np.ndarray, np.ndarray]:
    """Values + null mask of a numeric column."""
    block = block.loaded()
    if isinstance(block, DictionaryBlock):
        block = block.decode()
    return block.values, block.null_mask()


class GroupedAccumulator:
    """One aggregate accumulated across batches, keyed by dense group ids."""

    def add_page(
        self,
        group_count: int,
        group_ids: np.ndarray,
        argument_blocks: Sequence[Block],
        position_count: int,
    ) -> None:
        raise NotImplementedError

    def final_block(self, group_count: int, presto_type: PrestoType) -> Block:
        """Every group's finalized value."""
        raise NotImplementedError

    def state_block(self, group_count: int, presto_type: PrestoType) -> Block:
        """Every group's partial state, for a FINAL step to merge.

        count, sum, min and max finalize to their state; avg overrides.
        """
        return self.final_block(group_count, presto_type)


class _ArrayAccumulator(GroupedAccumulator):
    """Shared growable-array plumbing for the vector accumulators.

    A subclass answers :meth:`_arrays` with its ``(values, nulls)``; they
    become the output block as they are (:func:`_array_block`).
    """

    def __init__(self) -> None:
        self._size = 0

    def _grow(self, group_count: int) -> None:
        if group_count <= self._size:
            return
        self._grow_arrays(self._size, group_count)
        self._size = group_count

    def _grow_arrays(self, old: int, new: int) -> None:
        raise NotImplementedError

    def _arrays(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Per-group values and the mask of groups that have none."""
        raise NotImplementedError

    def final_block(self, group_count, presto_type):
        self._grow(group_count)
        return _array_block(presto_type, *self._arrays())


def _extended(array: np.ndarray, new_size: int, fill) -> np.ndarray:
    out = np.full(new_size, fill, dtype=array.dtype)
    out[: len(array)] = array
    return out


class CountAccumulator(_ArrayAccumulator):
    """count(*) / count(x); in merge mode sums partial counts."""

    def __init__(self, has_argument: bool, merge_mode: bool) -> None:
        super().__init__()
        self.has_argument = has_argument
        self.merge_mode = merge_mode
        self.counts = np.zeros(0, dtype=np.int64)

    def _grow_arrays(self, old, new):
        self.counts = _extended(self.counts, new, 0)

    def add_page(self, group_count, group_ids, argument_blocks, position_count):
        self._grow(group_count)
        if self.merge_mode:
            values, nulls = _numeric_input(argument_blocks[0])
            if nulls.any():
                # A PARTIAL count is never NULL: something upstream broke.
                raise EngineDefectError("FINAL count received a NULL partial count")
            np.add.at(self.counts, group_ids, values.astype(np.int64, copy=False))
            return
        if self.has_argument:
            nulls = argument_blocks[0].loaded().null_mask()
            group_ids = group_ids[~nulls]
        counts = np.bincount(group_ids, minlength=self._size)
        self.counts[: len(counts)] += counts.astype(np.int64, copy=False)

    def _arrays(self):
        return self.counts, None


_INT64_MAX = 2**63 - 1


class SumAccumulator(_ArrayAccumulator):
    """sum(x); merge mode is the same null-skipping addition.

    An integer sum that leaves int64 raises (Presto's
    NUMERIC_VALUE_OUT_OF_RANGE) instead of wrapping.  ``_reach`` bounds
    every group's ``|sum|`` from above: each batch adds ``max|value| x
    rows`` to it, and only a batch that takes it past int64 is added
    exactly, in Python integers.
    """

    def __init__(self, dtype) -> None:
        super().__init__()
        self.sums = np.zeros(0, dtype=dtype)
        self.has_value = np.zeros(0, dtype=bool)
        self._reach = 0

    def _grow_arrays(self, old, new):
        self.sums = _extended(self.sums, new, 0)
        self.has_value = _extended(self.has_value, new, False)

    def add_page(self, group_count, group_ids, argument_blocks, position_count):
        self._grow(group_count)
        values, nulls = _numeric_input(argument_blocks[0])
        if nulls.any():
            keep = ~nulls
            group_ids = group_ids[keep]
            values = values[keep]
        if np.issubdtype(self.sums.dtype, np.integer) and len(values):
            largest = max(abs(int(values.min())), abs(int(values.max())))
            self._reach += largest * len(values)
            if self._reach > _INT64_MAX:
                self._add_exactly(group_ids, values)
                return
        np.add.at(self.sums, group_ids, values)
        self.has_value[group_ids] = True

    def _add_exactly(self, group_ids: np.ndarray, values: np.ndarray) -> None:
        exact = self.sums.astype(object)
        np.add.at(exact, group_ids, values.astype(object))
        low, high = min(exact), max(exact)
        if low < -_INT64_MAX - 1 or high > _INT64_MAX:
            raise InvalidValueError("bigint sum out of range")
        self._reach = max(-low, high)
        self.sums = exact.astype(self.sums.dtype)
        self.has_value[group_ids] = True

    def _arrays(self):
        return self.sums, ~self.has_value


class MinMaxAccumulator(_ArrayAccumulator):
    """min(x) / max(x) over bigint or double inputs via ufunc.at."""

    def __init__(self, dtype, is_min: bool) -> None:
        super().__init__()
        self.is_min = is_min
        if np.issubdtype(dtype, np.floating):
            self._sentinel = np.inf if is_min else -np.inf
        else:
            info = np.iinfo(dtype)
            self._sentinel = info.max if is_min else info.min
        self.best = np.zeros(0, dtype=dtype)
        self.has_value = np.zeros(0, dtype=bool)

    def _grow_arrays(self, old, new):
        self.best = _extended(self.best, new, self._sentinel)
        self.has_value = _extended(self.has_value, new, False)

    def add_page(self, group_count, group_ids, argument_blocks, position_count):
        self._grow(group_count)
        values, nulls = _numeric_input(argument_blocks[0])
        if nulls.any():
            keep = ~nulls
            group_ids = group_ids[keep]
            values = values[keep]
        ufunc = np.minimum if self.is_min else np.maximum
        with np.errstate(invalid="ignore"):  # a NaN input is a value, not an error
            ufunc.at(self.best, group_ids, values)
        self.has_value[group_ids] = True

    def _arrays(self):
        return self.best, ~self.has_value


class RankMinMaxAccumulator(GroupedAccumulator):
    """min(x) / max(x) over any other orderable column (varchar, date,
    boolean, array), through the ranks :func:`column_codes` gives it.

    The best value so far is one row per group, kept as a block.  Each
    batch goes after it, the ranks of the two together reduce per group
    with ``np.minimum.at`` (max negates them), and the first row holding
    its group's best rank is gathered back: the first arrival among equal
    values, as the row fold keeps.
    """

    def __init__(self, is_min: bool) -> None:
        self.sign = 1 if is_min else -1
        self.best: Optional[Block] = None

    def add_page(self, group_count, group_ids, argument_blocks, position_count):
        block = argument_blocks[0]
        if self.best is not None:
            stored = self.best.position_count
            block = concat_blocks(block.type, [self.best, block])
            group_ids = np.concatenate([np.arange(stored, dtype=np.int64), group_ids])
        codes, _ = column_codes(block)
        rows = np.flatnonzero(codes >= 0)
        ranks = self.sign * codes[rows]
        groups = group_ids[rows]
        best = np.full(group_count, _INT64_MAX, dtype=np.int64)
        np.minimum.at(best, groups, ranks)
        holders = rows[ranks == best[groups]]
        positions = np.full(group_count, -1, dtype=np.int64)
        # Reversed assignment leaves each group its first holder.
        positions[group_ids[holders][::-1]] = holders[::-1]
        self.best = take_nullable(block, positions, positions < 0)

    def final_block(self, group_count, presto_type):
        if self.best is None:
            return constant_block(None, presto_type, group_count)
        return self.best


class AvgAccumulator(_ArrayAccumulator):
    """avg(x): float64 running sums + int64 counts, row-ordered adds.

    The partial state is one ``AVG_INTERMEDIATE`` row per group, and in
    merge mode the FINAL step adds those rows' sums and counts.
    """

    def __init__(self, merge_mode: bool) -> None:
        super().__init__()
        self.merge_mode = merge_mode
        self.sums = np.zeros(0, dtype=np.float64)
        self.counts = np.zeros(0, dtype=np.int64)

    def _grow_arrays(self, old, new):
        self.sums = _extended(self.sums, new, 0.0)
        self.counts = _extended(self.counts, new, 0)

    def add_page(self, group_count, group_ids, argument_blocks, position_count):
        self._grow(group_count)
        if self.merge_mode:
            state = argument_blocks[0].loaded()
            np.add.at(self.sums, group_ids, _numeric_input(state.field("sum"))[0])
            np.add.at(self.counts, group_ids, _numeric_input(state.field("count"))[0])
            return
        values, nulls = _numeric_input(argument_blocks[0])
        if nulls.any():
            keep = ~nulls
            group_ids = group_ids[keep]
            values = values[keep]
        np.add.at(self.sums, group_ids, values)
        self.counts[: self._size] += np.bincount(group_ids, minlength=self._size)

    def _arrays(self):
        empty = self.counts == 0
        # float64 / int64 is the division ``float / int`` does, elementwise.
        means = np.divide(
            self.sums, self.counts, out=np.zeros_like(self.sums), where=~empty
        )
        return means, empty

    def state_block(self, group_count, presto_type):
        self._grow(group_count)
        return RowBlock(
            AVG_INTERMEDIATE,
            {
                "sum": PrimitiveBlock(DOUBLE, self.sums),
                "count": PrimitiveBlock(BIGINT, self.counts),
            },
        )


def _nan_flags(blocks: Sequence[Block]) -> list[Block]:
    """One flag column per double argument: NaN is a value of its own to
    DISTINCT, where :func:`column_codes` reads it as NULL."""
    flags = []
    for block in blocks:
        if isinstance(block, DictionaryBlock):
            block = block.decode()
        if isinstance(block, PrimitiveBlock) and block.values.dtype.kind == "f":
            flags.append(PrimitiveBlock(BOOLEAN, np.isnan(block.values)))
    return flags


class DistinctAccumulator(GroupedAccumulator):
    """An aggregate over DISTINCT arguments, and approx_distinct's count.

    Every (group, argument) pair seen so far is kept, one row each, ahead
    of the batch.  One factorization of the two numbers the pairs; the
    rows that first show a pair feed the plain kernel, in arrival order.
    """

    def __init__(self, inner: GroupedAccumulator) -> None:
        self.inner = inner
        self._groups = EMPTY_POSITIONS
        self._arguments: list[Block] = []

    def add_page(self, group_count, group_ids, argument_blocks, position_count):
        blocks = [block.loaded() for block in argument_blocks]
        seen = len(self._groups)
        if seen:
            blocks = [
                concat_blocks(block.type, [stored, block])
                for stored, block in zip(self._arguments, blocks)
            ]
            group_ids = np.concatenate([self._groups, group_ids])
        pairs = [PrimitiveBlock(BIGINT, group_ids), *blocks, *_nan_flags(blocks)]
        _, reps, _ = _factorize(pairs)
        self._groups = group_ids[reps]
        self._arguments = [block.take(reps) for block in blocks]
        fresh = reps[seen:]  # the stored pairs come first, each its own
        self.inner.add_page(
            group_count, group_ids[fresh], [block.take(fresh) for block in blocks], len(fresh)
        )

    def final_block(self, group_count, presto_type):
        return self.inner.final_block(group_count, presto_type)


class ArrayAggAccumulator(GroupedAccumulator):
    """array_agg(x): the non-null arguments in arrival order, then one
    stable argsort by group into ``ArrayBlock`` offsets."""

    def __init__(self) -> None:
        self._groups: list[np.ndarray] = []
        self._values: list[Block] = []

    def add_page(self, group_count, group_ids, argument_blocks, position_count):
        block = argument_blocks[0].loaded()
        keep = np.flatnonzero(~block.null_mask())
        self._groups.append(group_ids[keep])
        self._values.append(block.take(keep))

    def final_block(self, group_count, presto_type):
        if not self._values:
            return block_from_values(presto_type, [[]] * group_count)
        groups = np.concatenate(self._groups)
        offsets = np.zeros(group_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(groups, minlength=group_count), out=offsets[1:])
        elements = concat_blocks(presto_type.element_type, self._values)
        return ArrayBlock(
            presto_type, offsets, elements.take(np.argsort(groups, kind="stable"))
        )


class PluginAccumulator(GroupedAccumulator):
    """An aggregate a plugin registers, outside the built-in seven.

    Its ``add_input`` is Python, so it runs once per row, as Presto's
    generated accumulators call a plugin's input function once per
    position.  The fragmenter never splits it, so it never merges states.
    """

    def __init__(self, impl) -> None:
        self.impl = impl
        self.states: list[Any] = []

    def _grow(self, group_count: int) -> None:
        missing = group_count - len(self.states)
        self.states.extend(self.impl.create_state() for _ in range(missing))

    def add_page(self, group_count, group_ids, argument_blocks, position_count):
        self._grow(group_count)
        states, add_input = self.states, self.impl.add_input
        columns = [block.loaded().to_list() for block in argument_blocks]
        rows = zip(*columns) if columns else repeat((), position_count)
        for group, arguments in zip(group_ids.tolist(), rows):
            states[group] = add_input(states[group], arguments)

    def final_block(self, group_count, presto_type):
        self._grow(group_count)
        return block_from_values(presto_type, list(map(self.impl.finalize, self.states)))


def make_accumulator(
    handle: FunctionHandle, distinct: bool, impl: AggregateFunction, merge_mode: bool
) -> GroupedAccumulator:
    """The array kernel of one aggregate; DISTINCT deduplicates ahead of it.

    ``impl`` is the registry's implementation of ``handle``; only a plugin
    aggregate runs it.
    """
    name = handle.name
    argument_types = [parse_type(t) for t in handle.argument_types]
    dtype = _numpy_dtype_for(argument_types[0]) if argument_types else None
    if name == "count":
        accumulator: GroupedAccumulator = CountAccumulator(bool(argument_types), merge_mode)
    elif name == "sum":
        accumulator = SumAccumulator(dtype)
    elif name in ("min", "max"):
        if dtype in (np.int64, np.float64):
            accumulator = MinMaxAccumulator(dtype, name == "min")
        else:
            accumulator = RankMinMaxAccumulator(name == "min")
    elif name == "avg":
        accumulator = AvgAccumulator(merge_mode)
    elif name == "approx_distinct":
        accumulator = DistinctAccumulator(CountAccumulator(True, False))
    elif name == "array_agg":
        accumulator = ArrayAggAccumulator()
    else:
        accumulator = PluginAccumulator(impl)
    return DistinctAccumulator(accumulator) if distinct else accumulator


class HashAggregation:
    """One grouped (or global) aggregation, fed batch by batch.

    A batch's key blocks factorize once (:func:`factorize_keys`),
    :class:`GroupIndex` maps them to global group ids, and each
    aggregate's accumulator (:func:`make_accumulator`) adds the batch's
    argument blocks.  Without keys there is one group, answered even when
    no row arrived.  In ``merge_mode`` each aggregate's one argument is a
    partial state.
    """

    def __init__(
        self,
        key_count: int,
        aggregates: Sequence[tuple[FunctionHandle, bool]],
        registry: FunctionRegistry,
        merge_mode: bool,
    ) -> None:
        self.key_count = key_count
        self.index = GroupIndex()
        self.accumulators = [
            make_accumulator(handle, distinct, registry.aggregate_for(handle), merge_mode)
            for handle, distinct in aggregates
        ]

    def add(
        self, keys: Sequence[Block], arguments: Sequence[Sequence[Block]], count: int
    ) -> None:
        """Fold one batch of ``count`` rows: its key blocks and, per
        aggregate, its argument blocks."""
        if not count:
            return
        if self.key_count:
            codes, distinct = factorize_keys(keys)
            group_ids = self.index.map_codes(codes, distinct)
            group_count = len(self.index)
        else:
            group_ids = np.zeros(count, dtype=np.int64)
            group_count = 1
        for accumulator, blocks in zip(self.accumulators, arguments):
            accumulator.add_page(group_count, group_ids, blocks, count)

    def page(self, types: Sequence[PrestoType], partial: bool = False) -> Page:
        """Every group's key beside its aggregates, in group-id order.

        ``types`` are the output columns', keys first.  A ``partial`` page
        holds the states a merge-mode aggregation reads (avg's
        ``AVG_INTERMEDIATE`` row), the final values otherwise.
        """
        key_count = self.key_count
        group_count = len(self.index) if key_count else 1
        out = list(self.index.key_blocks(types[:key_count])) if key_count else []
        for accumulator, presto_type in zip(self.accumulators, types[key_count:]):
            make = accumulator.state_block if partial else accumulator.final_block
            out.append(make(group_count, presto_type))
        return Page(out, group_count)


# ---------------------------------------------------------------------------
# Hash-join index
# ---------------------------------------------------------------------------


class JoinKeyIndex:
    """Code-space hash-join index: probe pages never materialize key tuples.

    The build side is factorized once into mixed-radix combined codes.
    Probe columns are mapped into the *same* per-column code space, and the
    combined probe codes into the build's sorted distinct codes, so an
    entire probe page resolves to build-row positions with a handful of
    array operations — no per-key Python dict lookups.  Each lookup is a
    gather through a table built once per index (:func:`dense_table`: one
    per int64 build column, one per re-compaction, one for the combined
    codes) while the keys' span is narrow, else ``np.searchsorted``
    against the sorted distinct values.
    """

    def __init__(
        self,
        column_uniques: list[np.ndarray],
        widths: list[int],
        compactions: list[tuple[int, np.ndarray]],
        code_values: np.ndarray,
        counts: np.ndarray,
        offsets: np.ndarray,
        flat: np.ndarray,
    ) -> None:
        self.column_uniques = column_uniques
        self.widths = widths
        self.compactions = compactions
        self.code_values = code_values  # sorted combined codes, null keys excluded
        self.counts = counts  # build rows per code
        self.offsets = offsets  # exclusive prefix sums into ``flat``
        self.flat = flat  # build positions grouped by code, insertion order
        self._column_tables = [
            _position_table(uniq) if uniq.dtype == np.int64 else None
            for uniq in column_uniques
        ]
        self._compaction_tables = [_position_table(table) for _, table in compactions]
        self._code_table = _position_table(code_values)

    def probe_codes(self, blocks: Sequence[Block], count: int) -> np.ndarray:
        """Map probe rows to build code space; ``-1`` means no match."""
        combined = np.zeros(count, dtype=np.int64)
        invalid = np.zeros(count, dtype=bool)
        for i, block in enumerate(blocks):
            for (at_column, table), dense in zip(self.compactions, self._compaction_tables):
                if at_column == i:
                    # A combination the build never held reads -1 and stays
                    # negative through every later column: no code matches.
                    combined = _positions(table, dense, combined)
            codes = self._map_column(i, block)
            invalid |= codes < 0
            combined = combined * self.widths[i] + (np.maximum(codes, -1) + 1)
        found = _positions(self.code_values, self._code_table, combined)
        return np.where(invalid, -1, found)

    def expand(self, probe_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cross probe rows with their matching build positions.

        Returns ``(probe_positions, build_positions)`` ordered exactly like
        the row-at-a-time loop: probe position ascending, build positions
        in insertion order within one probe row.  Negative probe codes
        (NULL or unmatched keys) match nothing.
        """
        if not len(probe_codes) or not len(self.flat):
            return EMPTY_POSITIONS, EMPTY_POSITIONS
        valid = probe_codes >= 0
        row_counts = np.where(
            valid, self.counts[np.where(valid, probe_codes, 0)], 0
        )
        total = int(row_counts.sum())
        if total == 0:
            return EMPTY_POSITIONS, EMPTY_POSITIONS
        probe_positions = np.repeat(
            np.arange(len(probe_codes), dtype=np.int64), row_counts
        )
        # Index-within-probe-row for every output row: counting resets at
        # each probe row's exclusive prefix sum.  Adding it to the code's
        # offset into ``flat`` reads the matches in insertion order, so no
        # sort is needed.
        row_starts = np.cumsum(row_counts) - row_counts
        within = np.arange(total, dtype=np.int64) - np.repeat(row_starts, row_counts)
        build_positions = self.flat[
            self.offsets[probe_codes[probe_positions]] + within
        ]
        return probe_positions, build_positions

    def _map_column(self, i: int, block: Block) -> np.ndarray:
        block = block.loaded()
        if isinstance(block, PrimitiveBlock) and block.values.dtype != object:
            values = block.values
            nulls = block.null_mask()
            if np.issubdtype(values.dtype, np.floating):
                # NaN probe keys canonicalize to null: they never match.
                nulls = nulls | np.isnan(values)
            return self._match_values(i, values, nulls)
        # Strings, dictionaries, objects and arrays: factorize the probe page
        # once, match only its distinct values against the build side, then
        # gather per row (code -1, a NULL key, reads the trailing -1).
        local_codes, local_uniques = column_codes(block)
        mapped = self._match_values(
            i, local_uniques, np.zeros(len(local_uniques), dtype=bool)
        )
        return np.append(mapped, -1)[local_codes]

    def _match_values(
        self, i: int, values: np.ndarray, nulls: np.ndarray
    ) -> np.ndarray:
        dense = self._column_tables[i]
        if dense is not None and values.dtype == np.int64:
            codes = dense_lookup(*dense, values)
            if nulls.any():
                codes[nulls] = -1
            return codes
        uniq = self.column_uniques[i]
        codes = np.full(len(values), -1, dtype=np.int64)
        non_null = ~nulls
        candidates = values[non_null]
        try:
            codes[non_null] = _positions(uniq, None, candidates)
        except TypeError:
            # Values that do not compare with the build side's (ints beside
            # strings, arrays holding NULLs): look each distinct one up.
            position = {_hashable(v): c for c, v in enumerate(uniq.tolist())}
            codes[non_null] = [position.get(_hashable(v), -1) for v in candidates.tolist()]
        return codes


def _position_table(sorted_keys: np.ndarray) -> Optional[tuple[int, np.ndarray]]:
    """:func:`dense_table` from each of the sorted distinct int64 keys to
    its position among them, ``-1`` elsewhere."""
    return dense_table(sorted_keys, np.arange(len(sorted_keys), dtype=np.int64), -1)


def _positions(
    sorted_keys: np.ndarray, dense: Optional[tuple[int, np.ndarray]], values: np.ndarray
) -> np.ndarray:
    """Each value's position among ``sorted_keys``, ``-1`` where it is
    absent: a gather through ``dense`` (int64 values), else
    ``np.searchsorted``."""
    if dense is not None:
        return dense_lookup(*dense, values)
    if not len(sorted_keys):
        return np.full(len(values), -1, dtype=np.int64)
    idx = np.clip(np.searchsorted(sorted_keys, values), 0, len(sorted_keys) - 1)
    return np.where(sorted_keys[idx] == values, idx, -1)


def build_join_index(blocks: Sequence[Block]) -> JoinKeyIndex:
    """Factorize the build side of a hash join into a :class:`JoinKeyIndex`.

    Build rows whose key contains NULL are excluded (SQL join semantics).
    """
    columns = [column_codes(block) for block in blocks]
    n = len(columns[0][0])
    combined = np.zeros(n, dtype=np.int64)
    null_row = np.zeros(n, dtype=bool)
    widths: list[int] = []
    compactions: list[tuple[int, np.ndarray]] = []
    radix = 1
    for i, (codes, uniq) in enumerate(columns):
        width = len(uniq) + 1  # +1 slot so null (-1) encodes as 0
        if radix > _MAX_RADIX // max(width, 1):
            # Same overflow guard as factorize_keys, but the compaction
            # table is kept so probe pages can replay the mapping.
            table = np.unique(combined)
            compactions.append((i, table))
            combined = np.searchsorted(table, combined).astype(np.int64, copy=False)
            radix = len(table)
        null_row |= codes < 0
        combined = combined * width + (codes + 1)
        widths.append(width)
        radix *= width
    valid_positions = np.flatnonzero(~null_row)
    code_values, inverse = _unique(combined[valid_positions])
    # Stable sort by code keeps ascending original positions within each
    # code — exactly the dict-insertion order of the row-at-a-time build.
    order = np.argsort(inverse, kind="stable")
    flat = valid_positions[order]
    counts = np.bincount(inverse, minlength=len(code_values)).astype(np.int64)
    offsets = np.zeros(len(code_values) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return JoinKeyIndex(
        [uniq for _, uniq in columns],
        widths,
        compactions,
        code_values,
        counts,
        offsets,
        flat,
    )


def take_nullable(block: Block, positions: np.ndarray, null_mask: np.ndarray) -> Block:
    """``block.take`` where ``null_mask`` rows become NULL (outer-join pad)."""
    block = block.loaded()
    safe = np.where(null_mask, 0, positions)
    if isinstance(block, PrimitiveBlock):
        if block.position_count == 0:
            # Build side is empty: every row is padding.
            values = np.zeros(len(positions), dtype=block.values.dtype)
            if values.dtype == object:
                values[:] = None
            return PrimitiveBlock(block.type, values, np.ones(len(positions), bool))
        values = block.values[safe]
        nulls = block.null_mask()[safe] | null_mask
        if values.dtype == object and null_mask.any():
            values = values.copy()
            values[null_mask] = None
        return PrimitiveBlock(block.type, values, nulls)
    if isinstance(block, VarcharBlock):
        if block.position_count == 0:
            return VarcharBlock(
                block.type,
                np.empty(0, dtype=np.uint8),
                np.zeros(len(positions) + 1, dtype=np.int64),
                np.ones(len(positions), dtype=bool),
            )
        taken = block.take(safe)
        nulls = taken.null_mask() | null_mask
        return VarcharBlock(block.type, taken.data, taken.offsets, nulls)
    if isinstance(block, DictionaryBlock):
        if block.position_count == 0:
            ids = np.full(len(positions), -1, dtype=np.int64)
        else:
            ids = np.where(null_mask, -1, block.ids[safe])
        return DictionaryBlock(block.dictionary, ids)
    values = [
        None if null_mask[i] else block.get(int(positions[i]))
        for i in range(len(positions))
    ]
    return block_from_values(block.type, values)


# ---------------------------------------------------------------------------
# Sort ranks
# ---------------------------------------------------------------------------


def sort_order(blocks: Sequence[Block], ascending_flags: Sequence[bool]) -> np.ndarray:
    """Stable row order for multi-key ORDER BY.

    Each key column factorizes to dense ranks; nulls rank above every
    value, so after direction negation they sort last ascending and
    first descending.
    """
    rank_keys = []
    for block, ascending in zip(blocks, ascending_flags):
        # Only the number of distinct values is needed, not the values.
        codes, uniques = column_codes(block)
        ranks = np.where(codes < 0, len(uniques), codes)
        rank_keys.append(ranks if ascending else -ranks)
    # np.lexsort treats its *last* key as primary.
    return np.lexsort(rank_keys[::-1]).astype(np.int64, copy=False)


def top_positions(
    blocks: Sequence[Block], ascending_flags: Sequence[bool], count: int
) -> np.ndarray:
    """``sort_order(blocks, ascending_flags)[:count]``, exactly.

    When the first key is a numeric column and ``count`` cuts rows off,
    only candidates are sorted: the NULL / NaN rows if they alone fill the
    cut (they rank after every value ascending, before every value
    descending), else every row that beats or ties the ``need``-th
    non-null value ``np.partition`` finds.  Ties at the cut-off all stay,
    so the candidates hold the first ``count`` rows of the full order;
    they keep arrival order, so the stable sort over them orders those
    rows as the full sort does.  Any other first key sorts every row.
    """
    n = blocks[0].position_count
    if count <= 0:
        return EMPTY_POSITIONS
    first = blocks[0].loaded()
    if not (
        count < n
        and isinstance(first, PrimitiveBlock)
        and first.values.dtype.kind in "iuf"
    ):
        return sort_order(blocks, ascending_flags)[:count]
    values = first.values
    nulls = first.null_mask()
    if values.dtype.kind == "f":
        nulls = nulls | np.isnan(values)  # NaN ranks as NULL (column_codes)
    present = values[~nulls]
    if ascending_flags[0]:
        if len(present) < count:
            return sort_order(blocks, ascending_flags)[:count]
        cutoff = np.partition(present, count - 1)[count - 1]
        candidates = ~nulls & (values <= cutoff)
    else:
        need = count - (n - len(present))
        if need <= 0:
            candidates = nulls
        else:
            cutoff = np.partition(present, len(present) - need)[len(present) - need]
            candidates = nulls | (values >= cutoff)
    rows = np.flatnonzero(candidates)
    order = sort_order([block.take(rows) for block in blocks], ascending_flags)
    return rows[order[:count]]
