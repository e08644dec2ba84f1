"""Vectorized operator kernels: the engine-side array hot path.

The block layer (section III: Presto "processes a bunch of in memory
encoded column values vectorized, instead of row by row") keeps column
values in numpy storage, but the relational operators downstream used to
fall back to ``block.get(position)`` loops over Python tuples.  This
module is the kernel layer that keeps them columnar:

- **Group-key factorization** (:func:`factorize_keys`): encode the key
  columns of a batch into one dense ``int64`` code array plus the
  distinct keys, one block per key column (``block.take`` of each key's
  first row: no key ever becomes a Python tuple).  Dictionary-encoded
  columns factorize directly on their id arrays without decoding;
  primitive columns go through ``np.unique``; offsets-based
  :class:`VarcharBlock` columns factorize on padded byte views (no
  per-element Python compares); legacy object-dtype (varchar) columns get
  a null-safe ``np.unique`` over the non-null values.  Unsupported block
  kinds (row, array, map, mixed-type object columns) return ``None`` and
  the caller falls back to the retained row-at-a-time reference path.
  :class:`GroupIndex` keeps those key blocks from the first batch to the
  output page; its tuple-keyed dict exists only once a second batch has
  to be matched against the first.
- **Grouped accumulators**: count/sum/min/max/avg accumulate per group
  code with ``np.bincount`` / ``np.add.at`` / ``np.minimum.at`` instead
  of a per-row dict of Python states, and hand their states and final
  values back as ``(values, nulls)`` arrays that become blocks as they
  are.  ``np.add.at`` applies updates in row order, so float results are
  bit-identical to the row loop.  The :class:`GenericAccumulator` wraps
  any aggregate's create/add/merge state machine for the cases the array
  kernels do not cover (DISTINCT, object-dtype inputs, avg in merge mode)
  and is also the differential reference.
- **Hash-join index** (:class:`JoinKeyIndex`): the build side factorizes
  once; probe pages map into the same code space and expand into the
  ``(probe_positions, build_positions)`` index pair in probe-row order.
- **Sort ranks** (:func:`sort_order`): per-key rank arrays (nulls
  ranked last ascending, first descending — matching ``_SortKey``) fed
  to a stable ``np.lexsort``.

NaN keys canonicalize to the null sentinel before factorization (NaN is
not equal to itself, so ``np.unique`` grouping and dict-keyed grouping
would otherwise disagree); :func:`canonical_key` applies the same rule to
the row-at-a-time reference paths, so both lanes treat a NaN key exactly
like SQL NULL.  NULL keys are handled exactly.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.common.errors import InvalidValueError
from repro.common.hashing import stable_hash, stable_hash_keys
from repro.core.blocks import (
    BLOCK_VALUE_ERRORS,
    Block,
    DictionaryBlock,
    PrimitiveBlock,
    VarcharBlock,
    _numpy_dtype_for,
    block_from_values,
    masked_tolist,
)
from repro.core.page import Page, concat_pages
from repro.core.types import PrestoType, parse_type

EMPTY_POSITIONS = np.empty(0, dtype=np.int64)

# Mixed-radix key codes re-compact through ``np.unique`` before their
# product could leave int64.
_MAX_RADIX = 2**62

# Rows one hash-stage task should own (the scheduler runs ceil(observed
# rows / target) of them), and so the rows hash aggregation factorizes at
# once: a FINAL task's whole input is one batch.
TARGET_PARTITION_ROWS = 65_536


class FallbackNeeded(Exception):
    """Raised by a vector kernel when a page needs the row-at-a-time path."""


def canonical_key(value: Any) -> Any:
    """Canonical form of one key component: NaN becomes the null sentinel.

    Every row-at-a-time reference path that builds key tuples (group by,
    hash join, partitioning) routes values through here so the dict-keyed
    lanes agree with the factorized lanes, where NaN maps to code ``-1``.
    """
    if isinstance(value, float) and value != value:
        return None
    return value


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


def column_codes(block: Block) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Factorize one column into ``(codes, uniques)``.

    ``codes`` is an int64 array with ``-1`` marking nulls; ``uniques`` is
    the ascending sorted ndarray of the distinct non-null values, so
    ``uniques[c]`` is the value for code ``c`` and ``uniques.tolist()``
    the distinct values as Python scalars.  Returns ``None`` when the
    block kind or value mix is unsupported.
    """
    block = block.loaded()
    if isinstance(block, DictionaryBlock):
        return _dictionary_codes(block)
    if isinstance(block, VarcharBlock):
        return block.factorize()
    if not isinstance(block, PrimitiveBlock):
        return None
    values = block.values
    nulls = block.null_mask()
    if np.issubdtype(values.dtype, np.floating):
        # NaN keys canonicalize to the null sentinel (module docstring).
        nulls = nulls | np.isnan(values)
    if values.dtype == object or nulls.any():
        non_null = ~nulls
        try:
            uniq, inverse = np.unique(values[non_null], return_inverse=True)
        except TypeError:
            return None  # mixed or non-orderable object values
        codes = np.full(len(values), -1, dtype=np.int64)
        codes[non_null] = inverse
    else:
        try:
            uniq, inverse = np.unique(values, return_inverse=True)
        except TypeError:
            return None
        codes = inverse.astype(np.int64, copy=False)
    return codes, uniq


def _dictionary_codes(block: DictionaryBlock) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Factorize on the id array without decoding the column.

    The dictionary itself is deduplicated defensively (a dictionary with
    repeated values must not split one group in two): the small
    dictionary is factorized once, then the remap table is applied to
    the full id array with one vectorized gather.
    """
    raw = column_codes(block.dictionary)
    if raw is None:
        return None
    dict_codes, uniq = raw
    # remap[dict_id] -> code; the extra trailing slot catches id == -1.
    remap = np.empty(len(dict_codes) + 1, dtype=np.int64)
    remap[: len(dict_codes)] = dict_codes
    remap[len(dict_codes)] = -1
    ids = block.ids
    safe_ids = np.where(ids < 0, len(dict_codes), ids)
    return remap[safe_ids], uniq


def _factorize(
    blocks: Sequence[Block],
) -> Optional[tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]]:
    """Dense group codes, one representative row per group, per-column codes.

    ``group_codes[row]`` numbers the distinct keys in first-appearance
    order and ``reps[group]`` is the first row holding that key;
    ``columns`` are the :func:`column_codes` pairs the keys decode
    from.  Columns are combined with mixed-radix arithmetic, re-compacting
    through ``np.unique`` whenever the radix product could overflow int64.
    Returns ``None`` when any column is unsupported.
    """
    if not blocks:
        return None
    columns = []
    for block in blocks:
        factorized = column_codes(block)
        if factorized is None:
            return None
        columns.append(factorized)
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
    if radix <= 65536:
        # Small key domain: dense first-occurrence table, no sort of the
        # row codes.  Reversed assignment leaves each slot holding the
        # SMALLEST row index that wrote it.
        first = np.full(radix, -1, dtype=np.int64)
        first[combined[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
        values = np.flatnonzero(first >= 0)
        appearance = np.argsort(first[values], kind="stable")  # #distinct only
        rank_table = np.zeros(radix, dtype=np.int64)
        rank_table[values[appearance]] = np.arange(len(values), dtype=np.int64)
        group_codes = rank_table[combined]
        reps = first[values][appearance]
    else:
        _, first_rows, inverse = np.unique(
            combined, return_index=True, return_inverse=True
        )
        # Relabel so codes follow first-appearance order (np.unique sorts
        # by value); group output order must match the row-at-a-time
        # reference.
        appearance = np.argsort(first_rows, kind="stable")
        rank = np.empty(len(appearance), dtype=np.int64)
        rank[appearance] = np.arange(len(appearance), dtype=np.int64)
        group_codes = rank[inverse]
        reps = first_rows[appearance]
    return group_codes, reps, columns


def _key_tuples(
    columns: Sequence[tuple[np.ndarray, np.ndarray]], reps: np.ndarray
) -> Iterator[tuple]:
    """Key tuples of the rows ``reps``: one gather per column, one ``zip``.

    Values leave numpy through ``tolist()``, so numeric components are
    Python scalars (``int``, never ``np.int64``); an object column's
    elements pass through as they are.  ``None`` at nulls.
    """
    gathered = []
    for codes, uniq in columns:
        rep_codes = codes[reps]
        if len(rep_codes) and rep_codes.min() < 0:
            # One trailing None slot: code -1 indexes it.
            table = np.empty(len(uniq) + 1, dtype=object)
            table[:-1] = uniq
            gathered.append(table[rep_codes].tolist())
        else:
            gathered.append(uniq[rep_codes].tolist())
    return zip(*gathered)


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
    nulls = taken.null_mask()
    if isinstance(taken, VarcharBlock):
        return VarcharBlock(
            taken.type, taken.data, taken.offsets, nulls if nulls.any() else None
        )
    if np.issubdtype(taken.values.dtype, np.floating):
        nulls = nulls | np.isnan(taken.values)
    return _array_block(taken.type, taken.values, nulls)


def factorize_keys(
    blocks: Sequence[Block],
) -> Optional[tuple[np.ndarray, list[Block]]]:
    """Encode multi-column row keys into dense int64 group codes.

    Returns ``(codes, keys)`` where ``keys`` holds one block per key
    column and row ``codes[row]`` of them is that row's key: the distinct
    keys in first-appearance order (NULL where the key is NULL or NaN;
    pairwise unequal).  Returns ``None`` when any column is unsupported
    so the caller can take the row-at-a-time path.
    """
    factorized = _factorize(blocks)
    if factorized is None:
        return None
    group_codes, reps, _ = factorized
    return group_codes, [_distinct_key_block(block.loaded(), reps) for block in blocks]


def _positive_zero(value: Any) -> Any:
    """``-0.0`` equals ``0.0`` in SQL but prints differently: hash it as zero.

    Takes one key component or a column's distinct values.  IEEE addition:
    ``-0.0 + 0.0`` is ``+0.0``, every other float is itself.
    """
    if isinstance(value, float) or (
        isinstance(value, np.ndarray) and np.issubdtype(value.dtype, np.floating)
    ):
        return value + 0.0
    return value


def partition_assignments(blocks: Sequence[Block], n_partitions: int) -> np.ndarray:
    """Per-row partition indexes for a hash-partitioned exchange.

    ``out[row] == stable_hash(key_tuple) % n_partitions`` where the key
    tuple holds :func:`canonical_key` components with negative zero
    folded onto zero, so keys that are one SQL group share a partition.
    Vectorized path: the key columns factorize into dense codes, one hash
    is computed per *distinct* key tuple, and the per-row assignment is a
    single gather.  Unsupported key kinds hash row tuples directly.  The
    CRC32-based hash makes placement identical across processes (no
    ``PYTHONHASHSEED`` dependence).
    """
    if not blocks:
        raise ValueError("partitioning requires at least one key column")
    count = blocks[0].position_count
    factorized = _factorize(blocks)
    if factorized is None:
        loaded = [b.loaded() for b in blocks]
        out = np.empty(count, dtype=np.int64)
        for position in range(count):
            key = tuple(
                _positive_zero(canonical_key(block.get(position))) for block in loaded
            )
            out[position] = stable_hash(key) % n_partitions
        return out
    codes, reps, columns = factorized
    if not len(reps):
        return np.zeros(count, dtype=np.int64)
    columns = [(column, _positive_zero(uniq)) for column, uniq in columns]
    hashes = np.fromiter(
        stable_hash_keys(_key_tuples(columns, reps)), dtype=np.int64, count=len(reps)
    )
    return (hashes % n_partitions)[codes]


class GroupIndex:
    """Distinct group keys, numbered in first-seen order and kept as blocks.

    A batch factorizes locally (:func:`factorize_keys`) and hands over its
    distinct keys as one block per key column; they stay blocks until
    :meth:`key_blocks` lays them into the output page.  The first batch's
    codes are the group ids.  Only when a second batch has to be matched
    against what is stored does a ``key tuple -> id`` dict get built, from
    the stored blocks, and from then on each batch's *distinct* keys go
    through it; :meth:`map_rows` is the one place a tuple is made per row.
    """

    def __init__(self) -> None:
        # One entry per batch that minted groups: its new keys, a block
        # per key column.
        self._segments: list[list[Block]] = []
        self._count = 0
        self._ids: Optional[dict[tuple, int]] = None

    def __len__(self) -> int:
        return self._count

    def _lookup(self) -> dict[tuple, int]:
        if self._ids is None:
            self._ids = dict(
                zip(
                    (key for segment in self._segments for key in _block_rows(segment)),
                    range(self._count),
                )
            )
        return self._ids

    def _append(self, keys: Sequence[Block]) -> None:
        self._segments.append(list(keys))
        self._count += keys[0].position_count

    def map_codes(self, codes: np.ndarray, keys: Sequence[Block]) -> np.ndarray:
        """Translate batch-local codes into global group ids.

        ``keys`` are pairwise unequal (:func:`factorize_keys`), so the
        ones not seen before take consecutive new ids in batch order.
        """
        if not self._count:
            self._append(keys)
            return codes
        ids = self._lookup()
        distinct = list(_block_rows(keys))
        remap = np.fromiter(
            map(ids.get, distinct, repeat(-1)), dtype=np.int64, count=len(distinct)
        )
        unseen = np.flatnonzero(remap < 0)
        if len(unseen):
            first = self._count
            if len(unseen) < len(distinct):
                distinct = [distinct[i] for i in unseen.tolist()]
                keys = [block.take(unseen) for block in keys]
            ids.update(zip(distinct, range(first, first + len(distinct))))
            self._append(keys)
            remap[unseen] = np.arange(first, first + len(distinct), dtype=np.int64)
        return remap[codes]

    def map_rows(self, key_blocks: Sequence[Block], count: int) -> np.ndarray:
        """Row-at-a-time fallback for unsupported key block kinds."""
        group_ids = np.empty(count, dtype=np.int64)
        ids = self._lookup()
        minted: list[tuple] = []
        for position in range(count):
            key = tuple(canonical_key(block.get(position)) for block in key_blocks)
            group = ids.get(key)
            if group is None:
                group = ids[key] = self._count + len(minted)
                minted.append(key)
            group_ids[position] = group
        if minted:
            self._append(
                [
                    block_from_values(block.type, column)
                    for block, column in zip(key_blocks, zip(*minted))
                ]
            )
        return group_ids

    def key_blocks(self, types: Sequence[PrestoType]) -> list[Block]:
        """Every group's key, one block per key column, in group-id order."""
        if len(self._segments) == 1:
            return self._segments[0]
        return concat_pages(types, [Page(segment) for segment in self._segments]).blocks


def _block_rows(blocks: Sequence[Block]) -> Iterator[tuple]:
    """Row tuples of parallel blocks: one ``to_list`` each, one ``zip``."""
    return zip(*(block.to_list() for block in blocks))


# ---------------------------------------------------------------------------
# Grouped accumulators
# ---------------------------------------------------------------------------


def _numeric_input(block: Block) -> tuple[np.ndarray, np.ndarray]:
    """Values + null mask of a numeric column, or FallbackNeeded."""
    block = block.loaded()
    if isinstance(block, DictionaryBlock):
        block = block.decode()
    if not isinstance(block, PrimitiveBlock) or block.values.dtype == object:
        raise FallbackNeeded
    return block.values, block.null_mask()


class GroupedAccumulator:
    """One aggregate accumulated across batches, keyed by dense group ids."""

    vectorized = True

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
        """Every group's partial state, for a FINAL step to merge."""
        raise NotImplementedError

    def to_states(self) -> list:
        """Convert array state to per-group Python states (for fallback)."""
        raise NotImplementedError


_SCALAR_STATE_TYPES = (int, float, str, bool, bytes, type(None))


def states_block(presto_type: PrestoType, states: Sequence[Any]) -> Block:
    """Partial states as a block, tolerating non-scalar states.

    States that are not scalars (avg's (sum, count), approx_distinct's
    set) travel in object storage under the declared output type.
    """
    # One test per distinct type in the column, not one per group.
    if all(issubclass(t, _SCALAR_STATE_TYPES) for t in set(map(type, states))):
        try:
            return block_from_values(presto_type, states)
        except BLOCK_VALUE_ERRORS:
            pass
    return PrimitiveBlock(presto_type, _object_array(states))


def _object_array(values: Sequence[Any]) -> np.ndarray:
    # Element by element: numpy would broadcast equal-length tuples.
    return np.fromiter(values, dtype=object, count=len(values))


class GenericAccumulator(GroupedAccumulator):
    """Row-at-a-time reference: drives any AggregateFunction state machine.

    Handles DISTINCT, merge (FINAL) mode, and object-dtype inputs; also
    the target the vector accumulators spill into when a later batch turns
    out not to be vectorizable.
    """

    vectorized = False

    def __init__(
        self,
        impl,
        distinct: bool,
        merge_mode: bool,
        initial_states: Optional[list] = None,
    ) -> None:
        self.impl = impl
        self.distinct = distinct
        self.merge_mode = merge_mode
        self.states: list = list(initial_states) if initial_states else []
        self.seen: list[set] = [set() for _ in self.states] if distinct else []

    def _grow(self, group_count: int) -> None:
        while len(self.states) < group_count:
            self.states.append(self.impl.create_state())
            if self.distinct:
                self.seen.append(set())

    def add_page(self, group_count, group_ids, argument_blocks, position_count):
        self._grow(group_count)
        impl = self.impl
        states = self.states
        blocks = [b.loaded() for b in argument_blocks]
        for position in range(position_count):
            group = int(group_ids[position])
            arguments = tuple(block.get(position) for block in blocks)
            if self.distinct:
                if arguments in self.seen[group]:
                    continue
                self.seen[group].add(arguments)
            if self.merge_mode:
                states[group] = impl.merge(states[group], arguments[0])
            else:
                states[group] = impl.add_input(states[group], arguments)

    def final_block(self, group_count, presto_type):
        self._grow(group_count)
        return block_from_values(
            presto_type, [self.impl.finalize(state) for state in self.states]
        )

    def state_block(self, group_count, presto_type):
        self._grow(group_count)
        return states_block(presto_type, self.states)

    def to_states(self):
        return list(self.states)


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

    # count, sum, min and max finalize to their state.
    state_block = final_block

    def to_states(self):
        return masked_tolist(*self._arrays())


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
                # The reference merge raises on a null partial count; fall
                # back so behavior (including the error) matches exactly.
                raise FallbackNeeded
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
        if not np.can_cast(values.dtype, self.sums.dtype, casting="same_kind"):
            raise FallbackNeeded
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
    """min(x) / max(x) over numeric inputs via ufunc.at."""

    def __init__(self, dtype, is_min: bool) -> None:
        super().__init__()
        self.is_min = is_min
        if np.issubdtype(dtype, np.bool_):
            raise FallbackNeeded
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
        if not np.can_cast(values.dtype, self.best.dtype, casting="same_kind"):
            raise FallbackNeeded
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


class AvgAccumulator(_ArrayAccumulator):
    """avg(x): float64 running sums + int64 counts, row-ordered adds."""

    def __init__(self) -> None:
        super().__init__()
        self.sums = np.zeros(0, dtype=np.float64)
        self.counts = np.zeros(0, dtype=np.int64)

    def _grow_arrays(self, old, new):
        self.sums = _extended(self.sums, new, 0.0)
        self.counts = _extended(self.counts, new, 0)

    def add_page(self, group_count, group_ids, argument_blocks, position_count):
        self._grow(group_count)
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
        # (sum, count) pairs, in object storage under the declared type.
        self._grow(group_count)
        return PrimitiveBlock(presto_type, _object_array(self.to_states()))

    def to_states(self):
        return list(zip(self.sums.tolist(), self.counts.tolist()))


def make_accumulator(aggregation, impl, merge_mode: bool) -> GroupedAccumulator:
    """Pick the vector kernel for one aggregate, or the generic reference.

    DISTINCT aggregates, object-dtype (varchar/date) inputs, avg in merge
    mode, and any function outside count/sum/min/max/avg always use
    :class:`GenericAccumulator`, whose semantics are the row-at-a-time
    reference by construction.
    """
    if aggregation.distinct:
        return GenericAccumulator(impl, True, merge_mode)
    name = impl.name
    argument_types = [parse_type(t) for t in aggregation.function_handle.argument_types]
    dtypes = [_numpy_dtype_for(t) for t in argument_types]
    try:
        if name == "count" and len(dtypes) <= 1:
            return CountAccumulator(bool(dtypes), merge_mode)
        if len(dtypes) == 1 and dtypes[0] is not object:
            if name == "sum":
                return SumAccumulator(dtypes[0])
            if name in ("min", "max"):
                return MinMaxAccumulator(dtypes[0], name == "min")
            if name == "avg" and not merge_mode:
                return AvgAccumulator()
    except FallbackNeeded:
        pass
    return GenericAccumulator(impl, aggregation.distinct, merge_mode)


# ---------------------------------------------------------------------------
# Hash-join index
# ---------------------------------------------------------------------------


class JoinKeyIndex:
    """Code-space hash-join index: probe pages never materialize key tuples.

    The build side is factorized once into mixed-radix combined codes.
    Probe columns are mapped into the *same* per-column code space with
    ``np.searchsorted`` against the build side's sorted distinct values,
    so an entire probe page resolves to build-row positions with a
    handful of array operations — no per-key Python dict lookups.
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

    def probe_codes(self, blocks: Sequence[Block], count: int) -> np.ndarray:
        """Map probe rows to build code space; ``-1`` means no match.

        Raises :class:`FallbackNeeded` when a probe column holds values
        that cannot be compared against the build side's.
        """
        combined = np.zeros(count, dtype=np.int64)
        invalid = np.zeros(count, dtype=bool)
        for i, block in enumerate(blocks):
            for at_column, table in self.compactions:
                if at_column == i:
                    idx = np.searchsorted(table, combined)
                    idx = np.clip(idx, 0, max(len(table) - 1, 0))
                    if len(table):
                        invalid |= table[idx] != combined
                    else:
                        invalid[:] = True
                    combined = idx
            codes = self._map_column(i, block)
            invalid |= codes < 0
            combined = combined * self.widths[i] + (np.maximum(codes, -1) + 1)
        if not len(self.code_values):
            return np.full(count, -1, dtype=np.int64)
        idx = np.searchsorted(self.code_values, combined)
        idx = np.clip(idx, 0, len(self.code_values) - 1)
        found = (self.code_values[idx] == combined) & ~invalid
        return np.where(found, idx, -1)

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
        if isinstance(block, DictionaryBlock):
            dict_codes = self._map_flat(i, block.dictionary)
            lookup = np.empty(len(dict_codes) + 1, dtype=np.int64)
            lookup[: len(dict_codes)] = dict_codes
            lookup[len(dict_codes)] = -1  # id == -1 (null row)
            ids = block.ids
            safe_ids = np.where(ids < 0, len(dict_codes), ids)
            return lookup[safe_ids]
        return self._map_flat(i, block)

    def _map_flat(self, i: int, block: Block) -> np.ndarray:
        if isinstance(block, VarcharBlock):
            # Factorize the probe page once, match only its distinct
            # strings against the build side, then gather per row.
            local_codes, local_uniques = block.factorize()
            mapped = self._match_values(
                i, local_uniques, np.zeros(len(local_uniques), dtype=bool)
            )
            lookup = np.empty(len(local_uniques) + 1, dtype=np.int64)
            lookup[: len(local_uniques)] = mapped
            lookup[len(local_uniques)] = -1
            safe = np.where(local_codes < 0, len(local_uniques), local_codes)
            return lookup[safe]
        if not isinstance(block, PrimitiveBlock):
            raise FallbackNeeded("unsupported probe key block")
        values = block.values
        nulls = block.null_mask()
        if np.issubdtype(values.dtype, np.floating):
            # NaN probe keys canonicalize to null: they never match.
            nulls = nulls | np.isnan(values)
        return self._match_values(i, values, nulls)

    def _match_values(
        self, i: int, values: np.ndarray, nulls: np.ndarray
    ) -> np.ndarray:
        uniq = self.column_uniques[i]
        codes = np.full(len(values), -1, dtype=np.int64)
        non_null = ~nulls
        candidates = values[non_null]
        if not len(uniq) or not len(candidates):
            return codes
        try:
            idx = np.searchsorted(uniq, candidates)
        except TypeError:
            raise FallbackNeeded("unorderable probe key values")
        idx = np.clip(idx, 0, len(uniq) - 1)
        try:
            matched = uniq[idx] == candidates
        except TypeError:
            raise FallbackNeeded("incomparable probe key values")
        codes[non_null] = np.where(matched, idx, -1)
        return codes


def build_join_index(blocks: Sequence[Block]) -> Optional[JoinKeyIndex]:
    """Factorize the build side of a hash join into a :class:`JoinKeyIndex`.

    Returns ``None`` when a key column's block kind or value mix is
    unsupported, in which case the caller takes the row-at-a-time path.
    Build rows whose key contains NULL are excluded (SQL join semantics).
    """
    columns = []
    for block in blocks:
        raw = column_codes(block)
        if raw is None:
            return None
        columns.append(raw)
    if not columns:
        return None
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
    code_values, inverse = np.unique(combined[valid_positions], return_inverse=True)
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
            return VarcharBlock.all_null(len(positions), block.type)
        taken = block.take(safe)
        nulls = taken.null_mask() | null_mask
        return VarcharBlock(block.type, taken.data, taken.offsets, nulls)
    if isinstance(block, DictionaryBlock):
        if block.position_count == 0:
            ids = np.full(len(positions), -1, dtype=np.int64)
        else:
            ids = np.where(null_mask, -1, block.ids[safe])
        return DictionaryBlock(block.dictionary, ids)
    from repro.core.blocks import block_from_values

    values = [
        None if null_mask[i] else block.get(int(positions[i]))
        for i in range(len(positions))
    ]
    return block_from_values(block.type, values)


# ---------------------------------------------------------------------------
# Sort ranks
# ---------------------------------------------------------------------------


def sort_order(
    blocks: Sequence[Block], ascending_flags: Sequence[bool]
) -> Optional[np.ndarray]:
    """Stable row order for multi-key ORDER BY, or ``None`` to fall back.

    Each key column factorizes to dense ranks; nulls rank above every
    value, so after direction negation they sort last ascending and
    first descending — exactly the ``_SortKey`` total order.
    """
    rank_keys = []
    for block, ascending in zip(blocks, ascending_flags):
        # Only the number of distinct values is needed, not the values.
        factorized = column_codes(block)
        if factorized is None:
            return None
        codes, uniques = factorized
        ranks = np.where(codes < 0, len(uniques), codes)
        rank_keys.append(ranks if ascending else -ranks)
    if not rank_keys:
        return None  # nothing to rank by: arrival order is the caller's
    # np.lexsort treats its *last* key as primary.
    return np.lexsort(rank_keys[::-1]).astype(np.int64, copy=False)
