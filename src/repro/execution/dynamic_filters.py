"""Runtime dynamic filters: build-side summaries pushed into probe scans.

When a hash join's build side finishes, its join-key values are known
exactly — before the probe side has scanned a single row (the fragmenter
schedules the build fragment strictly before the fragment holding the
join).  A :class:`DynamicFilter` summarizes those values (min/max, the
exact value set while small, a deterministic bloom filter otherwise) and
the scheduler pushes it into the probe-side table scan, where it is
applied at three granularities:

- **split level** — conjuncts over partition keys prune whole partitions
  at split enumeration (via the serialized expression form);
- **row-group level** — the parquet reader checks footer min/max and
  dictionaries against the expression form and skips groups;
- **row level** — every surviving page is masked against the full filter
  (including the bloom summary the expression form cannot carry).

Dynamic filters are only attached to join types that drop probe rows
lacking a build-side match (``inner`` and ``right``); ``left``/``full``
joins preserve unmatched probe rows, so filtering their probe side would
change results.  NULL probe keys never match in those join types either,
so the filter drops them.

Everything here is deterministic: the bloom filter hashes through the
CRC32-based :func:`repro.common.hashing.stable_hash`, so a retried task
— or a re-run of the whole query — sees the identical filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.common.hashing import stable_hash
from repro.core.blocks import Block, PrimitiveBlock
from repro.core.expressions import (
    CallExpression,
    ConstantExpression,
    RowExpression,
    SpecialForm,
    SpecialFormExpression,
    VariableReferenceExpression,
    combine_conjuncts,
)
from repro.core.types import BOOLEAN, PrestoType
from repro.execution.kernels import column_codes, dense_lookup, dense_table

# Keep the exact value set up to this many distinct build keys; beyond it
# the filter degrades to min/max + bloom.
DEFAULT_EXACT_VALUES_LIMIT = 10_000
# Serialize the value set as an IN expression only while it is small —
# the expression travels into readers and evaluates per row group.
IN_EXPRESSION_LIMIT = 100
BLOOM_BITS_PER_VALUE = 10
BLOOM_HASHES = 4


def _normalize(value: Any) -> Any:
    """Collapse numerically-equal representations before hashing.

    ``-0.0 == 0.0`` and ``1 == 1.0`` under SQL equality, but their reprs
    (hence their CRC32 hashes) differ; fold floats with integral values
    onto ints and negative zero onto zero so the bloom filter never gives
    a false *negative*.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class BloomFilter:
    """Deterministic bloom filter over scalar values."""

    def __init__(self, bits: np.ndarray, num_hashes: int) -> None:
        self.bits = bits  # bool ndarray
        self.num_hashes = num_hashes

    @classmethod
    def build(
        cls,
        values: Iterable[Any],
        count: int,
        bits_per_value: int = BLOOM_BITS_PER_VALUE,
        num_hashes: int = BLOOM_HASHES,
    ) -> "BloomFilter":
        size = max(count * bits_per_value, 64)
        bits = np.zeros(size, dtype=bool)
        bloom = cls(bits, num_hashes)
        for value in values:
            for index in bloom._indexes(value):
                bits[index] = True
        return bloom

    def _indexes(self, value: Any) -> list[int]:
        normalized = _normalize(value)
        h1 = stable_hash(normalized)
        h2 = stable_hash(("bloom", normalized)) | 1  # odd: full cycle
        size = len(self.bits)
        return [(h1 + i * h2) % size for i in range(self.num_hashes)]

    def contains(self, value: Any) -> bool:
        return all(self.bits[index] for index in self._indexes(value))


@dataclass
class DynamicFilter:
    """Summary of one join key's build-side values."""

    min_value: Any = None
    max_value: Any = None
    values: Optional[frozenset] = None  # exact set while small
    bloom: Optional[BloomFilter] = None
    build_distinct: int = 0
    build_rows: int = 0

    @property
    def is_empty(self) -> bool:
        """True when the build side had no defined keys: nothing matches."""
        return self.build_distinct == 0

    def matches(self, value: Any) -> bool:
        if value is None or value != value:
            return False  # NULL and NaN never equal a build key (inner/right join)
        if self.build_distinct == 0:
            return False  # empty build: nothing can match
        if self.values is not None:
            return _normalize(value) in self.values
        if self.min_value is not None:
            try:
                if value < self.min_value or value > self.max_value:
                    return False
            except TypeError:
                pass
        return self.bloom is None or self.bloom.contains(value)

    @cached_property
    def _int64_values(self) -> Optional[np.ndarray]:
        """The exact set's integers, when membership in them is all an
        int64 column can ask: other members never equal an integer."""
        if self.values is None:
            return None
        try:
            return np.array(
                [v for v in self.values if isinstance(v, int)], dtype=np.int64
            )
        except OverflowError:
            return None

    @cached_property
    def _int64_bitmap(self) -> Optional[tuple[int, np.ndarray]]:
        """The exact set's integers as a bitmap over their [min, max]
        (:func:`dense_table`), or None: no exact set, no integer in it,
        or a wide span."""
        if self._int64_values is None:
            return None
        return dense_table(self._int64_values, True, False)

    def mask(self, block: Block) -> np.ndarray:
        """``matches`` of every position.

        An int64 column whose exact set fits a bitmap reads it once per
        row; any other column asks once per distinct value.
        """
        block = block.loaded()
        if (
            isinstance(block, PrimitiveBlock)
            and block.values.dtype == np.int64
            and self._int64_bitmap is not None
        ):
            mask = dense_lookup(*self._int64_bitmap, block.values)
            if block.nulls is not None:
                mask &= ~block.nulls
            return mask
        codes, uniq = column_codes(block)
        # One trailing False slot: code -1 (NULL, NaN) indexes it.
        table = np.zeros(len(uniq) + 1, dtype=bool)
        if uniq.dtype == np.int64 and self._int64_values is not None:
            table[:-1] = np.isin(uniq, self._int64_values)
        else:
            table[:-1] = np.fromiter(
                map(self.matches, uniq.tolist()), dtype=bool, count=len(uniq)
            )
        return table[codes]

    def to_expression(
        self, column: str, presto_type: PrestoType, registry
    ) -> Optional[RowExpression]:
        """Expression form over connector column ``column``, or None.

        Carries the exact set (as IN) while small, else the min/max range;
        the bloom summary has no expression form and stays row-level only.
        An empty filter has no expression — callers handle it via
        :attr:`is_empty`.
        """
        variable = VariableReferenceExpression(column, presto_type)
        if (
            self.values is not None
            and 0 < len(self.values) <= IN_EXPRESSION_LIMIT
        ):
            constants = tuple(
                ConstantExpression(v, presto_type)
                for v in sorted(self.values, key=lambda v: (str(type(v)), v))
            )
            if len(constants) == 1:
                return _comparison(registry, "equal", variable, constants[0])
            return SpecialFormExpression(
                SpecialForm.IN, BOOLEAN, (variable,) + constants
            )
        if self.min_value is None or self.max_value is None:
            return None
        return combine_conjuncts(
            [
                _comparison(
                    registry,
                    "greater_than_or_equal",
                    variable,
                    ConstantExpression(self.min_value, presto_type),
                ),
                _comparison(
                    registry,
                    "less_than_or_equal",
                    variable,
                    ConstantExpression(self.max_value, presto_type),
                ),
            ]
        )


@dataclass
class DynamicFilterSet:
    """All dynamic filters targeting one probe-side table scan.

    ``filters`` maps each connector column name to the filters targeting
    it — one per join criteria pair, so a scan probed by several joins
    accumulates several entries whose conjunction applies.
    ``expression_dict`` is the serialized conjunction of the filters'
    expression forms over *connector column* names — the shape connector
    handles carry in ``constraint`` — precomputed once at build time so
    retried tasks and split enumeration see the identical predicate.
    """

    filters: dict[str, list[DynamicFilter]] = field(default_factory=dict)
    expression_dict: Optional[dict] = None

    @property
    def is_empty(self) -> bool:
        return any(
            f.is_empty for column_filters in self.filters.values() for f in column_filters
        )


def dynamic_filter_for(blocks: Sequence[Block]) -> DynamicFilter:
    """Summarize one build-side key column, the values of ``blocks``.

    Each block factorizes through :func:`column_codes`, so a value is
    summarized once per block it occurs in, not once per row.  NULL and
    NaN (code ``-1``) equal no probe key, so neither is a member, a bound
    or counted in ``build_distinct``: a build side holding nothing else
    is empty.  Past ``DEFAULT_EXACT_VALUES_LIMIT`` distinct values the
    exact set gives way to a bloom filter.
    """
    distinct: set = set()
    for block in blocks:
        codes, uniq = column_codes(block)
        # Only the codes rows use: a dictionary may hold other values.
        used = np.zeros(len(uniq), dtype=bool)
        used[codes[codes >= 0]] = True
        members = uniq[used].tolist()
        # Integers and booleans are their own normal form.
        distinct.update(members if uniq.dtype.kind in "iub" else map(_normalize, members))
    rows = sum(block.position_count for block in blocks)
    if not distinct:
        return DynamicFilter(build_rows=rows)
    try:
        low, high = min(distinct), max(distinct)
    except TypeError:  # mixed/unorderable values: keep membership forms only
        low = high = None
    if len(distinct) <= DEFAULT_EXACT_VALUES_LIMIT:
        return DynamicFilter(
            min_value=low,
            max_value=high,
            values=frozenset(distinct),
            build_distinct=len(distinct),
            build_rows=rows,
        )
    return DynamicFilter(
        min_value=low,
        max_value=high,
        bloom=BloomFilter.build(distinct, len(distinct)),
        build_distinct=len(distinct),
        build_rows=rows,
    )


def _comparison(registry, name: str, left: RowExpression, right: RowExpression):
    handle, _ = registry.resolve_scalar(name, [left.type, right.type])
    return CallExpression(name, handle, BOOLEAN, (left, right))
