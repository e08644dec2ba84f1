"""Sort-path references of the integer key lookups.

:func:`repro.execution.kernels.column_codes` factorizes an int64 column
with a narrow span through a presence table, and
:meth:`repro.execution.kernels.JoinKeyIndex.probe_codes` maps integer
probe keys through tables built once per index.  These are the same two
functions as the sorts they replace: ``np.unique`` over the non-null
values, and one ``np.searchsorted`` per lookup against the index's sorted
distinct values.  ``tests/execution/test_dense_keys.py`` compares the
kernels against them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.blocks import PrimitiveBlock
from repro.execution.kernels import JoinKeyIndex


def unique_column_codes(block: PrimitiveBlock) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, uniques)`` of a numeric column by ``np.unique``; NULL and
    NaN code ``-1``."""
    values = block.values
    nulls = block.null_mask()
    if np.issubdtype(values.dtype, np.floating):
        nulls = nulls | np.isnan(values)
    non_null = ~nulls
    uniques, inverse = np.unique(values[non_null], return_inverse=True)
    codes = np.full(len(values), -1, dtype=np.int64)
    codes[non_null] = inverse
    return codes, uniques


def _searchsorted_positions(sorted_keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    if not len(sorted_keys):
        return np.full(len(values), -1, dtype=np.int64)
    idx = np.clip(np.searchsorted(sorted_keys, values), 0, len(sorted_keys) - 1)
    return np.where(sorted_keys[idx] == values, idx, -1)


def searchsorted_probe_codes(
    index: JoinKeyIndex, blocks: Sequence[PrimitiveBlock], count: int
) -> np.ndarray:
    """``index.probe_codes(blocks, count)`` over numeric probe columns,
    every lookup a ``np.searchsorted``: each column's values against its
    build uniques, each re-compaction against its table, the combined
    codes against ``code_values``."""
    combined = np.zeros(count, dtype=np.int64)
    invalid = np.zeros(count, dtype=bool)
    for i, block in enumerate(blocks):
        for at_column, table in index.compactions:
            if at_column == i:
                combined = _searchsorted_positions(table, combined)
                invalid |= combined < 0
        values = block.values
        nulls = block.null_mask()
        if np.issubdtype(values.dtype, np.floating):
            nulls = nulls | np.isnan(values)
        codes = np.where(nulls, -1, _searchsorted_positions(index.column_uniques[i], values))
        invalid |= codes < 0
        combined = combined * index.widths[i] + (codes + 1)
    found = _searchsorted_positions(index.code_values, combined)
    return np.where(invalid, -1, found)
