"""Row-at-a-time reference of the dynamic-filter build and its membership.

:func:`build_dynamic_filter` summarizes a build-side key column from its
Python values, one row at a time, into the exact distinct set, and
:func:`filter_matches` is the per-value rule a probe row is kept by.
They are the oracle the scheduler's
:func:`repro.execution.dynamic_filters.dynamic_filter_for` (which reads
each build page's ``column_codes``) and ``DynamicFilter.mask`` (which
looks keys up the way the join does) are compared against in
``tests/execution/test_dynamic_filters.py``.
"""

from __future__ import annotations

from numbers import Real
from typing import Any, Iterable, Sequence

import numpy as np

from repro.execution.dynamic_filters import DynamicFilter


def build_dynamic_filter(values: Iterable[Any]) -> DynamicFilter:
    """Summarize one build-side key column's values.

    NULL and NaN equal no probe key, so neither is a member: a build side
    holding nothing else is empty.  The members are sorted as Python
    sorts them, or by kind first where kinds do not compare (ints beside
    strings), and kept as an object array.
    """
    distinct: set = set()
    rows = 0
    for value in values:
        rows += 1
        if value is not None and value == value:
            distinct.add(value)
    if not distinct:
        return DynamicFilter(build_rows=rows)
    try:
        ordered = sorted(distinct)
    except TypeError:
        ordered = sorted(
            distinct, key=lambda v: ("" if isinstance(v, Real) else type(v).__name__, v)
        )
    members = np.empty(len(ordered), dtype=object)
    members[:] = ordered
    return DynamicFilter(values=members, build_rows=rows)


def filter_matches(dynamic_filter: DynamicFilter, value: Any) -> bool:
    """Whether a probe row holding ``value`` survives the filter: NULL and
    NaN never do, and any other value does when it equals a member as SQL
    compares them.  Integers compare with integers exactly; an integer
    and a double compare as doubles (SQL casts the BIGINT side), so
    ``2**53 + 1`` equals ``2.0**53``; ``-0.0`` equals ``0``; other kinds
    compare with Python's ``==``."""
    return expected_mask(dynamic_filter, [value])[0]


def expected_mask(dynamic_filter: DynamicFilter, values: Sequence[Any]) -> list[bool]:
    """:func:`filter_matches` of each value, the members hashed once."""
    members = set() if dynamic_filter.is_empty else set(dynamic_filter.values.tolist())
    doubles = {m for m in members if isinstance(m, float)}
    integers_as_doubles = {float(m) for m in members if _is_integer(m)}

    def matches(value: Any) -> bool:
        if value is None or value != value:
            return False
        if isinstance(value, float):
            return value in doubles or value in integers_as_doubles
        if _is_integer(value):
            return value in members or float(value) in doubles
        return value in members

    return [matches(value) for value in values]


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
