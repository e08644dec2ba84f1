"""Row-at-a-time reference of the dynamic-filter build.

:func:`build_dynamic_filter` summarizes a build-side key column from its
Python values, one row at a time, and is the oracle the scheduler's
:func:`repro.execution.dynamic_filters.dynamic_filter_for` (which reads
each build page's ``column_codes``) is compared against in
``tests/execution/test_dynamic_filters.py``.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.execution import dynamic_filters
from repro.execution.dynamic_filters import BloomFilter, DynamicFilter, _normalize


def build_dynamic_filter(
    values: Iterable[Any], exact_limit: Optional[int] = None
) -> DynamicFilter:
    """Summarize one build-side key column's values.

    NULL and NaN equal no probe key, so neither is a member, a bound or
    counted in ``build_distinct``: a build side holding nothing else is
    empty.  ``exact_limit`` defaults to ``DEFAULT_EXACT_VALUES_LIMIT`` as
    it stands at the call, so a test that patches the constant moves this
    build with the engine's.
    """
    if exact_limit is None:
        exact_limit = dynamic_filters.DEFAULT_EXACT_VALUES_LIMIT
    distinct: set = set()
    rows = 0
    for value in values:
        rows += 1
        if value is not None and value == value:
            distinct.add(_normalize(value))
    if not distinct:
        return DynamicFilter(build_rows=rows)
    try:
        low, high = min(distinct), max(distinct)
    except TypeError:  # mixed/unorderable values: keep membership forms only
        low = high = None
    exact = len(distinct) <= exact_limit
    return DynamicFilter(
        min_value=low,
        max_value=high,
        values=frozenset(distinct) if exact else None,
        bloom=None if exact else BloomFilter.build(distinct, len(distinct)),
        build_distinct=len(distinct),
        build_rows=rows,
    )
