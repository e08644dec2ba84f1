"""Sort, TopN, and Limit operators.

Sort and TopN share one vectorized lane: pages concatenate block-wise
(:func:`repro.core.page.concat_pages`), each key column factorizes to a
dense rank array, and one stable ``np.lexsort`` orders the page
(:func:`repro.execution.kernels.sort_order`).  Sort orders its whole
input once; TopN orders its ``count`` survivors plus the next page and
cuts back to ``count``.  Key kinds the factorizer does not support go to
the retained row-at-a-time reference, :func:`_sorted_rows`.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.core.page import Page, concat_pages
from repro.execution import kernels
from repro.execution.context import ExecutionContext
from repro.planner.plan import LimitNode, SortNode, TopNNode


class _SortKey:
    """Total order over possibly-null values: nulls sort last ascending."""

    __slots__ = ("value", "ascending")

    def __init__(self, value, ascending: bool) -> None:
        self.value = value
        self.ascending = ascending

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.ascending
        if b is None:
            return self.ascending
        return a < b if self.ascending else b < a

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.value == other.value


def _key_indexes(node) -> list[tuple[int, bool]]:
    return [
        ([v.name for v in node.source.outputs].index(variable.name), ascending)
        for variable, ascending in node.order_by
    ]


def _sorted_rows(node, source: Iterator[Page]) -> list[tuple]:
    """Row-at-a-time reference sort (retained as the differential oracle)."""
    key_indexes = _key_indexes(node)
    rows: list[tuple] = []
    for page in source:
        rows.extend(page.loaded().rows())
    rows.sort(key=lambda row: tuple(_SortKey(row[i], asc) for i, asc in key_indexes))
    return rows


def _kernel_order(page: Page, key_indexes) -> Optional[np.ndarray]:
    """Stable kernel order of ``page``; ``None`` sends it to ``_sorted_rows``."""
    return kernels.sort_order(
        [page.block(i) for i, _ in key_indexes],
        [ascending for _, ascending in key_indexes],
    )


def execute_sort(
    node: SortNode, ctx: ExecutionContext, source: Iterator[Page]
) -> Iterator[Page]:
    types = [v.type for v in node.outputs]
    page = concat_pages(types, list(source))
    order = _kernel_order(page, _key_indexes(node))
    if order is None:
        ctx.stats.rows_processed_fallback += page.position_count
        yield Page.from_rows(types, _sorted_rows(node, iter([page])))
        return
    ctx.stats.rows_processed_vectorized += page.position_count
    yield page.take(order)


def execute_topn(
    node: TopNNode, ctx: ExecutionContext, source: Iterator[Page]
) -> Iterator[Page]:
    # Only ``count`` survivors stay resident.  They go first into each
    # merge and the kernel sort is stable, so key ties keep arrival order
    # and the output is the stable full sort cut to ``count``.
    key_indexes = _key_indexes(node)
    types = [v.type for v in node.outputs]
    survivors: list[Page] = []  # one page once any input has been seen
    pages = iter(source)
    for page in pages:
        merged = concat_pages(types, survivors + [page])
        order = _kernel_order(merged, key_indexes)
        if order is None:
            # This page's keys have no kernel order: the reference sorts the
            # survivors, this page and everything after it.
            rest = [page, *pages]
            ctx.stats.rows_processed_fallback += sum(p.position_count for p in rest)
            rows = _sorted_rows(node, iter(survivors + rest))[: node.count]
            yield Page.from_rows(types, rows)
            return
        ctx.stats.rows_processed_vectorized += page.position_count
        survivors = [merged.take(order[: node.count])]
    yield concat_pages(types, survivors)


def execute_limit(
    node: LimitNode, ctx: ExecutionContext, source: Iterator[Page]
) -> Iterator[Page]:
    remaining = node.count
    for page in source:
        if remaining <= 0:
            break
        page = page.loaded()
        if page.position_count <= remaining:
            remaining -= page.position_count
            yield page
        else:
            yield page.take(np.arange(remaining))
            remaining = 0
