"""Sort, TopN, and Limit operators.

Sort and TopN share one vectorized lane: each key column factorizes to a
dense rank array, and one stable ``np.lexsort`` orders the rows
(:func:`repro.execution.kernels.sort_order`).  Sort concatenates its
whole input block-wise (:func:`repro.core.page.concat_pages`) and orders
it once.  TopN never concatenates a page longer than ``count``: it cuts
such a page to its top ``count`` rows
(:func:`repro.execution.kernels.top_positions`, which on a numeric first
key sorts only the candidates ``np.partition`` selects), merges them with
its ``count`` survivors and cuts back to ``count``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.page import Page, concat_pages
from repro.execution import kernels
from repro.execution.context import ExecutionContext
from repro.planner.plan import LimitNode, SortNode, TopNNode


def _key_indexes(node) -> list[tuple[int, bool]]:
    return [
        ([v.name for v in node.source.outputs].index(variable.name), ascending)
        for variable, ascending in node.order_by
    ]


def _keys(page: Page, key_indexes) -> tuple[list, list[bool]]:
    return (
        [page.block(i) for i, _ in key_indexes],
        [ascending for _, ascending in key_indexes],
    )


def execute_sort(
    node: SortNode, ctx: ExecutionContext, source: Iterator[Page]
) -> Iterator[Page]:
    types = [v.type for v in node.outputs]
    page = concat_pages(types, list(source))
    ctx.stats.rows_processed_vectorized += page.position_count
    yield page.take(kernels.sort_order(*_keys(page, _key_indexes(node))))


def execute_topn(
    node: TopNNode, ctx: ExecutionContext, source: Iterator[Page]
) -> Iterator[Page]:
    # Only ``count`` survivors stay resident, and no merge holds more than
    # 2 * count rows: a page longer than ``count`` enters it cut to its own
    # top ``count``.  Survivors go first into each merge and the kernel
    # order is stable, so key ties keep arrival order and the output is
    # the stable full sort cut to ``count``: a row outside the stable top
    # ``count`` of its page has ``count`` rows of that page ahead of it,
    # so it is outside the top ``count`` of survivors ++ page as well.
    key_indexes = _key_indexes(node)
    types = [v.type for v in node.outputs]

    def top(page: Page) -> Page:
        return page.take(kernels.top_positions(*_keys(page, key_indexes), node.count))

    survivors: list[Page] = []  # one page once any input has been seen
    for page in source:
        ctx.stats.rows_processed_vectorized += page.position_count
        if survivors:
            if page.position_count > node.count:
                page = top(page)
            page = concat_pages(types, survivors + [page])
        survivors = [top(page)]
    yield concat_pages(types, survivors)


def execute_limit(
    node: LimitNode, ctx: ExecutionContext, source: Iterator[Page]
) -> Iterator[Page]:
    # Returns as soon as it holds ``count`` rows: pulling once more would
    # read a split whose rows it drops.
    remaining = node.count
    if remaining <= 0:
        return
    for page in source:
        page = page.loaded()
        if page.position_count < remaining:
            remaining -= page.position_count
            yield page
            continue
        yield page if page.position_count == remaining else page.take(np.arange(remaining))
        return
