"""Sort, TopN, and Limit operators.

Sort and TopN share one vectorized lane: pages concatenate block-wise
(:func:`repro.core.page.concat_pages`), each key column factorizes to a
dense rank array, and one stable ``np.lexsort`` orders the page
(:func:`repro.execution.kernels.sort_order`).  Sort orders its whole
input once; TopN orders its ``count`` survivors plus the next page and
cuts back to ``count``.
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


def _kernel_order(page: Page, key_indexes) -> np.ndarray:
    """Stable kernel order of ``page``."""
    return kernels.sort_order(
        [page.block(i) for i, _ in key_indexes],
        [ascending for _, ascending in key_indexes],
    )


def execute_sort(
    node: SortNode, ctx: ExecutionContext, source: Iterator[Page]
) -> Iterator[Page]:
    types = [v.type for v in node.outputs]
    page = concat_pages(types, list(source))
    ctx.stats.rows_processed_vectorized += page.position_count
    yield page.take(_kernel_order(page, _key_indexes(node)))


def execute_topn(
    node: TopNNode, ctx: ExecutionContext, source: Iterator[Page]
) -> Iterator[Page]:
    # Only ``count`` survivors stay resident.  They go first into each
    # merge and the kernel sort is stable, so key ties keep arrival order
    # and the output is the stable full sort cut to ``count``.
    key_indexes = _key_indexes(node)
    types = [v.type for v in node.outputs]
    survivors: list[Page] = []  # one page once any input has been seen
    for page in source:
        merged = concat_pages(types, survivors + [page])
        order = _kernel_order(merged, key_indexes)
        ctx.stats.rows_processed_vectorized += page.position_count
        survivors = [merged.take(order[: node.count])]
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
