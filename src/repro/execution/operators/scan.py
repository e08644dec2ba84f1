"""Table scan and values operators.

The scan asks the connector for splits and streams every split's pages
from it, renaming connector columns to plan variables.  Splits are the
unit of parallelism (section III): each costs ``SPLIT_RPC_MS``, and it
and the rest of its reading are charged on its own stage lane.  Each split is charged, cached, masked and
traced on its own, and its span and reader statistics are recorded even
when the consumer stops mid-split.  The split pages then coalesce before
any operator sees them (Presto's scan merges small pages the same way):
consecutive pages join while they stay within
``kernels.TARGET_PARTITION_ROWS`` rows, so a task of many small splits
runs its filter, projection, join probe and top-N once, not once per
split.  Pages that are consecutive regions of one stored column (the
memory connector's) join as one wider region, with no copy
(``concat_blocks``).  A page still holding an unloaded lazy block passes
through alone, so lazy reads (section V.H) load only surviving rows, and
a scan a LIMIT streams from (no blocking operator in between) hands over
each page as it comes, so the LIMIT reads no split it does not need.

When a runtime dynamic filter targets the scan (adaptive execution), the
scan pushes its expression form into the connector handle — so readers
can skip whole row groups — and masks every surviving page against the
filters' full value sets, which the expression form carries only up to
``IN_EXPRESSION_LIMIT`` keys.  The fragment result cache is bypassed for dynamically-filtered
scans: the cache key does not include the filter, and filtered results
must never be served to an unfiltered run.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.connectors.spi import ConnectorTableHandle
from repro.core.blocks import LazyBlock
from repro.core.page import Page, concat_blocks
from repro.execution import kernels
from repro.execution.context import ExecutionContext
from repro.execution.dynamic_filters import DynamicFilterSet
from repro.planner.plan import TableScanNode, ValuesNode

SPLIT_RPC_MS = 0.2  # simulated ms of the RPC that assigns one split to its task


def plan_scan(
    node: TableScanNode, ctx: ExecutionContext, pinned: Optional[list] = None
) -> tuple[ConnectorTableHandle, Optional[DynamicFilterSet], list]:
    """``(handle, dynamic filters, splits)`` for one scan of ``node``.

    The one place a runtime dynamic filter meets split enumeration, shared
    by the scheduler (which hands each task of a single-scan source stage
    a contiguous run of the splits, sized by their ``rows``) and the scans
    of a fragment holding several, which enumerate their own: an empty
    build side matches nothing, so every split is skipped (and counted);
    otherwise the filter's expression form rides on the handle, where
    connectors that understand it (hive) prune partitions at enumeration.
    ``pinned`` splits — a task's assignment — are read as given.
    """
    connector = ctx.catalog.connector(node.catalog)
    filter_set = (ctx.dynamic_filters or {}).get(node.id)
    handle = node.handle
    if pinned is None and filter_set is not None and filter_set.is_empty:
        skipped = len(connector.get_splits(handle))
        ctx.stats.dynamic_filter_splits_skipped += skipped
        return handle, filter_set, []
    if filter_set is not None and filter_set.expression_dict:
        handle = handle.with_(dynamic_filter=filter_set.expression_dict)
    if pinned is None:
        pinned = connector.get_splits(handle)
    return handle, filter_set, pinned


def execute_table_scan(
    node: TableScanNode, ctx: ExecutionContext, stream: bool = False
) -> Iterator[Page]:
    """The scan's pages, coalesced unless ``stream``.

    Coalesced, consecutive split pages join while they stay within
    ``kernels.TARGET_PARTITION_ROWS`` rows (:func:`kernels.page_runs`), so
    the operators above run once per task's worth of small splits; a
    page still holding an unloaded lazy block goes out alone.  With
    ``stream`` (a LIMIT streams from this scan) every page goes out as its
    split yields it, so no split is read that the LIMIT does not need.
    """
    pages = _scanned_pages(node, ctx)
    if stream:
        yield from pages
        return
    types = [variable.type for variable in node.outputs]
    for run in kernels.page_runs(pages, alone=_has_unloaded_block):
        if len(run) == 1:
            yield run[0]
        else:
            yield Page(
                [
                    concat_blocks(presto_type, [page.blocks[channel] for page in run])
                    for channel, presto_type in enumerate(types)
                ],
                sum(page.position_count for page in run),
            )


def _has_unloaded_block(page: Page) -> bool:
    for block in page.blocks:
        if isinstance(block, LazyBlock) and not block.is_loaded:
            return True
    return False


def _scanned_pages(node: TableScanNode, ctx: ExecutionContext) -> Iterator[Page]:
    """Every split's pages in split order, as the connector yields them.

    ``pages_produced`` counts these connector pages.  A split's span and
    reader statistics are recorded however its pages end: drained, or cut
    short by a consumer that stopped pulling.
    """
    connector = ctx.catalog.connector(node.catalog)
    columns = [column for _, column in node.assignments]
    # A single-scan source task reads its assigned splits; a scan in a
    # fragment holding several enumerates every split of its table.
    handle, filter_set, splits = plan_scan(
        node, ctx, (ctx.scan_splits or {}).get(node.id)
    )

    mask_channels = _dynamic_mask_channels(node, filter_set)

    # What a split costs: its RPC charged on its lane, its counters and
    # its span; everything else here is per page.
    stats, tracer = ctx.stats, ctx.tracer
    produced_any = False
    first = ctx.split
    for index, split in enumerate(splits):
        stats.splits_scanned += 1
        ctx.split = first + index  # its charges land on its lane
        ctx.charge("split_rpc", SPLIT_RPC_MS)
        split_rows = 0
        pages, cache_status = _split_pages(
            node, ctx, connector, handle, split, columns, filter_set
        )
        try:
            for page in pages:
                if mask_channels:
                    page = _apply_dynamic_mask(page, mask_channels, ctx)
                rows = page.position_count
                stats.rows_scanned += rows
                split_rows += rows
                stats.pages_produced += 1
                if rows or not produced_any:
                    produced_any = True
                    yield page
        finally:
            _harvest_reader_stats(ctx, pages)
            if tracer is not None:
                span = tracer.instant(
                    "split",
                    split_id=split.split_id,
                    catalog=node.catalog,
                    rows=split_rows,
                )
                if cache_status is not None:
                    span.set(cache=cache_status)


def _dynamic_mask_channels(node, filter_set):
    """Pairs of (page channel, filters) to mask pages with, or []."""
    if filter_set is None or not filter_set.filters:
        return []
    channel_by_column = {
        column: channel for channel, (_, column) in enumerate(node.assignments)
    }
    mask_channels = []
    for column, filters in sorted(filter_set.filters.items()):
        channel = channel_by_column.get(column)
        if channel is not None:
            mask_channels.append((channel, filters))
    return mask_channels


def _apply_dynamic_mask(page: Page, mask_channels, ctx: ExecutionContext) -> Page:
    """Drop rows whose join keys cannot match any build-side key.

    Runs before ``rows_scanned`` accounting, matching the reader's static
    predicate (filtered rows never count as scanned); the pruned volume
    is visible in ``dynamic_filter_rows_pruned``.
    """
    if page.position_count == 0:
        return page
    mask = np.ones(page.position_count, dtype=bool)
    for channel, filters in mask_channels:
        block = page.block(channel)
        for dynamic_filter in filters:
            mask &= dynamic_filter.mask(block)
            if not mask.any():
                break
    kept = int(mask.sum())
    if kept == page.position_count:
        return page
    ctx.stats.dynamic_filter_rows_pruned += page.position_count - kept
    return page.take(np.flatnonzero(mask))


def _harvest_reader_stats(ctx: ExecutionContext, pages) -> None:
    """Fold a drained split's reader statistics into the query counters.

    Connectors that wrap a format reader (hive/parquet) expose its stats
    as a ``reader_stats`` attribute on the returned page iterator; plain
    generators (memory connector, cached results) simply have none.
    """
    reader_stats = getattr(pages, "reader_stats", None)
    if reader_stats is None:
        return
    ctx.stats.row_groups_total += reader_stats.row_groups_total
    ctx.stats.row_groups_skipped_by_stats += reader_stats.row_groups_skipped_by_stats
    ctx.stats.row_groups_skipped_by_dictionary += (
        reader_stats.row_groups_skipped_by_dictionary
    )
    ctx.stats.row_groups_skipped_by_dynamic_filter += (
        reader_stats.row_groups_skipped_by_dynamic_filter
    )


def _split_pages(node, ctx, connector, handle, split, columns, filter_set):
    """One split's pages, optionally served from the fragment result cache.

    The cache key is the scan's description and columns, the handle's
    ``pushdown_key()`` (two scans differing in a pushed predicate, limit,
    projection or aggregation read different pages), the split id and the
    split's data version; a version change (file rewrite, new rows) makes
    the old entry unreachable, so stale results are never served
    (section VII).  Returns ``(pages, cache_status)`` where the
    status is ``"hit"``/``"miss"`` when the fragment cache was consulted,
    else None.  Dynamically-filtered scans never touch the cache — the
    key excludes the runtime filter.
    """
    cache = ctx.fragment_cache
    uncached = cache is None or filter_set is not None
    data_version = None if uncached else split.info_dict().get("data_version")
    if data_version is None:
        return connector.pages(handle, split, columns), None
    key = (
        "|".join((node.describe(), ",".join(columns), handle.pushdown_key())),
        split.split_id,
        data_version,
    )
    pages, hit = cache.get_or_compute_with_status(
        key, lambda: connector.pages(handle, split, columns)
    )
    if hit:
        ctx.stats.fragment_cache_hits += 1
    return iter(pages), "hit" if hit else "miss"


def execute_values(node: ValuesNode, ctx: ExecutionContext) -> Iterator[Page]:
    types = [v.type for v in node.output_variables]
    if not node.output_variables:
        # Zero-column values (e.g. SELECT without FROM): emit one empty-width
        # page per row so downstream projections produce one output row each.
        yield Page([], position_count=len(node.rows))
        return
    yield Page.from_rows(types, list(node.rows))
