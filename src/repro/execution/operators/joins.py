"""Hash join, nested-loop (cross) join, and the geospatial join.

The hash join builds on the right side and probes with the left, matching
Presto's default.  Build-side size is charged against the context's memory
limit; exceeding it raises ``InsufficientResourcesError`` — the failure
mode users hit with big joins (section XII.C).

The equi-join probe is vectorized (section III): the build side stays in
columnar blocks, keys factorize into dense codes, and each probe page
expands into ``(probe_positions, build_positions)`` index arrays that
construct the output with ``Block.take`` instead of ``Page.from_rows``.
Every key kind the analyzer admits factorizes.

The spatial join implements both execution strategies of section VI: the
brute-force path evaluates ``st_contains`` for every (point, polygon) pair,
while the indexed path builds a QuadTree over the polygons on the fly
(``build_geo_index``) and only tests candidate polygons.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.common.errors import ExecutionError, InsufficientResourcesError
from repro.core.blocks import Block, PrimitiveBlock, constant_block
from repro.core.page import Page, concat_pages
from repro.core.types import BIGINT, DOUBLE, INTEGER
from repro.execution import kernels
from repro.execution.context import ExecutionContext
from repro.execution.operators.filter_project import bindings_for
from repro.planner.plan import JoinNode, SpatialJoinNode


def execute_join(
    node: JoinNode,
    ctx: ExecutionContext,
    left_source: Iterator[Page],
    right_source: Iterator[Page],
) -> Iterator[Page]:
    if node.join_type == "right":
        # Execute as a left join with sides swapped, then restore column order.
        swapped = JoinNode(
            join_type="left",
            left=node.right,
            right=node.left,
            criteria=tuple((r, l) for l, r in node.criteria),
            filter=node.filter,
            distribution=node.distribution,
        )
        left_width = len(node.left.outputs)
        right_width = len(node.right.outputs)
        for page in execute_join(swapped, ctx, right_source, left_source):
            reorder = list(range(right_width, right_width + left_width)) + list(
                range(right_width)
            )
            yield page.select_channels(reorder)
        return

    if node.join_type == "cross" or not node.criteria:
        yield from _nested_loop_join(node, ctx, left_source, right_source)
        return
    yield from _hash_join(node, ctx, left_source, right_source)


def _build_rows(ctx: ExecutionContext, source: Iterator[Page]) -> list[tuple]:
    rows: list[tuple] = []
    for page in source:
        page = page.loaded()
        rows.extend(page.rows())
        if len(rows) > ctx.max_build_rows:
            raise InsufficientResourcesError(
                "Insufficient Resources: join build side exceeds memory limit "
                f"({ctx.max_build_rows} rows)"
            )
    ctx.stats.peak_build_rows = max(ctx.stats.peak_build_rows, len(rows))
    return rows


def _build_pages(ctx: ExecutionContext, source: Iterator[Page]) -> list[Page]:
    """Load the build side as pages (blocks, not tuples), memory-checked."""
    pages: list[Page] = []
    total = 0
    for page in source:
        page = page.loaded()
        total += page.position_count
        if total > ctx.max_build_rows:
            raise InsufficientResourcesError(
                "Insufficient Resources: join build side exceeds memory limit "
                f"({ctx.max_build_rows} rows)"
            )
        pages.append(page)
    ctx.stats.peak_build_rows = max(ctx.stats.peak_build_rows, total)
    return pages


def _hash_join(
    node: JoinNode,
    ctx: ExecutionContext,
    left_source: Iterator[Page],
    right_source: Iterator[Page],
) -> Iterator[Page]:
    right_outputs = node.right.outputs
    right_key_indexes = [
        [v.name for v in right_outputs].index(r.name) for _, r in node.criteria
    ]
    left_outputs = node.left.outputs
    left_key_indexes = [
        [v.name for v in left_outputs].index(l.name) for l, _ in node.criteria
    ]

    pages = _build_pages(ctx, right_source)
    right_types = [v.type for v in right_outputs]
    build_page = concat_pages(right_types, pages)

    build_keys = [build_page.block(i) for i in right_key_indexes]
    for key, (left, right) in enumerate(node.criteria):
        if left.type is DOUBLE and right.type in (BIGINT, INTEGER):
            build_keys[key] = _as_double(build_keys[key])
    index = kernels.build_join_index(build_keys)

    evaluator = ctx.evaluator
    join_filter = node.filter
    is_left_join = node.join_type == "left"
    left_width = len(left_outputs)
    right_width = len(right_outputs)

    for page in left_source:
        count = page.position_count
        codes = (
            index.probe_codes([page.block(i).loaded() for i in left_key_indexes], count)
            if count
            else kernels.EMPTY_POSITIONS
        )
        ctx.stats.rows_processed_vectorized += count
        probe_positions, build_positions = index.expand(codes)

        if join_filter is not None and len(probe_positions):
            bindings = {}
            for i, variable in enumerate(left_outputs):
                bindings[variable.name] = page.block(i).take(probe_positions)
            for i, variable in enumerate(right_outputs):
                bindings[variable.name] = build_page.block(i).take(build_positions)
            mask = evaluator.filter_mask(join_filter, bindings, len(probe_positions))
            probe_positions = probe_positions[mask]
            build_positions = build_positions[mask]

        if is_left_join:
            matched = np.zeros(count, dtype=bool)
            matched[probe_positions] = True
            unmatched = np.flatnonzero(~matched)
            if len(unmatched):
                probe_positions = np.concatenate([probe_positions, unmatched])
                build_positions = np.concatenate(
                    [build_positions, np.full(len(unmatched), -1, dtype=np.int64)]
                )
                # Stable sort interleaves the null-padded rows back into
                # probe order (a probe row is matched xor padded).
                reorder = np.argsort(probe_positions, kind="stable")
                probe_positions = probe_positions[reorder]
                build_positions = build_positions[reorder]

        blocks = [page.block(i).take(probe_positions) for i in range(left_width)]
        null_pad = build_positions < 0
        if null_pad.any():
            blocks.extend(
                kernels.take_nullable(build_page.block(i), build_positions, null_pad)
                for i in range(right_width)
            )
        else:
            blocks.extend(
                build_page.block(i).take(build_positions) for i in range(right_width)
            )
        yield Page(blocks, len(probe_positions))


def _as_double(block: Block) -> PrimitiveBlock:
    """An integer build key as DOUBLE: SQL compares BIGINT with DOUBLE as
    doubles, so integer keys equal as doubles (2**53 and 2**53 + 1) are
    one key to a DOUBLE probe, as they are to the BIGINT-probe side."""
    codes, uniques = kernels.column_codes(block)
    values = np.append(uniques.astype(np.float64), 0.0)[codes]
    return PrimitiveBlock(DOUBLE, values, codes < 0)


def _nested_loop_join(
    node: JoinNode,
    ctx: ExecutionContext,
    left_source: Iterator[Page],
    right_source: Iterator[Page],
) -> Iterator[Page]:
    if node.join_type not in ("cross", "inner", "left"):
        raise ExecutionError(f"unsupported non-equi join type {node.join_type}")
    right_rows = _build_rows(ctx, right_source)
    output_types = [v.type for v in node.outputs]
    evaluator = ctx.evaluator
    right_outputs = node.right.outputs
    left_outputs = node.left.outputs
    right_null_row = (None,) * len(right_outputs)
    is_left_join = node.join_type == "left"

    for page in left_source:
        page = page.loaded()
        n = page.position_count
        result_rows: list[tuple] = []
        matched = np.zeros(n, dtype=bool)
        # Vectorize across probe rows: one filter evaluation per build row.
        probe_bindings = {
            variable.name: page.block(i) for i, variable in enumerate(left_outputs)
        }
        probe_rows = page.to_rows()
        for build_row in right_rows:
            if node.filter is not None:
                bindings = dict(probe_bindings)
                for variable, value in zip(right_outputs, build_row):
                    bindings[variable.name] = constant_block(value, variable.type, n)
                mask = evaluator.filter_mask(node.filter, bindings, n)
                positions = np.nonzero(mask)[0]
            else:
                positions = np.arange(n)
            matched[positions] = True
            result_rows.extend(probe_rows[int(p)] + build_row for p in positions)
        if is_left_join:
            for position in np.nonzero(~matched)[0]:
                result_rows.append(probe_rows[int(position)] + right_null_row)
        yield Page.from_rows(output_types, result_rows)


def execute_spatial_join(
    node: SpatialJoinNode,
    ctx: ExecutionContext,
    left_source: Iterator[Page],
    right_source: Iterator[Page],
) -> Iterator[Page]:
    from repro.geo.geometry import Geometry
    from repro.geo.quadtree import GeoIndex

    right_outputs = node.right.outputs
    polygon_index = [v.name for v in right_outputs].index(node.polygon_variable.name)
    build_rows = _build_rows(ctx, right_source)

    index: Optional[GeoIndex] = None
    if node.use_index:
        # build_geo_index: serialize polygons into a QuadTree on the fly
        # (section VI.E, figure 13).
        index = GeoIndex.build(
            [(i, row[polygon_index]) for i, row in enumerate(build_rows)]
        )

    output_types = [v.type for v in node.outputs]
    left_outputs = node.left.outputs
    evaluator = ctx.evaluator

    for page in left_source:
        page = page.loaded()
        bindings = bindings_for(page, left_outputs)
        point_block = evaluator.evaluate(
            node.point_expression, bindings, page.position_count
        ).loaded()
        result_rows: list[tuple] = []
        for position in range(page.position_count):
            point = point_block.get(position)
            if point is None:
                continue
            probe_row = page.row(position)
            if index is not None:
                candidates = index.candidates(point)
                for build_index in candidates:
                    build_row = build_rows[build_index]
                    polygon: Geometry = build_row[polygon_index]
                    if polygon is not None and polygon.contains_point(point):
                        result_rows.append(probe_row + build_row)
            else:
                # Brute force: the full geometry test for every pair, as in
                # the paper's pre-QuadTree baseline ("this simple query
                # could cost hundreds of millions of st_contains"), with no
                # spatial pruning of any kind.
                for build_row in build_rows:
                    polygon = build_row[polygon_index]
                    if polygon is not None and polygon.ray_cast(point):
                        result_rows.append(probe_row + build_row)
        yield Page.from_rows(output_types, result_rows)
