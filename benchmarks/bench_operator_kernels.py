"""Operator-kernel microbenchmark: vectorized vs row-at-a-time hot path.

Section III's engine claim — column values are processed "vectorized,
instead of row by row" — only pays off if the relational operators keep
data columnar.  This bench measures the operators that dominate
analytics CPU time, grouped aggregation, hash join and top-N, through both
the vectorized kernel layer (``repro.execution.kernels``) and the retained
row-at-a-time reference implementations, asserts the outputs are
identical, and records the speedup trajectory in ``BENCH_operators.json``
for later PRs.

Usage::

    PYTHONPATH=src python benchmarks/bench_operator_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_operator_kernels.py --smoke    # CI
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from _harness import print_table
from repro.core.blocks import PrimitiveBlock
from repro.core.expressions import variable
from repro.core.functions import default_registry
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.context import ExecutionContext
from repro.execution.operators.aggregation import (
    execute_aggregation,
    execute_aggregation_rows,
)
from repro.execution.operators.joins import _hash_join_rows, execute_join
from repro.execution.operators.sorting import _sorted_rows, execute_topn
from repro.planner.plan import (
    Aggregation,
    AggregationNode,
    JoinNode,
    TopNNode,
    ValuesNode,
)

PAGE_SIZE = 8192


def _source(names_and_types) -> ValuesNode:
    return ValuesNode(
        output_variables=tuple(variable(n, t) for n, t in names_and_types),
        rows=(),
    )


def _paged(blocks_fn, total: int) -> list[Page]:
    pages = []
    for start in range(0, total, PAGE_SIZE):
        end = min(start + PAGE_SIZE, total)
        pages.append(Page(blocks_fn(start, end)))
    return pages


def make_aggregation_input(rows: int, groups: int, seed: int = 7) -> list[Page]:
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, groups, size=rows).astype(np.int64)
    values = rng.uniform(-100.0, 100.0, size=rows)
    null_mask = rng.random(rows) < 0.05

    def blocks(start, end):
        nulls = null_mask[start:end]
        return [
            PrimitiveBlock(BIGINT, keys[start:end]),
            PrimitiveBlock(DOUBLE, values[start:end], nulls.copy() if nulls.any() else None),
        ]

    return _paged(blocks, rows)


def make_aggregation_node() -> AggregationNode:
    registry = default_registry()
    key = variable("k", BIGINT)
    value = variable("v", DOUBLE)
    aggs = []
    for func, out in (("sum", "s"), ("count", "c"), ("avg", "a")):
        handle, _ = registry.resolve_aggregate(func, [DOUBLE])
        aggs.append(
            Aggregation(
                output=variable(out, handle.resolved_return_type()),
                function_handle=handle,
                arguments=(value,),
            )
        )
    return AggregationNode(
        source=_source([("k", BIGINT), ("v", DOUBLE)]),
        group_keys=(key,),
        aggregations=tuple(aggs),
    )


def make_join_inputs(probe_rows: int, build_rows: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    probe_keys = rng.integers(0, build_rows, size=probe_rows).astype(np.int64)
    probe_values = rng.integers(0, 1000, size=probe_rows).astype(np.int64)
    build_keys = np.arange(build_rows, dtype=np.int64)
    build_values = rng.uniform(0, 1, size=build_rows)

    def probe_blocks(start, end):
        return [
            PrimitiveBlock(BIGINT, probe_keys[start:end]),
            PrimitiveBlock(BIGINT, probe_values[start:end]),
        ]

    def build_blocks(start, end):
        return [
            PrimitiveBlock(BIGINT, build_keys[start:end]),
            PrimitiveBlock(DOUBLE, build_values[start:end]),
        ]

    return _paged(probe_blocks, probe_rows), _paged(build_blocks, build_rows)


def make_join_node() -> JoinNode:
    left = _source([("lk", BIGINT), ("lv", BIGINT)])
    right = _source([("rk", BIGINT), ("rv", DOUBLE)])
    return JoinNode(
        join_type="inner",
        left=left,
        right=right,
        criteria=((left.outputs[0], right.outputs[0]),),
    )


def _time(fn) -> tuple[float, list[Page]]:
    """Time draining an operator into pages (rows are materialized later).

    Both paths produce fully realized blocks, so ``list`` captures the
    operator cost without charging either side for ``to_rows`` — the
    row conversion is only needed for the identical-output check.
    """
    start = time.perf_counter()
    result = list(fn())
    return (time.perf_counter() - start) * 1000.0, result


def _rows(pages: list[Page]) -> list[tuple]:
    rows: list[tuple] = []
    for page in pages:
        rows.extend(page.to_rows())
    return rows


def _bench(name: str, rows: int, shape: dict, vectorized, reference, compare: bool) -> dict:
    """Time the kernel lane and, when ``compare``, the reference; both yield pages."""
    vec_ms, vec_pages = _time(vectorized)
    entry = {
        "name": name,
        "rows": rows,
        **shape,
        "vectorized_ms": round(vec_ms, 3),
        "rows_per_sec": round(rows / (vec_ms / 1000.0)) if vec_ms else None,
        "reference_ms": None,
        "speedup": None,
        "identical": None,
    }
    if compare:
        ref_ms, ref_pages = _time(reference)
        entry["reference_ms"] = round(ref_ms, 3)
        entry["speedup"] = round(ref_ms / vec_ms, 2) if vec_ms else None
        entry["identical"] = _rows(vec_pages) == _rows(ref_pages)
    return entry


def bench_aggregation(rows: int, groups: int, compare: bool) -> dict:
    node = make_aggregation_node()
    pages = make_aggregation_input(rows, groups)
    return _bench(
        "grouped_aggregation",
        rows,
        {"groups": groups, "aggregates": ["sum", "count", "avg"]},
        lambda: execute_aggregation(node, ExecutionContext(catalog=None), iter(pages)),
        lambda: execute_aggregation_rows(node, ExecutionContext(catalog=None), iter(pages)),
        compare,
    )


def bench_join(probe_rows: int, build_rows: int, compare: bool) -> dict:
    node = make_join_node()
    probe_pages, build_pages = make_join_inputs(probe_rows, build_rows)

    def run_with(join):
        return join(node, ExecutionContext(catalog=None), iter(probe_pages), iter(build_pages))

    return _bench(
        "hash_join",
        probe_rows,
        {"build_rows": build_rows},
        lambda: run_with(execute_join),
        lambda: run_with(_hash_join_rows),
        compare,
    )


def make_topn_input(rows: int, seed: int = 13) -> list[Page]:
    rng = np.random.default_rng(seed)
    # Prices repeat (ties) and 5% are NULL; the row id breaks ties.
    prices = rng.integers(0, rows // 4 + 1, size=rows) / 4.0
    null_mask = rng.random(rows) < 0.05
    ids = np.arange(rows, dtype=np.int64)

    def blocks(start, end):
        nulls = null_mask[start:end]
        return [
            PrimitiveBlock(DOUBLE, prices[start:end], nulls.copy() if nulls.any() else None),
            PrimitiveBlock(BIGINT, ids[start:end]),
        ]

    return _paged(blocks, rows)


def make_topn_node(count: int) -> TopNNode:
    source = _source([("price", DOUBLE), ("id", BIGINT)])
    price, row_id = source.outputs
    return TopNNode(source=source, count=count, order_by=((price, False), (row_id, True)))


def bench_topn(rows: int, count: int, compare: bool) -> dict:
    node = make_topn_node(count)
    pages = make_topn_input(rows)
    types = [v.type for v in node.outputs]
    return _bench(
        "topn",
        rows,
        {"count": count},
        lambda: execute_topn(node, ExecutionContext(catalog=None), iter(pages)),
        lambda: [Page.from_rows(types, _sorted_rows(node, iter(pages))[:count])],
        compare,
    )


def run(smoke: bool) -> dict:
    if smoke:
        agg_cases = [(5_000, 100, True), (5_000, 5_000, True)]
        join_cases = [(5_000, 500, True)]
        topn_cases = [(5_000, 100, True)]
    else:
        # Reference timed at 100k (the acceptance comparison); the 1M-row
        # case tracks vectorized throughput only, to keep the bench quick.
        agg_cases = [
            (100_000, 1_000, True),
            (100_000, 100_000, True),  # high cardinality: most keys are distinct
            (1_000_000, 1_000, False),
        ]
        join_cases = [(100_000, 10_000, True), (1_000_000, 10_000, False)]
        topn_cases = [(100_000, 100, True), (1_000_000, 100, False)]
    benchmarks = [bench_aggregation(r, g, c) for r, g, c in agg_cases]
    benchmarks += [bench_join(p, b, c) for p, b, c in join_cases]
    benchmarks += [bench_topn(r, n, c) for r, n, c in topn_cases]
    return {
        "benchmark": "operator_kernels",
        "paper_section": "III (vectorized engine)",
        "smoke": smoke,
        "benchmarks": benchmarks,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes + skip speedup gate (CI)"
    )
    parser.add_argument(
        "--output", default="BENCH_operators.json", help="result JSON path"
    )
    args = parser.parse_args()

    report = run(args.smoke)
    rows = [
        [
            b["name"],
            b["rows"],
            b.get("groups") or b.get("build_rows") or b.get("count"),
            b["vectorized_ms"],
            b["reference_ms"] if b["reference_ms"] is not None else "-",
            b["speedup"] if b["speedup"] is not None else "-",
            b["identical"] if b["identical"] is not None else "-",
        ]
        for b in report["benchmarks"]
    ]
    print_table(
        "Operator kernels: vectorized vs row-at-a-time",
        ["operator", "rows", "groups/build/n", "vec ms", "ref ms", "speedup", "identical"],
        rows,
    )

    with open(args.output, "w") as f:
        json.dump(report, f, indent=2)
    print(f"wrote {args.output}")

    compared = [b for b in report["benchmarks"] if b["speedup"] is not None]
    assert all(b["identical"] for b in compared), "vectorized output diverged"
    if not args.smoke:
        for b in compared:
            assert b["speedup"] >= 5.0, (
                f"{b['name']}: speedup {b['speedup']}x below the 5x target"
            )
        print("speedup target met: >=5x on all compared operators")


if __name__ == "__main__":
    main()
