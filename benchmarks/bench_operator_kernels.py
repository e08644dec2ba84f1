"""Operator-kernel microbenchmark: vectorized vs row-at-a-time hot path.

Section III's engine claim — column values are processed "vectorized,
instead of row by row" — only pays off if the relational operators keep
data columnar.  This bench measures the operators that dominate
analytics CPU time, grouped aggregation, hash join and top-N, through both
the vectorized kernel layer (``repro.execution.kernels``) and the retained
row-at-a-time reference implementations, interleaved by ``lane_ratio``,
gates on identical outputs, and records the speedup trajectory in
``BENCH_operators.json`` for later PRs.
"""

from __future__ import annotations

import numpy as np

from _harness import LANE_RATIO, WORK_COUNT, gate, lane_ratio, run_script
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

OUTPUT = "BENCH_operators.json"

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


def _rows(pages: list[Page]) -> list[tuple]:
    rows: list[tuple] = []
    for page in pages:
        rows.extend(page.to_rows())
    return rows


def _bench(name: str, rows: int, shape: dict, vectorized, reference, repeat: int) -> dict:
    """Time the reference against the kernel lane; both yield pages.

    Both paths produce fully realized blocks, so draining into a ``list``
    captures the operator cost without charging either side for
    ``to_rows`` — the row conversion is only needed for the
    identical-output check.
    """
    timed = lane_ratio(lambda: list(reference()), lambda: list(vectorized()), repeat)
    return {
        "name": name,
        "rows": rows,
        **shape,
        "vectorized_ms": round(timed.fast_ms, 3),
        "rows_per_sec": round(rows / (timed.fast_ms / 1000.0)),
        "reference_ms": round(timed.slow_ms, 3),
        "speedup": round(timed.ratio, 2),
        "identical": _rows(timed.fast_result) == _rows(timed.slow_result),
    }


def bench_aggregation(rows: int, groups: int, repeat: int) -> dict:
    node = make_aggregation_node()
    pages = make_aggregation_input(rows, groups)
    return _bench(
        "grouped_aggregation",
        rows,
        {"groups": groups, "aggregates": ["sum", "count", "avg"]},
        lambda: execute_aggregation(node, ExecutionContext(catalog=None), iter(pages)),
        lambda: execute_aggregation_rows(node, ExecutionContext(catalog=None), iter(pages)),
        repeat,
    )


def bench_join(probe_rows: int, build_rows: int, repeat: int) -> dict:
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
        repeat,
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


def bench_topn(rows: int, count: int, repeat: int) -> dict:
    node = make_topn_node(count)
    pages = make_topn_input(rows)
    types = [v.type for v in node.outputs]
    return _bench(
        "topn",
        rows,
        {"count": count},
        lambda: execute_topn(node, ExecutionContext(catalog=None), iter(pages)),
        lambda: [Page.from_rows(types, _sorted_rows(node, iter(pages))[:count])],
        repeat,
    )


def run(smoke: bool) -> dict:
    if smoke:
        size, repeat = 5_000, 1
        agg_groups, build_rows = (100, 5_000), 500
    else:
        size, repeat = 100_000, 3
        # 100 000 possible keys: high cardinality, most keys are distinct.
        agg_groups, build_rows = (1_000, 100_000), 10_000
    benchmarks = [bench_aggregation(size, groups, repeat) for groups in agg_groups]
    # Sixteen aggregation batches, most keys distinct (632 000 of them in the
    # full run): every batch after the first is matched against the groups
    # already stored.  Once is enough for a lane that takes seconds.
    benchmarks.append(bench_aggregation(10 * size, 10 * size, 1))
    benchmarks.append(bench_join(size, build_rows, repeat))
    benchmarks.append(bench_topn(size, 100, repeat))
    return {
        "benchmark": "operator_kernels",
        "paper_section": "III (vectorized engine)",
        "smoke": smoke,
        "benchmarks": benchmarks,
    }


def gates(report: dict) -> list:
    cases = report["benchmarks"]
    found = [
        gate("operators whose vectorized output differs from the reference's",
             WORK_COUNT, sum(not b["identical"] for b in cases), "==", 0)
    ]
    if not report["smoke"]:
        found += [
            gate(f"{b['name']} ({b.get('groups') or b.get('build_rows') or b['count']}): "
                 "reference / vectorized", LANE_RATIO, b["speedup"], ">=", 5.0)
            for b in cases
        ]
    return found


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
