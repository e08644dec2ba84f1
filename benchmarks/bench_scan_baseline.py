"""Single-core scan baseline: typed varchar buffers vs the object lane.

TPC-H Q1/Q6-style scans over LINEITEM pages, one core, reporting
rows/sec-per-core.  Each suite runs twice on identical data: once with
offsets-based :class:`VarcharBlock` columns (the native representation)
and once with the legacy object-array lane (``object_varchar_lane()``).
Results must match exactly; the varchar-heavy suites must clear a >=3x
object/native ratio and the numeric suite must stay within noise — the
new buffers are not allowed to tax numeric scans.  The lanes are timed
against each other by ``lane_ratio`` (interleaved, best of five); the
rows/sec leaves are what this host read and gate nothing.

Page construction happens outside the timed region (both lanes pay the
same row->block conversion); repetitions re-wrap blocks to drop
per-block caches so steady-state kernel cost is what gets measured.
The ``page_shredding`` suite times that row->page conversion itself —
``Page.from_rows`` transposes with one ``zip`` and each column converts in
bulk (one ``np.array``; one join and one encode for ASCII text).
"""

from __future__ import annotations

import numpy as np

from _harness import LANE_RATIO, WORK_COUNT, gate, lane_ratio, run_script
from repro.core.blocks import (
    Block,
    PrimitiveBlock,
    VarcharBlock,
    object_varchar_lane,
)
from repro.core.evaluator import Evaluator
from repro.core.expressions import (
    CallExpression,
    SpecialForm,
    SpecialFormExpression,
    and_,
    constant,
    variable,
)
from repro.core.functions import default_registry
from repro.core.page import Page
from repro.core.types import BIGINT, BOOLEAN, DOUBLE, VARCHAR
from repro.execution import kernels
from repro.workloads.tpch import LINEITEM_COLUMNS, generate_lineitem

OUTPUT = "BENCH_scan_baseline.json"

PAGE_SIZE = 8192
REGISTRY = default_registry()
LINEITEM_TYPES = [t for _, t in LINEITEM_COLUMNS]
COLUMN_INDEX = {name: i for i, (name, _) in enumerate(LINEITEM_COLUMNS)}


def call(name, args, arg_types):
    handle, _ = REGISTRY.resolve_scalar(name, arg_types)
    return CallExpression(name, handle, handle.resolved_return_type(), tuple(args))


def in_(needle, haystack):
    return SpecialFormExpression(
        SpecialForm.IN,
        BOOLEAN,
        (needle, *(constant(v, VARCHAR) for v in haystack)),
    )


def _bindings(page: Page, names) -> dict[str, Block]:
    return {name: page.block(COLUMN_INDEX[name]) for name in names}


def _values(page: Page, name: str) -> np.ndarray:
    return page.block(COLUMN_INDEX[name]).values


# -- suites ------------------------------------------------------------------
#
# Each suite is (name, kind, predicate-bindings, fn(pages, evaluator) ->
# canonical result).  Results are compared exactly across lanes.


def scan_numeric_q6(pages, evaluator):
    """Q6: pure numeric filter + sum(extendedprice * discount)."""
    predicate = and_(
        call(
            "less_than",
            [variable("quantity", DOUBLE), constant(24.0, DOUBLE)],
            [DOUBLE, DOUBLE],
        ),
        call(
            "greater_than_or_equal",
            [variable("discount", DOUBLE), constant(0.03, DOUBLE)],
            [DOUBLE, DOUBLE],
        ),
        call(
            "less_than_or_equal",
            [variable("discount", DOUBLE), constant(0.07, DOUBLE)],
            [DOUBLE, DOUBLE],
        ),
    )
    revenue = 0.0
    matched = 0
    for page in pages:
        mask = evaluator.filter_mask(
            predicate, _bindings(page, ["quantity", "discount"]), page.position_count
        )
        positions = np.flatnonzero(mask)
        price = _values(page, "extendedprice")[positions]
        discount = _values(page, "discount")[positions]
        revenue += float((price * discount).sum())
        matched += len(positions)
    return {"revenue": round(revenue, 2), "rows": matched}


def scan_varchar_q1(pages, evaluator):
    """Q1: varchar date filter + GROUP BY (returnflag, linestatus)."""
    predicate = call(
        "less_than_or_equal",
        [variable("shipdate", VARCHAR), constant("1998-09-02", VARCHAR)],
        [VARCHAR, VARCHAR],
    )
    index = kernels.GroupIndex()
    counts = np.zeros(0, dtype=np.int64)
    qty = np.zeros(0, dtype=np.float64)
    for page in pages:
        mask = evaluator.filter_mask(
            predicate, _bindings(page, ["shipdate"]), page.position_count
        )
        positions = np.flatnonzero(mask)
        keys = [
            page.block(COLUMN_INDEX[name]).take(positions)
            for name in ("returnflag", "linestatus")
        ]
        factorized = kernels.factorize_keys(keys)
        assert factorized is not None
        codes = index.map_codes(*factorized)
        groups = len(index)
        page_counts = np.bincount(codes, minlength=groups)
        page_qty = np.bincount(
            codes, weights=_values(page, "quantity")[positions], minlength=groups
        )
        if groups > len(counts):
            counts = np.concatenate([counts, np.zeros(groups - len(counts), np.int64)])
            qty = np.concatenate([qty, np.zeros(groups - len(qty), np.float64)])
        counts[: len(page_counts)] += page_counts.astype(np.int64)
        qty[: len(page_qty)] += page_qty
    flags, statuses = (block.to_list() for block in index.key_blocks([VARCHAR, VARCHAR]))
    return {
        "groups": [
            [[flags[g], statuses[g]], int(counts[g]), round(float(qty[g]), 2)]
            for g in range(len(index))
        ]
    }


def scan_varchar_filter(pages, evaluator):
    """Membership + equality + LIKE over three varchar columns."""
    predicate = and_(
        in_(variable("shipmode", VARCHAR), ["AIR", "MAIL"]),
        call(
            "equal",
            [variable("shipinstruct", VARCHAR), constant("DELIVER IN PERSON", VARCHAR)],
            [VARCHAR, VARCHAR],
        ),
        call(
            "like",
            [variable("comment", VARCHAR), constant("carefully%", VARCHAR)],
            [VARCHAR, VARCHAR],
        ),
    )
    matched = 0
    for page in pages:
        mask = evaluator.filter_mask(
            predicate,
            _bindings(page, ["shipmode", "shipinstruct", "comment"]),
            page.position_count,
        )
        matched += int(mask.sum())
    return {"rows": matched}


def scan_varchar_substr(pages, evaluator):
    """substr/length-heavy predicate (offsets-arithmetic kernels)."""
    predicate = and_(
        call(
            "equal",
            [
                call(
                    "substr",
                    [
                        variable("shipdate", VARCHAR),
                        constant(1, BIGINT),
                        constant(4, BIGINT),
                    ],
                    [VARCHAR, BIGINT, BIGINT],
                ),
                constant("1997", VARCHAR),
            ],
            [VARCHAR, VARCHAR],
        ),
        call(
            "greater_than",
            [
                call("length", [variable("comment", VARCHAR)], [VARCHAR]),
                constant(40, BIGINT),
            ],
            [BIGINT, BIGINT],
        ),
    )
    matched = 0
    for page in pages:
        mask = evaluator.filter_mask(
            predicate, _bindings(page, ["shipdate", "comment"]), page.position_count
        )
        matched += int(mask.sum())
    return {"rows": matched}


SUITES = [
    ("numeric_q6", "numeric", scan_numeric_q6),
    ("varchar_q1_groupby", "varchar", scan_varchar_q1),
    ("varchar_filter", "varchar", scan_varchar_filter),
    ("varchar_substr_length", "varchar", scan_varchar_substr),
]


# -- measurement -------------------------------------------------------------


def _rewrap(block: Block) -> Block:
    """Copy a block's identity without its lazily built caches."""
    if isinstance(block, VarcharBlock):
        return VarcharBlock(block.type, block.data, block.offsets, block.nulls)
    if isinstance(block, PrimitiveBlock):
        return PrimitiveBlock(block.type, block.values, block.nulls)
    return block


def _fresh(pages: list[Page]) -> list[Page]:
    return [
        Page([_rewrap(b) for b in page.blocks], page.position_count) for page in pages
    ]


def build_pages(rows: list[tuple]) -> list[Page]:
    return [
        Page.from_rows(LINEITEM_TYPES, rows[start : start + PAGE_SIZE])
        for start in range(0, len(rows), PAGE_SIZE)
    ]


def _shred_fingerprint(pages: list[Page]) -> tuple:
    """Cheap lane-independent identity: shape plus boundary rows."""
    return (
        len(pages),
        sum(p.position_count for p in pages),
        pages[0].row(0),
        pages[-1].row(pages[-1].position_count - 1),
    )


def _entry(name: str, kind: str, rows_count: int, timed) -> dict:
    """``timed`` ran the object lane as the slow side, the native as the fast."""
    return {
        "name": name,
        "kind": kind,
        "rows": rows_count,
        "native_ms": round(timed.fast_ms, 3),
        "object_ms": round(timed.slow_ms, 3),
        "native_rows_per_sec_per_core": round(rows_count / (timed.fast_ms / 1000.0)),
        "object_rows_per_sec_per_core": round(rows_count / (timed.slow_ms / 1000.0)),
        "speedup": round(timed.ratio, 2),
        "identical": timed.fast_result == timed.slow_result,
    }


def _object_lane(work):
    """``work``, run under the legacy object-array varchar representation."""

    def lane():
        with object_varchar_lane():
            return work()

    return lane


def run(smoke: bool) -> dict:
    rows_count = 4_000 if smoke else 200_000
    repeat = 1 if smoke else 5
    rows = generate_lineitem(rows_count)
    native_pages = build_pages(rows)
    with object_varchar_lane():
        object_pages = build_pages(rows)
    native_evaluator = Evaluator(REGISTRY)
    object_evaluator = Evaluator(REGISTRY)

    def shred():
        """The rows -> pages conversion itself."""
        return _shred_fingerprint(build_pages(rows))

    benchmarks = [
        _entry("page_shredding", "shredding", rows_count,
               lane_ratio(_object_lane(shred), shred, repeat))
    ]
    for name, kind, fn in SUITES:
        # One fresh wrap per run, made before any clock starts; each lane's
        # first run is untimed and warms the compile cache.
        native_trials = iter([_fresh(native_pages) for _ in range(repeat + 1)])
        object_trials = iter([_fresh(object_pages) for _ in range(repeat + 1)])
        native = lambda: fn(next(native_trials), native_evaluator)
        legacy = _object_lane(lambda: fn(next(object_trials), object_evaluator))
        native()
        legacy()
        benchmarks.append(_entry(name, kind, rows_count, lane_ratio(legacy, native, repeat)))
    return {
        "benchmark": "scan_baseline",
        "paper_section": "III (vectorized engine) / V (columnar data plane)",
        "smoke": smoke,
        "rows": rows_count,
        "benchmarks": benchmarks,
    }


# Varchar-heavy suites clear 3x; the numeric suite stays within noise.
SPEEDUP_GATES = {"varchar": 3.0, "numeric": 0.85}


def gates(report: dict) -> list:
    suites = report["benchmarks"]
    found = [
        gate("suites whose lanes return different results",
             WORK_COUNT, sum(not b["identical"] for b in suites), "==", 0)
    ]
    if not report["smoke"]:
        found += [
            gate(f"{b['name']}: object lane / native lane",
                 LANE_RATIO, b["speedup"], ">=", SPEEDUP_GATES[b["kind"]])
            for b in suites
            if b["kind"] in SPEEDUP_GATES
        ]
    return found


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
