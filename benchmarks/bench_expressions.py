"""Expression-compiler microbenchmark: compiled kernels vs interpreter.

Expression evaluation sits under every WHERE clause, projection, and
connector predicate, so this bench measures the three paths the compiler
changes: null-bearing numeric filters (the old "any null ⇒ Python loop"
bail-out), string-heavy predicates (the old object-dtype bail-out), and
dictionary-encoded columns (O(rows) → O(distinct) evaluation, paper §V).
Each suite runs the identical expression through the compiled lane and
the retained interpreter oracle, interleaved by ``lane_ratio``, gates on
byte-identical output, and records the speedups in
``BENCH_expressions.json``.
"""

from __future__ import annotations

import numpy as np

from _harness import LANE_RATIO, WORK_COUNT, gate, lane_ratio, run_script
from repro.core.blocks import DictionaryBlock, PrimitiveBlock
from repro.core.compiler import bool_arrays
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
from repro.core.types import BIGINT, DOUBLE, VARCHAR

OUTPUT = "BENCH_expressions.json"

PAGE_SIZE = 8192
REGISTRY = default_registry()


def call(name, args, arg_types):
    handle, _ = REGISTRY.resolve_scalar(name, arg_types)
    return CallExpression(name, handle, handle.resolved_return_type(), tuple(args))


def _paged(bindings_fn, total: int) -> list[tuple[dict, int]]:
    pages = []
    for start in range(0, total, PAGE_SIZE):
        end = min(start + PAGE_SIZE, total)
        pages.append((bindings_fn(start, end), end - start))
    return pages


# -- suites ------------------------------------------------------------------


def null_filter_suite(rows: int, seed: int = 7):
    """Numeric filter over null-bearing columns (the old Python-loop path)."""
    rng = np.random.default_rng(seed)
    quantity = rng.integers(1, 50, size=rows).astype(np.int64)
    price = rng.uniform(1.0, 1000.0, size=rows)
    discount = rng.uniform(0.0, 0.1, size=rows)
    nulls = rng.random(rows) < 0.05

    def bindings(start, end):
        page_nulls = nulls[start:end]
        return {
            "quantity": PrimitiveBlock(
                BIGINT, quantity[start:end], page_nulls.copy() if page_nulls.any() else None
            ),
            "price": PrimitiveBlock(DOUBLE, price[start:end]),
            "discount": PrimitiveBlock(DOUBLE, discount[start:end]),
        }

    # quantity < 24 AND price * (1 - discount) > 500.0
    predicate = and_(
        call("less_than", [variable("quantity", BIGINT), constant(24, BIGINT)], [BIGINT, BIGINT]),
        call(
            "greater_than",
            [
                call(
                    "multiply",
                    [
                        variable("price", DOUBLE),
                        call(
                            "subtract",
                            [constant(1.0, DOUBLE), variable("discount", DOUBLE)],
                            [DOUBLE, DOUBLE],
                        ),
                    ],
                    [DOUBLE, DOUBLE],
                ),
                constant(500.0, DOUBLE),
            ],
            [DOUBLE, DOUBLE],
        ),
    )
    return predicate, _paged(bindings, rows)


def string_filter_suite(rows: int, seed: int = 11):
    """String-heavy predicate (the old object-dtype bail-out)."""
    rng = np.random.default_rng(seed)
    words = np.array(
        ["airplane", "AIR CARGO", "shipping", "rail", "air freight", "truck", None],
        dtype=object,
    )
    modes = words[rng.integers(0, len(words), size=rows)]

    def bindings(start, end):
        return {"mode": PrimitiveBlock.from_values(VARCHAR, list(modes[start:end]))}

    # lower(mode) LIKE 'air%' AND length(mode) > 3
    predicate = and_(
        call(
            "like",
            [
                call("lower", [variable("mode", VARCHAR)], [VARCHAR]),
                constant("air%", VARCHAR),
            ],
            [VARCHAR, VARCHAR],
        ),
        call(
            "greater_than",
            [call("length", [variable("mode", VARCHAR)], [VARCHAR]), constant(3, BIGINT)],
            [BIGINT, BIGINT],
        ),
    )
    return predicate, _paged(bindings, rows)


def dictionary_suite(rows: int, distinct: int = 200, seed: int = 13):
    """Dictionary-encoded varchar column: evaluate per distinct, not per row."""
    rng = np.random.default_rng(seed)
    pool = [f"warehouse-region-{i:04d}" for i in range(distinct)]
    dictionary = PrimitiveBlock.from_values(VARCHAR, pool)
    ids = rng.integers(0, distinct, size=rows).astype(np.int64)

    def bindings(start, end):
        return {"region": DictionaryBlock(dictionary, ids[start:end])}

    # upper(substr(region, 11, 6)) LIKE 'REGION%'
    predicate = call(
        "like",
        [
            call(
                "upper",
                [
                    call(
                        "substr",
                        [variable("region", VARCHAR), constant(11, BIGINT), constant(6, BIGINT)],
                        [VARCHAR, BIGINT, BIGINT],
                    )
                ],
                [VARCHAR],
            ),
            constant("REGION%", VARCHAR),
        ],
        [VARCHAR, VARCHAR],
    )
    return predicate, _paged(bindings, rows)


# -- measurement -------------------------------------------------------------


def bench_suite(name: str, predicate, pages, rows: int, repeat: int) -> dict:
    evaluator = Evaluator(REGISTRY)
    # Warm the compile cache so the measured loop shows steady-state cost.
    if pages:
        evaluator.filter_mask(predicate, pages[0][0], pages[0][1])

    def interpreted_mask(bindings, count):
        block = evaluator.evaluate_interpreted(predicate, bindings, count)
        return bool_arrays(block)[0]

    def lane(mask):
        return lambda: [mask(bindings, count) for bindings, count in pages]

    timed = lane_ratio(
        lane(interpreted_mask),
        lane(lambda bindings, count: evaluator.filter_mask(predicate, bindings, count)),
        repeat,
    )
    return {
        "name": name,
        "rows": rows,
        "compiled_ms": round(timed.fast_ms, 3),
        "interpreted_ms": round(timed.slow_ms, 3),
        "speedup": round(timed.ratio, 2),
        "rows_per_sec": round(rows / (timed.fast_ms / 1000.0)),
        "identical": all(
            np.array_equal(a, b) for a, b in zip(timed.fast_result, timed.slow_result)
        ),
    }


def run(smoke: bool) -> dict:
    rows = 5_000 if smoke else 200_000
    dict_rows = 5_000 if smoke else 100_000
    repeat = 1 if smoke else 3
    suites = [
        ("null_filter", *null_filter_suite(rows), rows),
        ("string_filter", *string_filter_suite(rows), rows),
        ("dictionary", *dictionary_suite(dict_rows), dict_rows),
    ]
    benchmarks = [
        bench_suite(name, predicate, pages, total, repeat)
        for name, predicate, pages, total in suites
    ]
    return {
        "benchmark": "expressions",
        "paper_section": "III (vectorized engine) / V (dictionary optimizations)",
        "smoke": smoke,
        "benchmarks": benchmarks,
    }


SPEEDUP_GATES = {"null_filter": 5.0, "dictionary": 10.0}


def gates(report: dict) -> list:
    suites = report["benchmarks"]
    found = [
        gate("suites whose compiled masks differ from the interpreter's",
             WORK_COUNT, sum(not b["identical"] for b in suites), "==", 0)
    ]
    if not report["smoke"]:
        found += [
            gate(f"{b['name']}: interpreted / compiled",
                 LANE_RATIO, b["speedup"], ">=", SPEEDUP_GATES[b["name"]])
            for b in suites
            if b["name"] in SPEEDUP_GATES
        ]
    return found


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
