"""Differential tests: vectorized operator kernels vs the row-at-a-time
reference implementations they replaced.

Every test builds the same input pages, runs both the vectorized operator
and the retained reference (``execute_aggregation_rows``,
``_hash_join_rows``, ``_sorted_rows``), and asserts row-for-row identical
output — values *and* Python types — across NULL keys, NULL aggregate
inputs, DISTINCT, merge (FINAL) mode, empty input, and object-dtype
(varchar) keys.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import InvalidValueError
from repro.common.hashing import stable_hash
from repro.core.blocks import (
    DictionaryBlock,
    PrimitiveBlock,
    block_from_values,
    constant_block,
)
from repro.core.expressions import CallExpression, variable
from repro.core.functions import default_registry
from repro.core.page import Page, concat_pages
from repro.core.types import BIGINT, BOOLEAN, DOUBLE, VARCHAR, ArrayType, parse_type
from repro.execution import kernels
from repro.execution.context import ExecutionContext
from repro.execution.exchange import ExchangeBuffer
from repro.execution.operators.aggregation import (
    _partial_page,
    execute_aggregation,
    execute_aggregation_rows,
)
from repro.execution.operators.joins import _hash_join_rows, execute_join
from repro.execution.operators.sorting import (
    _sorted_rows,
    execute_sort,
    execute_topn,
)
from repro.planner.fragmenter import Exchange, ExchangeKind
from repro.planner.plan import (
    Aggregation,
    AggregationNode,
    JoinNode,
    SortNode,
    TopNNode,
    ValuesNode,
)


def make_ctx() -> ExecutionContext:
    return ExecutionContext(catalog=None)


def source_node(names_and_types) -> ValuesNode:
    return ValuesNode(
        output_variables=tuple(variable(n, t) for n, t in names_and_types),
        rows=(),
    )


def agg_node(source, key_names, aggs, step="SINGLE") -> AggregationNode:
    """``aggs`` is a list of (function, [arg names], distinct, output name)."""
    registry = default_registry()
    by_name = {v.name: v for v in source.outputs}
    aggregations = []
    for func, arg_names, distinct, out_name in aggs:
        arg_vars = tuple(by_name[a] for a in arg_names)
        handle, _ = registry.resolve_aggregate(func, [a.type for a in arg_vars])
        aggregations.append(
            Aggregation(
                output=variable(out_name, handle.resolved_return_type()),
                function_handle=handle,
                arguments=arg_vars,
                distinct=distinct,
            )
        )
    return AggregationNode(
        source=source,
        group_keys=tuple(by_name[k] for k in key_names),
        aggregations=tuple(aggregations),
        step=step,
    )


def rows_of(pages) -> list[tuple]:
    out: list[tuple] = []
    for page in pages:
        out.extend(page.to_rows())
    return out


def assert_identical(actual: list[tuple], expected: list[tuple]) -> None:
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want
        for g, w in zip(got, want):
            assert type(g) is type(w), f"{g!r} ({type(g)}) vs {w!r} ({type(w)})"


def paged(types, rows, page_size=7) -> list[Page]:
    return [
        Page.from_rows(types, rows[i : i + page_size])
        for i in range(0, max(len(rows), 1), page_size)
    ]


def run_agg_both(node, pages) -> tuple[list[tuple], list[tuple]]:
    vec = rows_of(execute_aggregation(node, make_ctx(), iter(pages)))
    ref = rows_of(execute_aggregation_rows(node, make_ctx(), iter(pages)))
    return vec, ref


class TestAggregationDifferential:
    def _random_rows(self, seed, n, key_pool, value_kind="double"):
        rng = random.Random(seed)
        rows = []
        for _ in range(n):
            key = rng.choice(key_pool)
            if value_kind == "double":
                value = None if rng.random() < 0.15 else round(rng.uniform(-50, 50), 3)
            else:
                value = None if rng.random() < 0.15 else rng.randint(-100, 100)
            rows.append((key, value))
        return rows

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grouped_numeric_with_null_keys(self, seed):
        rows = self._random_rows(seed, 200, [None, 1, 2, 3, 4, 5])
        pages = paged([BIGINT, DOUBLE], rows)
        node = agg_node(
            source_node([("k", BIGINT), ("v", DOUBLE)]),
            ["k"],
            [
                ("sum", ["v"], False, "s"),
                ("count", ["v"], False, "c"),
                ("avg", ["v"], False, "a"),
                ("min", ["v"], False, "lo"),
                ("max", ["v"], False, "hi"),
            ],
        )
        vec, ref = run_agg_both(node, pages)
        assert_identical(vec, ref)

    def test_count_star_and_bigint_sum(self):
        rows = self._random_rows(7, 150, [10, 20, None], value_kind="int")
        pages = paged([BIGINT, BIGINT], rows)
        node = agg_node(
            source_node([("k", BIGINT), ("v", BIGINT)]),
            ["k"],
            [("count", [], False, "c"), ("sum", ["v"], False, "s")],
        )
        vec, ref = run_agg_both(node, pages)
        assert_identical(vec, ref)

    def test_varchar_keys_object_dtype(self):
        rows = self._random_rows(3, 120, ["ny", "sf", "la", None])
        pages = paged([VARCHAR, DOUBLE], rows)
        node = agg_node(
            source_node([("city", VARCHAR), ("v", DOUBLE)]),
            ["city"],
            [("sum", ["v"], False, "s"), ("count", [], False, "c")],
        )
        vec, ref = run_agg_both(node, pages)
        assert_identical(vec, ref)

    def test_varchar_min_max_uses_generic_fallback(self):
        rows = [(i % 3, s) for i, s in enumerate(["b", "a", None, "z", "m", "a"])]
        pages = paged([BIGINT, VARCHAR], rows, page_size=2)
        node = agg_node(
            source_node([("k", BIGINT), ("s", VARCHAR)]),
            ["k"],
            [("min", ["s"], False, "lo"), ("max", ["s"], False, "hi")],
        )
        vec, ref = run_agg_both(node, pages)
        assert_identical(vec, ref)

    def test_multi_column_keys(self):
        rng = random.Random(11)
        rows = [
            (rng.choice([None, 1, 2]), rng.choice(["a", "b", None]), rng.randint(0, 9))
            for _ in range(180)
        ]
        pages = paged([BIGINT, VARCHAR, BIGINT], rows)
        node = agg_node(
            source_node([("a", BIGINT), ("b", VARCHAR), ("v", BIGINT)]),
            ["a", "b"],
            [("sum", ["v"], False, "s"), ("count", ["v"], False, "c")],
        )
        vec, ref = run_agg_both(node, pages)
        assert_identical(vec, ref)

    def test_distinct_aggregates(self):
        rows = self._random_rows(5, 160, [1, 2, None], value_kind="int")
        pages = paged([BIGINT, BIGINT], rows)
        node = agg_node(
            source_node([("k", BIGINT), ("v", BIGINT)]),
            ["k"],
            [
                ("sum", ["v"], True, "ds"),
                ("count", ["v"], True, "dc"),
                ("sum", ["v"], False, "s"),
            ],
        )
        vec, ref = run_agg_both(node, pages)
        assert_identical(vec, ref)

    def test_merge_mode_final_step(self):
        # Partial rows as a connector would return them after pushdown:
        # (key, partial_sum, partial_count, partial_min, partial_max).
        rng = random.Random(9)
        rows = [
            (
                rng.choice([1, 2, 3, None]),
                None if rng.random() < 0.1 else rng.randint(-40, 40),
                rng.randint(0, 10),
                None if rng.random() < 0.1 else rng.randint(-40, 40),
                None if rng.random() < 0.1 else rng.randint(-40, 40),
            )
            for _ in range(120)
        ]
        pages = paged([BIGINT, BIGINT, BIGINT, BIGINT, BIGINT], rows)
        node = agg_node(
            source_node(
                [
                    ("k", BIGINT),
                    ("ps", BIGINT),
                    ("pc", BIGINT),
                    ("plo", BIGINT),
                    ("phi", BIGINT),
                ]
            ),
            ["k"],
            [
                ("sum", ["ps"], False, "s"),
                ("count", ["pc"], False, "c"),
                ("min", ["plo"], False, "lo"),
                ("max", ["phi"], False, "hi"),
            ],
            step="FINAL",
        )
        vec, ref = run_agg_both(node, pages)
        assert_identical(vec, ref)

    def test_final_count_star_merges_partial_counts_on_the_kernel(self):
        # The fragmenter's FINAL count(*) keeps the zero-argument handle and
        # takes the partial-count column as its one argument.
        src = source_node([("k", BIGINT), ("pc", BIGINT)])
        node = agg_node(src, ["k"], [("count", [], False, "c")], step="FINAL")
        merging = replace(node.aggregations[0], arguments=(src.outputs[1],))
        node = replace(node, aggregations=(merging,))
        rng = random.Random(4)
        rows = [(rng.choice([1, 2, None]), rng.randint(0, 9)) for _ in range(50)]
        pages = paged([BIGINT, BIGINT], rows)
        ctx = make_ctx()
        vec = rows_of(execute_aggregation(node, ctx, iter(pages)))
        ref = rows_of(execute_aggregation_rows(node, make_ctx(), iter(pages)))
        assert_identical(vec, ref)
        assert ctx.stats.rows_processed_vectorized == 50
        assert ctx.stats.rows_processed_fallback == 0

        # A NULL partial count spills to GenericAccumulator mid-stream, so
        # the error is the reference's own.
        pages = paged([BIGINT, BIGINT], rows + [(1, None)])
        errors = []
        for operator in (execute_aggregation, execute_aggregation_rows):
            with pytest.raises(TypeError) as raised:
                rows_of(operator(node, make_ctx(), iter(pages)))
            errors.append(str(raised.value))
        assert errors[0] == errors[1]

    def test_empty_input_grouped_and_global(self):
        types = [BIGINT, DOUBLE]
        empty = [Page.from_rows(types, [])]
        src = source_node([("k", BIGINT), ("v", DOUBLE)])
        grouped = agg_node(src, ["k"], [("sum", ["v"], False, "s")])
        vec, ref = run_agg_both(grouped, empty)
        assert_identical(vec, ref)
        assert vec == []
        global_node = agg_node(src, [], [("count", [], False, "c"), ("sum", ["v"], False, "s")])
        vec, ref = run_agg_both(global_node, empty)
        assert_identical(vec, ref)
        assert vec == [(0, None)]

    def test_dictionary_block_keys_group_on_ids(self):
        dictionary = PrimitiveBlock.from_values(VARCHAR, ["sf", "ny", "la"])
        ids = np.array([0, 1, 2, 0, 1, -1, 2, 0], dtype=np.int64)
        keys = DictionaryBlock(dictionary, ids)
        values = PrimitiveBlock.from_values(DOUBLE, [1.0, 2.0, 3.0, 4.0, None, 6.0, 7.0, 8.0])
        pages = [Page([keys, values])]
        node = agg_node(
            source_node([("city", VARCHAR), ("v", DOUBLE)]),
            ["city"],
            [("sum", ["v"], False, "s"), ("count", [], False, "c")],
        )
        vec, ref = run_agg_both(node, pages)
        assert_identical(vec, ref)

    def test_dictionary_with_duplicate_values_merges_groups(self):
        # A dictionary holding the same value twice must not split a group.
        dictionary = PrimitiveBlock.from_values(VARCHAR, ["sf", "ny", "sf"])
        ids = np.array([0, 1, 2, 0, 2], dtype=np.int64)
        keys = DictionaryBlock(dictionary, ids)
        values = PrimitiveBlock.from_values(BIGINT, [1, 2, 3, 4, 5])
        pages = [Page([keys, values])]
        node = agg_node(
            source_node([("city", VARCHAR), ("v", BIGINT)]),
            ["city"],
            [("sum", ["v"], False, "s")],
        )
        vec, ref = run_agg_both(node, pages)
        assert_identical(vec, ref)
        assert sorted(r[0] for r in vec) == ["ny", "sf"]

    def test_mixed_type_object_keys_fall_back(self):
        # ints and strings in one object column defeat np.unique; the
        # row-at-a-time key path must kick in transparently.
        keys = PrimitiveBlock.from_values(VARCHAR, [1, "a", 1, "a", "b", None])
        values = PrimitiveBlock.from_values(BIGINT, [1, 2, 3, 4, 5, 6])
        pages = [Page([keys, values])]
        node = agg_node(
            source_node([("k", VARCHAR), ("v", BIGINT)]),
            ["k"],
            [("sum", ["v"], False, "s")],
        )
        ctx = make_ctx()
        vec = rows_of(execute_aggregation(node, ctx, iter(pages)))
        ref = rows_of(execute_aggregation_rows(node, make_ctx(), iter(pages)))
        assert_identical(vec, ref)
        assert ctx.stats.rows_processed_fallback == 6

    @pytest.mark.parametrize("step", ["SINGLE", "FINAL"])
    def test_bigint_sum_out_of_range_raises_in_both_lanes(self, step):
        pages = paged([BIGINT, BIGINT], [(1, 2**62), (2, 7), (1, 2**62 - 1), (1, 1)], 3)
        node = agg_node(
            source_node([("k", BIGINT), ("v", BIGINT)]),
            ["k"],
            [("sum", ["v"], False, "s")],
            step=step,
        )
        for operator in (execute_aggregation, execute_aggregation_rows):
            with pytest.raises(InvalidValueError, match="out of range"):
                rows_of(operator(node, make_ctx(), iter(pages)))
        # One row fewer fits: both lanes return the largest int64.
        vec, ref = run_agg_both(node, pages[:1])
        assert_identical(vec, ref)
        assert vec == [(1, 2**63 - 1), (2, 7)]

    def test_min_max_over_nan_warns_nothing(self):
        nan = float("nan")
        pages = paged([BIGINT, DOUBLE], [(1, nan), (1, 1.0), (2, 2.0), (2, nan), (1, 3.0)], 2)
        node = agg_node(
            source_node([("k", BIGINT), ("v", DOUBLE)]),
            ["k"],
            [("max", ["v"], False, "hi"), ("min", ["v"], False, "lo")],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec, ref = run_agg_both(node, pages)
        # The kernel propagates NaN wherever it arrives.  The row fold keeps
        # a NaN only when it arrives first: ``x > nan`` and ``nan > x`` are
        # both false, so group 1 stays NaN and group 2 stays 2.0.
        assert list(map(repr, vec)) == ["(1, nan, nan)", "(2, nan, nan)"]
        assert list(map(repr, ref)) == ["(1, nan, nan)", "(2, 2.0, 2.0)"]

    def test_stats_count_vectorized_rows(self):
        rows = self._random_rows(2, 60, [1, 2, 3])
        pages = paged([BIGINT, DOUBLE], rows)
        node = agg_node(
            source_node([("k", BIGINT), ("v", DOUBLE)]),
            ["k"],
            [("sum", ["v"], False, "s")],
        )
        ctx = make_ctx()
        rows_of(execute_aggregation(node, ctx, iter(pages)))
        assert ctx.stats.rows_processed_vectorized == 60
        assert ctx.stats.rows_processed_fallback == 0

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(min_value=-3, max_value=3)),
                st.one_of(
                    st.none(),
                    st.integers(min_value=-1000, max_value=1000).map(lambda v: v / 8),
                ),
            ),
            max_size=60,
        ),
        distinct=st.booleans(),
    )
    def test_property_grouped_aggregation_matches_reference(self, data, distinct):
        pages = paged([BIGINT, DOUBLE], data, page_size=9)
        node = agg_node(
            source_node([("k", BIGINT), ("v", DOUBLE)]),
            ["k"],
            [
                ("sum", ["v"], distinct, "s"),
                ("count", ["v"], distinct, "c"),
                ("avg", ["v"], False, "a"),
                ("min", ["v"], False, "lo"),
                ("max", ["v"], False, "hi"),
            ],
        )
        vec, ref = run_agg_both(node, pages)
        assert_identical(vec, ref)


# -- the array-native lane: batches, block-keyed groups, PARTIAL -> FINAL ------

NAN = float("nan")
# Rows per aggregation batch while these tests run (65 536 in production),
# so the BATCH - 1 / BATCH / BATCH + 1 / 2 x BATCH + 1 shapes stay small.
BATCH = 16

_GROUP_KEY_CELLS = {
    BIGINT: st.one_of(st.none(), st.integers(-2, 6)),
    DOUBLE: st.one_of(st.none(), st.sampled_from([NAN, 0.0, -0.0, 1.5, -3.0, 2.0**60])),
    VARCHAR: st.one_of(st.none(), st.sampled_from(["", "a", "b", "ab", "\u00e9", "\u6f22\u5b57"])),
    BOOLEAN: st.one_of(st.none(), st.booleans()),
}
_VALUE_CELL = st.one_of(st.none(), st.integers(-50, 50))

# How many rows arrive, in pages of what size; ``odd`` appends one page whose
# varchar keys do not factorize, after the ones that do.
_SHAPES = {
    "one page": lambda draw: (draw(st.integers(0, BATCH)), BATCH),
    "many pages, one batch": lambda draw: (draw(st.integers(4, BATCH)), 3),
    "BATCH - 1": lambda draw: (BATCH - 1, draw(st.sampled_from([1, 5, BATCH]))),
    "BATCH": lambda draw: (BATCH, draw(st.sampled_from([1, 4, BATCH]))),
    "BATCH + 1": lambda draw: (BATCH + 1, draw(st.sampled_from([1, 4, BATCH + 1]))),
    "2 x BATCH + 1": lambda draw: (2 * BATCH + 1, draw(st.sampled_from([3, BATCH]))),
    "odd": lambda draw: (draw(st.integers(1, 2 * BATCH + 1)), draw(st.sampled_from([3, BATCH]))),
}


@st.composite
def grouped_inputs(draw):
    """(key types, pages): one to three key columns and a bigint value column."""
    shape = draw(st.sampled_from(sorted(_SHAPES)))
    key_types = draw(st.lists(st.sampled_from(list(_GROUP_KEY_CELLS)), min_size=1, max_size=3))
    if shape == "odd":
        key_types[0] = VARCHAR
    count, page_size = _SHAPES[shape](draw)
    encoded = [draw(st.booleans()) for _ in key_types]
    columns = [
        draw(st.lists(_GROUP_KEY_CELLS[t], min_size=count, max_size=count))
        for t in key_types
    ]
    values = draw(st.lists(_VALUE_CELL, min_size=count, max_size=count))
    pages = []
    for start in range(0, count, page_size):
        blocks = []
        for presto_type, column, as_dictionary in zip(key_types, columns, encoded):
            cells = column[start : start + page_size]
            if as_dictionary:
                # One dictionary per page, as one per parquet column chunk.
                # Keyed by repr: nan finds itself, -0.0 stays apart from 0.0.
                entries = {repr(c): c for c in cells if c is not None}
                slots = {text: slot for slot, text in enumerate(entries)}
                block = DictionaryBlock(
                    block_from_values(presto_type, list(entries.values()) or [None]),
                    np.array(
                        [-1 if c is None else slots[repr(c)] for c in cells],
                        dtype=np.int64,
                    ),
                )
            else:
                block = block_from_values(presto_type, cells)
            blocks.append(block)
        blocks.append(block_from_values(BIGINT, values[start : start + page_size]))
        pages.append(Page(blocks))
    if shape == "odd":
        odd_keys = [1, "a", None, "a", 1]
        blocks = [PrimitiveBlock.from_values(VARCHAR, odd_keys)]
        blocks += [constant_block(None, t, len(odd_keys)) for t in key_types[1:]]
        blocks.append(block_from_values(BIGINT, [1, 2, 3, 4, 5]))
        pages.append(Page(blocks))
    return key_types, pages


def grouped_node(key_types, step="SINGLE") -> AggregationNode:
    names = [f"k{i}" for i in range(len(key_types))]
    source = source_node(list(zip(names, key_types)) + [("v", BIGINT)])
    return agg_node(
        source,
        names,
        [
            ("count", [], False, "c"),
            ("sum", ["v"], False, "s"),
            ("avg", ["v"], False, "a"),
            ("min", ["v"], False, "lo"),
            ("max", ["v"], False, "hi"),
        ],
        step=step,
    )


def final_node(partial: AggregationNode) -> AggregationNode:
    """The FINAL step the fragmenter puts beyond the exchange."""
    remote = source_node([(v.name, v.type) for v in partial.outputs])
    merging = tuple(replace(a, arguments=(a.output,)) for a in partial.aggregations)
    return AggregationNode(
        source=remote, group_keys=partial.group_keys, aggregations=merging, step="FINAL"
    )


def staged_rows(operator, key_types, pages) -> list[tuple]:
    """PARTIAL per task, a partitioned exchange, FINAL per partition."""
    partial = grouped_node(key_types, step="PARTIAL")
    names = tuple(v.name for v in partial.group_keys)
    buffer = ExchangeBuffer(
        Exchange(ExchangeKind.REPARTITION, 0, names, partitioned=True),
        list(range(len(names))),
    )
    for task in range(3):
        for page in operator(partial, make_ctx(), iter(pages[task::3])):
            buffer.add(page)
    buffer.set_partition_count(2)
    final = final_node(partial)
    return [
        row
        for partition in range(2)
        for row in rows_of(
            operator(final, make_ctx(), iter(buffer.pages_for_partition(partition)))
        )
    ]


def assert_same_groups(actual: list[tuple], expected: list[tuple]) -> None:
    """Equal values, types and group order; repr tells -0.0 from 0.0."""
    assert_identical(actual, expected)
    assert list(map(repr, actual)) == list(map(repr, expected))


class TestArrayNativeAggregation:
    @pytest.fixture(autouse=True, scope="class")
    def small_batches(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "TARGET_PARTITION_ROWS", BATCH)
            # Two key columns of a handful of values already re-compact.
            patch.setattr(kernels, "_MAX_RADIX", 12)
            yield

    @settings(max_examples=300, deadline=None)
    @given(grouped_inputs())
    def test_single_step_matches_the_row_reference(self, grouped):
        key_types, pages = grouped
        node = grouped_node(key_types)
        vec, ref = run_agg_both(node, pages)
        assert_same_groups(vec, ref)

    @settings(max_examples=200, deadline=None)
    @given(grouped_inputs())
    def test_partial_to_final_through_an_exchange_matches_the_row_reference(self, grouped):
        key_types, pages = grouped
        assert_same_groups(
            staged_rows(execute_aggregation, key_types, pages),
            staged_rows(execute_aggregation_rows, key_types, pages),
        )

    def test_the_shapes_cross_batch_boundaries(self):
        # The strategy above is only as good as its shapes: count the batches.
        sizes = []
        original = kernels.factorize_keys

        def counting(blocks):
            sizes.append(blocks[0].position_count)
            return original(blocks)

        node = grouped_node([BIGINT])
        rows = [(i % 5, i) for i in range(2 * BATCH + 1)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "factorize_keys", counting)
            rows_of(execute_aggregation(node, make_ctx(), iter(paged([BIGINT, BIGINT], rows, 4))))
        assert sizes == [BATCH, BATCH, 1]

    def test_wide_keys_recompact_the_radix(self):
        calls = []
        original = np.unique

        def counting(array, *args, **kwargs):
            calls.append(kwargs)
            return original(array, *args, **kwargs)

        blocks = [
            PrimitiveBlock.from_values(BIGINT, [1, 2, 3, 4, 1]),
            PrimitiveBlock.from_values(BIGINT, [5, 6, 7, 8, 5]),
            PrimitiveBlock.from_values(BIGINT, [9, 9, 8, 8, 9]),
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "unique", counting)
            codes, keys = kernels.factorize_keys(blocks)
        # One per column, and one re-compaction before the second and third.
        assert len(calls) == 5
        assert codes.tolist() == [0, 1, 2, 3, 0]
        assert key_rows(keys) == [(1, 5, 9), (2, 6, 9), (3, 7, 8), (4, 8, 8)]

    def test_one_batch_never_builds_the_key_dict(self):
        indexes = []

        class Recording(kernels.GroupIndex):
            def __init__(self):
                super().__init__()
                indexes.append(self)

        node = grouped_node([BIGINT, VARCHAR])
        rows = [(i % 3, "ab"[i % 2], i) for i in range(BATCH)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "GroupIndex", Recording)
            one = rows_of(
                execute_aggregation(node, make_ctx(), iter(paged([BIGINT, VARCHAR, BIGINT], rows, 3)))
            )
            two = rows_of(
                execute_aggregation(
                    node, make_ctx(), iter(paged([BIGINT, VARCHAR, BIGINT], rows + rows, 3))
                )
            )
        assert len(one) == len(two) == 6
        single_batch, two_batches = indexes
        # Keys went from the batch to the output page as blocks.
        assert single_batch._ids is None
        # A second batch is matched against the first through the dict.
        assert len(two_batches._ids) == 6


def join_node(join_type, left_spec, right_spec, criteria_names, join_filter=None):
    left = source_node(left_spec)
    right = source_node(right_spec)
    left_by_name = {v.name: v for v in left.outputs}
    right_by_name = {v.name: v for v in right.outputs}
    criteria = tuple(
        (left_by_name[l], right_by_name[r]) for l, r in criteria_names
    )
    return JoinNode(
        join_type=join_type,
        left=left,
        right=right,
        criteria=criteria,
        filter=join_filter,
    )


def reference_join(node, ctx, left_pages, right_pages):
    """execute_join's dispatch, with the row-at-a-time hash join inside."""
    if node.join_type == "right":
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
        reorder = list(range(right_width, right_width + left_width)) + list(
            range(right_width)
        )
        for page in _hash_join_rows(swapped, ctx, iter(right_pages), iter(left_pages)):
            yield page.select_channels(reorder)
        return
    yield from _hash_join_rows(node, ctx, iter(left_pages), iter(right_pages))


def run_join_both(node, left_pages, right_pages):
    vec = rows_of(
        execute_join(node, make_ctx(), iter(left_pages), iter(right_pages))
    )
    ref = rows_of(reference_join(node, make_ctx(), left_pages, right_pages))
    return vec, ref


def scalar_call(name, args):
    registry = default_registry()
    handle, _ = registry.resolve_scalar(name, [a.type for a in args])
    return CallExpression(name, handle, handle.resolved_return_type(), tuple(args))


class TestJoinDifferential:
    def _sides(self, seed, n_left=90, n_right=40, key_pool=None):
        rng = random.Random(seed)
        key_pool = key_pool or [None, 1, 2, 3, 4, 5, 6]
        left = [(rng.choice(key_pool), rng.randint(0, 99)) for _ in range(n_left)]
        right = [(rng.choice(key_pool), rng.uniform(0, 1)) for _ in range(n_right)]
        return (
            paged([BIGINT, BIGINT], left, page_size=13),
            paged([BIGINT, DOUBLE], right, page_size=11),
        )

    @pytest.mark.parametrize("join_type", ["inner", "left", "right"])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_equi_join_with_null_keys_and_duplicates(self, join_type, seed):
        left_pages, right_pages = self._sides(seed)
        node = join_node(
            join_type,
            [("lk", BIGINT), ("lv", BIGINT)],
            [("rk", BIGINT), ("rv", DOUBLE)],
            [("lk", "rk")],
        )
        vec, ref = run_join_both(node, left_pages, right_pages)
        assert_identical(vec, ref)

    def test_varchar_keys(self):
        rng = random.Random(21)
        pool = ["a", "b", "c", None, "d"]
        left = [(rng.choice(pool), rng.randint(0, 9)) for _ in range(70)]
        right = [(rng.choice(pool), rng.randint(0, 9)) for _ in range(30)]
        left_pages = paged([VARCHAR, BIGINT], left, page_size=17)
        right_pages = paged([VARCHAR, BIGINT], right, page_size=9)
        node = join_node(
            "left",
            [("lk", VARCHAR), ("lv", BIGINT)],
            [("rk", VARCHAR), ("rv", BIGINT)],
            [("lk", "rk")],
        )
        vec, ref = run_join_both(node, left_pages, right_pages)
        assert_identical(vec, ref)

    def test_multi_key_join(self):
        rng = random.Random(31)
        left = [
            (rng.choice([1, 2, None]), rng.choice(["x", "y"]), rng.randint(0, 9))
            for _ in range(80)
        ]
        right = [
            (rng.choice([1, 2, None]), rng.choice(["x", "y", "z"]), rng.randint(0, 9))
            for _ in range(30)
        ]
        left_pages = paged([BIGINT, VARCHAR, BIGINT], left)
        right_pages = paged([BIGINT, VARCHAR, BIGINT], right)
        node = join_node(
            "inner",
            [("la", BIGINT), ("lb", VARCHAR), ("lv", BIGINT)],
            [("ra", BIGINT), ("rb", VARCHAR), ("rv", BIGINT)],
            [("la", "ra"), ("lb", "rb")],
        )
        vec, ref = run_join_both(node, left_pages, right_pages)
        assert_identical(vec, ref)

    @pytest.mark.parametrize("join_type", ["inner", "left"])
    def test_join_with_residual_filter(self, join_type):
        left_pages, right_pages = self._sides(8, key_pool=[1, 2, 3])
        node = join_node(
            join_type,
            [("lk", BIGINT), ("lv", BIGINT)],
            [("rk", BIGINT), ("rv", DOUBLE)],
            [("lk", "rk")],
        )
        predicate = scalar_call(
            "greater_than",
            [variable("lv", BIGINT), variable("lk", BIGINT)],
        )
        node = JoinNode(
            join_type=node.join_type,
            left=node.left,
            right=node.right,
            criteria=node.criteria,
            filter=predicate,
        )
        vec, ref = run_join_both(node, left_pages, right_pages)
        assert_identical(vec, ref)

    def test_empty_build_and_empty_probe(self):
        node = join_node(
            "left",
            [("lk", BIGINT), ("lv", BIGINT)],
            [("rk", BIGINT), ("rv", DOUBLE)],
            [("lk", "rk")],
        )
        left_pages = paged([BIGINT, BIGINT], [(1, 2), (None, 3), (4, 5)])
        empty_right = [Page.from_rows([BIGINT, DOUBLE], [])]
        vec, ref = run_join_both(node, left_pages, empty_right)
        assert_identical(vec, ref)
        empty_left = [Page.from_rows([BIGINT, BIGINT], [])]
        right_pages = paged([BIGINT, DOUBLE], [(1, 0.5)])
        vec, ref = run_join_both(node, empty_left, right_pages)
        assert_identical(vec, ref)

    def test_dictionary_build_keys(self):
        dictionary = PrimitiveBlock.from_values(BIGINT, [10, 20, 30])
        ids = np.array([0, 1, 2, 1, -1], dtype=np.int64)
        build_keys = DictionaryBlock(dictionary, ids)
        build_vals = PrimitiveBlock.from_values(DOUBLE, [0.1, 0.2, 0.3, 0.4, 0.5])
        right_pages = [Page([build_keys, build_vals])]
        left_pages = paged([BIGINT, BIGINT], [(10, 1), (20, 2), (99, 3), (None, 4)])
        node = join_node(
            "left",
            [("lk", BIGINT), ("lv", BIGINT)],
            [("rk", BIGINT), ("rv", DOUBLE)],
            [("lk", "rk")],
        )
        vec, ref = run_join_both(node, left_pages, right_pages)
        assert_identical(vec, ref)

    def test_stats_count_vectorized_probe_rows(self):
        left_pages, right_pages = self._sides(1, n_left=50)
        node = join_node(
            "inner",
            [("lk", BIGINT), ("lv", BIGINT)],
            [("rk", BIGINT), ("rv", DOUBLE)],
            [("lk", "rk")],
        )
        ctx = make_ctx()
        rows_of(execute_join(node, ctx, iter(left_pages), iter(right_pages)))
        assert ctx.stats.rows_processed_vectorized == 50
        assert ctx.stats.peak_build_rows == 40

    def test_mixed_type_probe_keys_fall_back_per_page(self):
        # Probe values that cannot be ordered against the build side's
        # (str vs int) make JoinKeyIndex raise FallbackNeeded; the page
        # must route through the row-at-a-time probe with identical output.
        left = [("a", 1), (7, 2), ("b", 3), (None, 4)]
        right = [("a", 10), ("b", 20), ("b", 30)]
        left_pages = paged([VARCHAR, BIGINT], left, page_size=2)
        right_pages = paged([VARCHAR, BIGINT], right)
        node = join_node(
            "left",
            [("lk", VARCHAR), ("lv", BIGINT)],
            [("rk", VARCHAR), ("rv", BIGINT)],
            [("lk", "rk")],
        )
        ctx = make_ctx()
        vec = rows_of(execute_join(node, ctx, iter(left_pages), iter(right_pages)))
        ref = rows_of(reference_join(node, make_ctx(), left_pages, right_pages))
        assert_identical(vec, ref)
        # The ("a", 7) page is incomparable; the ("b", None) page is fine.
        assert ctx.stats.rows_processed_fallback == 2
        assert ctx.stats.rows_processed_vectorized == 2

    def test_unfactorizable_build_keys_count_probe_rows_as_fallback(self):
        # str and int build keys in one object column defeat np.unique, so
        # there is no index and the reference joins every probe page.
        left_pages = paged([VARCHAR, BIGINT], [("a", 1), ("b", 2), (None, 3), ("a", 4)], 3)
        build_keys = PrimitiveBlock.from_values(VARCHAR, ["a", 7, "a"])
        right_pages = [Page([build_keys, PrimitiveBlock.from_values(BIGINT, [10, 70, 11])])]
        node = join_node(
            "left",
            [("lk", VARCHAR), ("lv", BIGINT)],
            [("rk", VARCHAR), ("rv", BIGINT)],
            [("lk", "rk")],
        )
        ctx = make_ctx()
        vec = rows_of(execute_join(node, ctx, iter(left_pages), iter(right_pages)))
        ref = rows_of(reference_join(node, make_ctx(), left_pages, right_pages))
        assert_identical(vec, ref)
        assert ctx.stats.rows_processed_fallback == 4
        assert ctx.stats.rows_processed_vectorized == 0

    @settings(max_examples=25, deadline=None)
    @given(
        left=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=40,
        ),
        right=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=25,
        ),
        join_type=st.sampled_from(["inner", "left"]),
    )
    def test_property_join_matches_reference(self, left, right, join_type):
        left_pages = paged([BIGINT, BIGINT], left, page_size=7)
        right_pages = paged([BIGINT, BIGINT], right, page_size=6)
        node = join_node(
            join_type,
            [("lk", BIGINT), ("lv", BIGINT)],
            [("rk", BIGINT), ("rv", BIGINT)],
            [("lk", "rk")],
        )
        vec, ref = run_join_both(node, left_pages, right_pages)
        assert_identical(vec, ref)


def topn_node(names_and_types, order_by, count) -> TopNNode:
    """``order_by`` is a list of (column name, ascending)."""
    src = source_node(names_and_types)
    by_name = {v.name: v for v in src.outputs}
    return TopNNode(
        source=src,
        count=count,
        order_by=tuple((by_name[name], ascending) for name, ascending in order_by),
    )


def nan_tagged(*row_lists):
    """NaN never equals itself; compare it as a tag instead."""
    return [
        [
            tuple("NaN" if isinstance(v, float) and v != v else v for v in row)
            for row in rows
        ]
        for rows in row_lists
    ]


class TestSortAndTopNDifferential:
    def _pages(self, seed, n=120):
        rng = random.Random(seed)
        rows = [
            (
                rng.choice([None, 1, 2, 3]),
                rng.choice(["a", "b", None, "c"]),
                rng.uniform(-5, 5),
            )
            for _ in range(n)
        ]
        return paged([BIGINT, VARCHAR, DOUBLE], rows, page_size=19)

    @pytest.mark.parametrize(
        "directions", [[True, True], [False, True], [True, False], [False, False]]
    )
    def test_sort_matches_reference(self, directions):
        pages = self._pages(3)
        src = source_node([("a", BIGINT), ("b", VARCHAR), ("v", DOUBLE)])
        by_name = {v.name: v for v in src.outputs}
        node = SortNode(
            source=src,
            order_by=(
                (by_name["a"], directions[0]),
                (by_name["b"], directions[1]),
            ),
        )
        vec = rows_of(execute_sort(node, make_ctx(), iter(pages)))
        ref = _sorted_rows(node, iter(pages))
        assert_identical(vec, ref)

    def test_sort_is_stable(self):
        rows = [(1, "x", float(i)) for i in range(50)]
        pages = paged([BIGINT, VARCHAR, DOUBLE], rows, page_size=8)
        src = source_node([("a", BIGINT), ("b", VARCHAR), ("v", DOUBLE)])
        by_name = {v.name: v for v in src.outputs}
        node = SortNode(source=src, order_by=((by_name["a"], True),))
        vec = rows_of(execute_sort(node, make_ctx(), iter(pages)))
        assert vec == rows  # equal keys keep arrival order

    @pytest.mark.parametrize("count", [0, 1, 5, 17, 1000])
    def test_topn_matches_truncated_stable_sort(self, count):
        pages = self._pages(6)
        src = source_node([("a", BIGINT), ("b", VARCHAR), ("v", DOUBLE)])
        by_name = {v.name: v for v in src.outputs}
        node = TopNNode(
            source=src,
            count=count,
            order_by=((by_name["a"], True), (by_name["b"], False)),
        )
        got = rows_of(execute_topn(node, make_ctx(), iter(pages)))
        expected = _sorted_rows(node, iter(self._pages(6)))[:count]
        assert_identical(got, expected)

    @pytest.mark.parametrize(
        "directions", [[True, True], [False, True], [True, False], [False, False]]
    )
    @pytest.mark.parametrize("count", [3, 40, 500])
    def test_topn_kernel_lane_matches_reference(self, directions, count):
        # Double and varchar keys with NULL, -0.0 beside 0.0 and few distinct
        # values, so ties straddle every 19-row page boundary; a NaN payload
        # column rides along.  ``count`` 500 exceeds the 120 input rows.
        rng = random.Random(12)
        rows = [
            (
                rng.choice([None, -0.0, 0.0, 1.5, -2.25]),
                rng.choice(["a", "bb", None, ""]),
                rng.choice([float("nan"), float(i)]),
            )
            for i in range(120)
        ]
        pages = paged([DOUBLE, VARCHAR, DOUBLE], rows, page_size=19)
        node = topn_node(
            [("d", DOUBLE), ("s", VARCHAR), ("v", DOUBLE)],
            [("d", directions[0]), ("s", directions[1])],
            count,
        )
        ctx = make_ctx()
        got = rows_of(execute_topn(node, ctx, iter(pages)))
        assert_identical(*nan_tagged(got, _sorted_rows(node, iter(pages))[:count]))
        assert ctx.stats.rows_processed_vectorized == 120
        assert ctx.stats.rows_processed_fallback == 0

    def test_topn_nan_keys_rank_with_null_like_sort(self):
        # ``_sorted_rows`` has no total order over NaN (it compares false
        # both ways), so the reference for NaN keys is the kernel sort: NaN
        # canonicalizes to NULL, last ascending and first descending.
        nan = float("nan")
        rows = [(nan, 0), (2.0, 1), (None, 2), (1.0, 3), (nan, 4), (3.0, 5)]
        pages = paged([DOUBLE, BIGINT], rows, page_size=2)
        for ascending, expected in ((True, [3, 1, 5, 0]), (False, [0, 2, 4, 5])):
            node = topn_node([("d", DOUBLE), ("i", BIGINT)], [("d", ascending)], 4)
            got = rows_of(execute_topn(node, make_ctx(), iter(pages)))
            assert [row[1] for row in got] == expected
            sort = SortNode(source=node.source, order_by=node.order_by)
            full = rows_of(execute_sort(sort, make_ctx(), iter(pages)))
            assert_identical(*nan_tagged(got, full[:4]))

    def test_array_keys_take_the_reference_lane(self):
        # Arrays order fine in Python but do not factorize.  The first page
        # carries the key column as the all-NULL block a hive scan fills in
        # for a column its file predates, which the kernel ranks; the
        # ArrayBlock on the second page sends the survivors and everything
        # after them to ``_sorted_rows``.
        array = ArrayType(BIGINT)
        first = Page(
            [constant_block(None, array, 3), PrimitiveBlock.from_values(BIGINT, [0, 1, 2])]
        )
        rest = paged(
            [array, BIGINT], [([2], 3), ([1, 5], 4), (None, 5), ([1], 6), ([2], 7)], 2
        )
        pages = [first] + rest
        for ascending in (True, False):
            node = topn_node([("a", array), ("i", BIGINT)], [("a", ascending)], 4)
            ctx = make_ctx()
            got = rows_of(execute_topn(node, ctx, iter(pages)))
            assert_identical(got, _sorted_rows(node, iter(pages))[:4])
            assert ctx.stats.rows_processed_vectorized == 3
            assert ctx.stats.rows_processed_fallback == 5

            sort = SortNode(source=node.source, order_by=node.order_by)
            ctx = make_ctx()
            got = rows_of(execute_sort(sort, ctx, iter(pages)))
            assert_identical(got, _sorted_rows(sort, iter(pages)))
            assert ctx.stats.rows_processed_vectorized == 0
            assert ctx.stats.rows_processed_fallback == 8

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.none(), st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5])),
                st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b"])),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=50,
        ),
        directions=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        count=st.integers(min_value=0, max_value=60),
        page_size=st.integers(min_value=1, max_value=9),
    )
    def test_property_topn_matches_reference(self, rows, directions, count, page_size):
        rows = [row + (position,) for position, row in enumerate(rows)]
        pages = paged([DOUBLE, VARCHAR, BIGINT, BIGINT], rows, page_size)
        node = topn_node(
            [("d", DOUBLE), ("s", VARCHAR), ("i", BIGINT), ("arrival", BIGINT)],
            list(zip(["d", "s", "i"], directions)),
            count,
        )
        got = rows_of(execute_topn(node, make_ctx(), iter(pages)))
        assert_identical(got, _sorted_rows(node, iter(pages))[:count])


class TestKernels:
    def test_factorize_keys_null_and_values(self):
        block = PrimitiveBlock.from_values(BIGINT, [3, None, 3, 1, None])
        codes, keys = kernels.factorize_keys([block])
        uniques = key_rows(keys)
        assert uniques[codes[0]] == (3,)
        assert uniques[codes[1]] == (None,)
        assert uniques[codes[3]] == (1,)
        assert codes[0] == codes[2] and codes[1] == codes[4]

    def test_factorize_keys_unsupported_returns_none(self):
        block = block_from_values(ArrayType(BIGINT), [[1], [2]])
        assert kernels.factorize_keys([block]) is None

    def test_take_nullable_pads_nulls(self):
        block = PrimitiveBlock.from_values(BIGINT, [10, 20, 30])
        positions = np.array([2, -1, 0], dtype=np.int64)
        mask = positions < 0
        taken = kernels.take_nullable(block, positions, mask)
        assert taken.to_list() == [30, None, 10]

    def test_join_key_index_probe_and_expand(self):
        build = PrimitiveBlock.from_values(BIGINT, [10, 20, None, 10])
        index = kernels.build_join_index([build])
        probe = PrimitiveBlock.from_values(BIGINT, [20, 99, 10, None])
        codes = index.probe_codes([probe], 4)
        assert codes[1] == -1 and codes[3] == -1  # no match / null key
        probe_pos, build_pos = index.expand(codes)
        assert probe_pos.tolist() == [0, 2, 2]
        # Build positions come back in insertion order (rows 0 and 3).
        assert build_pos.tolist() == [1, 0, 3]

    def test_join_key_index_multi_column(self):
        a = PrimitiveBlock.from_values(BIGINT, [1, 1, 2])
        b = block_from_values(VARCHAR, ["x", "y", "x"])
        index = kernels.build_join_index([a, b])
        pa = PrimitiveBlock.from_values(BIGINT, [1, 2, 1])
        pb = block_from_values(VARCHAR, ["y", "y", None])
        codes = index.probe_codes([pa, pb], 3)
        probe_pos, build_pos = index.expand(codes)
        assert probe_pos.tolist() == [0]
        assert build_pos.tolist() == [1]

    def test_concat_pages_vectorized_matches_values(self):
        a = Page.from_rows([BIGINT, VARCHAR], [(1, "x"), (None, None)])
        b = Page.from_rows([BIGINT, VARCHAR], [(3, "y")])
        merged = concat_pages([BIGINT, VARCHAR], [a, b])
        assert merged.to_rows() == [(1, "x"), (None, None), (3, "y")]
        assert isinstance(merged.block(0), PrimitiveBlock)
        assert merged.block(0).values.dtype == np.int64


# -- group keys and partition placement against the row loop ------------------

NAN = float("nan")
_KEY_CELLS = [
    (BIGINT, st.one_of(st.none(), st.integers(-3, 3), st.sampled_from([2**62, -(2**63)]))),
    (
        DOUBLE,
        st.one_of(
            st.none(),
            st.sampled_from([0.0, -0.0, NAN, 1.5, -2.0, 1e300, float("inf")]),
        ),
    ),
    (
        VARCHAR,
        st.one_of(
            st.none(),
            st.sampled_from(["", "a", "b", "\u00e9", "\u6f22\u5b57", "a'b", "x\\y", "\x00"]),
        ),
    ),
]


@st.composite
def key_blocks(draw):
    """One to three key columns of equal length, flat or dictionary-encoded."""
    count = draw(st.integers(0, 25))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        presto_type, cell = draw(st.sampled_from(_KEY_CELLS))
        if draw(st.booleans()):
            dictionary = draw(st.lists(cell, min_size=1, max_size=5))
            ids = draw(
                st.lists(
                    st.integers(-1, len(dictionary) - 1), min_size=count, max_size=count
                )
            )
            block = DictionaryBlock(
                block_from_values(presto_type, dictionary), np.array(ids, dtype=np.int64)
            )
        else:
            block = block_from_values(
                presto_type, draw(st.lists(cell, min_size=count, max_size=count))
            )
        blocks.append(block)
    return blocks


def row_keys(blocks) -> list[tuple]:
    """The key tuple of every row, the way the row-at-a-time lanes build it."""
    return [
        tuple(kernels.canonical_key(block.get(i)) for block in blocks)
        for i in range(blocks[0].position_count)
    ]


def key_rows(key_blocks) -> list[tuple]:
    """Distinct keys of ``factorize_keys``, as the tuples the row lanes build."""
    return list(zip(*(block.to_list() for block in key_blocks)))


def partition_of(key: tuple, n: int) -> int:
    # Negative zero hashes as zero: the two are one SQL group.
    folded = tuple(0.0 if isinstance(v, float) and v == 0.0 else v for v in key)
    return stable_hash(folded) % n


class TestKeysAgainstTheRowLoop:
    @given(key_blocks(), st.sampled_from([1, 4, 7]))
    @settings(max_examples=300, deadline=None)
    def test_partition_assignments_hash_every_rows_key_tuple(self, blocks, n):
        expected = [partition_of(key, n) for key in row_keys(blocks)]
        assert kernels.partition_assignments(blocks, n).tolist() == expected

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_partition_assignments_row_lane(self, n):
        # A mixed-type object column does not factorize: rows hash one by one.
        blocks = [
            block_from_values(VARCHAR, [1, "a", None, None, 1, "a"]),
            PrimitiveBlock.from_values(DOUBLE, [-0.0, 0.0, NAN, None, 0.0, -0.0]),
        ]
        assert kernels.factorize_keys(blocks) is None
        expected = [partition_of(key, n) for key in row_keys(blocks)]
        assigned = kernels.partition_assignments(blocks, n).tolist()
        assert assigned == expected
        # +-0.0 and NaN/NULL fold here too: rows 0=4, 1=5 and 2=3 are one key each.
        assert assigned[:3] == [assigned[4], assigned[5], assigned[3]]

    def test_zero_and_negative_zero_share_a_partition(self):
        # Each in a page of its own, as two partial tasks would emit them:
        # within one page np.unique already merges the pair.
        for n in (4, 7):
            zero, negative = (
                kernels.partition_assignments(
                    [PrimitiveBlock.from_values(DOUBLE, [value, 1.0])], n
                )[0]
                for value in (0.0, -0.0)
            )
            assert zero == negative == stable_hash((0.0,)) % n

    @given(key_blocks())
    @settings(max_examples=300, deadline=None)
    def test_factorize_keys_uniques_are_the_row_loops_keys(self, blocks):
        keys = row_keys(blocks)
        codes, key_blocks_ = kernels.factorize_keys(blocks)
        uniques = key_rows(key_blocks_)
        assert [uniques[c] for c in codes.tolist()] == keys
        # First-appearance order; 0.0 and -0.0 are one key, NaN is NULL.
        expected = list(dict.fromkeys(keys))
        assert uniques == expected
        # Python scalars, never numpy ones: int, not np.int64.
        assert [tuple(map(type, key)) for key in uniques] == [
            tuple(map(type, key)) for key in expected
        ]

    def test_group_index_numbers_groups_like_the_per_key_loop(self):
        index, reference = kernels.GroupIndex(), {}
        for values in ([5, 3, 5, None], [3, 9, None, 9, 7], [1, 1], [9, 5]):
            block = PrimitiveBlock.from_values(BIGINT, values)
            codes, keys = kernels.factorize_keys([block])
            group_ids = index.map_codes(codes, keys)
            assert group_ids.tolist() == [
                reference.setdefault((v,), len(reference)) for v in values
            ]
        assert (
            key_rows(index.key_blocks([BIGINT]))
            == list(reference)
            == [(5,), (3,), (None,), (9,), (7,), (1,)]
        )


class TestUntypableColumns:
    """A column ``block_from_values`` cannot type travels in object storage:
    the fallback catches what that raises (``BLOCK_VALUE_ERRORS``)."""

    UNTYPABLE = [
        (BIGINT, ["text", 1]),  # ValueError
        (BIGINT, [2**70, 1]),  # OverflowError
        (DOUBLE, [{1}, 2.0]),  # TypeError
        (ArrayType(BIGINT), [3, None]),  # TypeError
        (parse_type("row(a bigint)"), [3, 4]),  # AttributeError
    ]

    @pytest.mark.parametrize("presto_type, values", UNTYPABLE)
    def test_states_block_keeps_untypable_states(self, presto_type, values):
        block = kernels.states_block(presto_type, values)
        assert block.values.dtype == object
        assert block.to_list() == values

    @pytest.mark.parametrize("presto_type, values", UNTYPABLE)
    def test_partial_page_keeps_untypable_keys(self, presto_type, values):
        page = _partial_page([presto_type], 1, [values], len(values))
        assert page.block(0).values.dtype == object
        assert page.block(0).to_list() == values

