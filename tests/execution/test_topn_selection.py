"""TopN selects before it sorts; group codes number first appearances.

``kernels.top_positions`` must be ``sort_order(...)[:count]`` position
for position, whatever selection it makes on a numeric first key, and
``execute_topn`` must be the stable full sort of its whole input cut to
``count``.  ``_factorize`` must number groups in first-appearance order in
both its dense-table and its ``np.unique`` branch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blocks import Block, DictionaryBlock, PrimitiveBlock, VarcharBlock
from repro.core.expressions import variable
from repro.core.page import Page, concat_pages
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution import kernels
from repro.execution.context import ExecutionContext
from repro.execution.operators import sorting
from repro.execution.operators.sorting import execute_topn
from repro.planner.plan import TopNNode, ValuesNode
from tests.reference.operators import _sorted_rows

NAN = float("nan")
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

# Small pools, so ties straddle every cut-off.
FIRST_KEY_VALUES = {
    "bigint": [None, INT64_MIN, INT64_MAX, -1, 0, 7],
    "double": [None, NAN, -0.0, 0.0, 1.5, -2.25, float("inf"), float("-inf")],
    "dictionary": [None, "", "AIR", "MAIL", "SHIP"],
    "varchar": [None, "", "a", "ab", "b"],
}
FIRST_KEY_TYPES = {"bigint": BIGINT, "double": DOUBLE, "dictionary": VARCHAR, "varchar": VARCHAR}


def _first_key_block(kind: str, values: list) -> Block:
    if kind == "bigint":
        return PrimitiveBlock.from_values(BIGINT, values)
    if kind == "double":
        return PrimitiveBlock.from_values(DOUBLE, values)
    if kind == "varchar":
        return VarcharBlock.from_values(values)
    dictionary = VarcharBlock.from_values(FIRST_KEY_VALUES["dictionary"][1:])
    ids = [-1 if v is None else FIRST_KEY_VALUES["dictionary"].index(v) - 1 for v in values]
    return DictionaryBlock(dictionary, np.array(ids, dtype=np.int64))


@st.composite
def topn_inputs(draw):
    kind = draw(st.sampled_from(sorted(FIRST_KEY_VALUES)))
    n = draw(st.integers(min_value=0, max_value=60))
    if draw(st.integers(0, 9)) == 0:
        firsts = [None] * n  # an all-NULL first key
    else:
        firsts = draw(st.lists(st.sampled_from(FIRST_KEY_VALUES[kind]), min_size=n, max_size=n))
    seconds = draw(st.lists(st.one_of(st.none(), st.integers(0, 2)), min_size=n, max_size=n))
    thirds = draw(st.lists(st.sampled_from([None, "x", "y"]), min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=0, max_size=5)))
    bounds = [0] + cuts + [n]  # 1-6 pages, some empty
    pages = [
        Page(
            [
                _first_key_block(kind, firsts[a:b]),
                PrimitiveBlock.from_values(BIGINT, seconds[a:b]),
                VarcharBlock.from_values(thirds[a:b]),
                PrimitiveBlock.from_values(BIGINT, list(range(a, b))),
            ],
            b - a,
        )
        for a, b in zip(bounds, bounds[1:])
    ]
    key_count = draw(st.integers(1, 3))
    directions = draw(st.lists(st.booleans(), min_size=key_count, max_size=key_count))
    count = draw(st.one_of(st.sampled_from([0, 1, n, n + 3]), st.integers(0, n)))
    has_nan = any(isinstance(v, float) and v != v for v in firsts)
    return kind, pages, directions, count, has_nan


def _node(kind: str, directions: list[bool], count: int) -> TopNNode:
    names_and_types = [
        ("k1", FIRST_KEY_TYPES[kind]), ("k2", BIGINT), ("k3", VARCHAR), ("arrival", BIGINT)
    ]
    source = ValuesNode(
        output_variables=tuple(variable(n, t) for n, t in names_and_types), rows=()
    )
    return TopNNode(
        source=source,
        count=count,
        order_by=tuple(zip(source.outputs[: len(directions)], directions)),
    )


def _rows(pages) -> list[tuple]:
    rows: list[tuple] = []
    for page in pages:
        rows.extend(page.to_rows())
    return [tuple("NaN" if isinstance(v, float) and v != v else v for v in row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(topn_inputs())
def test_topn_is_the_stable_full_sort_cut_to_n(drawn):
    kind, pages, directions, count, has_nan = drawn
    node = _node(kind, directions, count)
    types = [v.type for v in node.outputs]
    ctx = ExecutionContext(catalog=None)
    got = _rows(execute_topn(node, ctx, iter(pages)))
    whole = concat_pages(types, pages)
    keys = [whole.block(i) for i in range(len(directions))]
    expected = _rows([whole.take(kernels.sort_order(keys, directions)[:count])])
    assert got == expected
    assert ctx.stats.rows_processed_vectorized == whole.position_count
    if not has_nan:  # the row sort has no total order over NaN
        assert got == _rows([Page.from_rows(types, _sorted_rows(node, iter(pages))[:count])])


@settings(max_examples=300, deadline=None)
@given(topn_inputs())
def test_top_positions_is_sort_order_cut_to_count(drawn):
    kind, pages, directions, count, _ = drawn
    for page in pages:
        keys = [page.block(i) for i in range(len(directions))]
        expected = kernels.sort_order(keys, directions)[:count]
        got = kernels.top_positions(keys, directions, count)
        assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("ascending", [True, False])
def test_topn_never_concatenates_more_than_twice_count(ascending):
    rng = np.random.default_rng(3)
    pages = [
        Page(
            [
                PrimitiveBlock(DOUBLE, rng.integers(0, 50, size=500) / 2.0),
                PrimitiveBlock(BIGINT, rng.integers(0, 9, size=500)),
                VarcharBlock.from_values(["row"] * 500),
                PrimitiveBlock(BIGINT, np.arange(500, dtype=np.int64) + 500 * i),
            ],
            500,
        )
        for i in range(4)
    ]
    node = _node("double", [ascending, True], 10)
    sizes = []
    original = sorting.concat_pages

    def counting(types, merged):
        sizes.append(sum(page.position_count for page in merged))
        return original(types, merged)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sorting, "concat_pages", counting)
        got = _rows(execute_topn(node, ExecutionContext(catalog=None), iter(pages)))
    assert max(sizes) <= 20
    expected = _sorted_rows(node, iter(pages))[:10]
    assert got == _rows([Page.from_rows([v.type for v in node.outputs], expected)])


# ---------------------------------------------------------------------------
# First-appearance group numbering
# ---------------------------------------------------------------------------


def _first_appearance(blocks) -> tuple[list[int], list[int]]:
    """Group codes and first rows numbered by a dict over the key tuples."""
    groups: dict[tuple, int] = {}
    codes, reps = [], []
    columns = [block.to_list() for block in blocks]
    for row, key in enumerate(zip(*columns)):
        key = tuple(None if isinstance(v, float) and v != v else v for v in key)
        if key not in groups:
            groups[key] = len(groups)
            reps.append(row)
        codes.append(groups[key])
    return codes, reps


def _radix(blocks) -> int:
    radix = 1
    for block in blocks:
        radix *= len(kernels.column_codes(block)[1]) + 1
    return radix


def _assert_numbered_by_first_appearance(blocks) -> None:
    group_codes, reps, _ = kernels._factorize(blocks)
    codes, first_rows = _first_appearance(blocks)
    assert group_codes.tolist() == codes
    assert reps.tolist() == first_rows


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(-3, 3)),
            st.sampled_from([None, NAN, -0.0, 0.0, 2.5]),
            st.sampled_from([None, "a", "b"]),
        ),
        max_size=80,
    ),
    st.integers(1, 3),
)
def test_dense_factorize_numbers_first_appearances(rows, width):
    columns = list(zip(*rows)) if rows else [(), (), ()]
    blocks = [
        PrimitiveBlock.from_values(BIGINT, list(columns[0])),
        PrimitiveBlock.from_values(DOUBLE, list(columns[1])),
        VarcharBlock.from_values(list(columns[2])),
    ][:width]
    assert _radix(blocks) <= 65536
    _assert_numbered_by_first_appearance(blocks)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 3),
    st.integers(600, 900),
    st.floats(0.0, 0.2),
)
def test_wide_factorize_numbers_first_appearances(seed, width, rows, null_share):
    # High-cardinality BIGINT columns push the radix past the dense table;
    # rows repeat keys from a pool, so groups recur out of order.
    rng = np.random.default_rng(seed)
    pool = rng.integers(INT64_MIN, INT64_MAX, size=(rows, width), dtype=np.int64)
    picked = pool[rng.integers(0, len(pool), size=rows)]
    blocks = []
    for column in picked.T:
        nulls = rng.random(rows) < null_share
        blocks.append(PrimitiveBlock(BIGINT, np.where(nulls, 0, column), nulls))
    assert _radix(blocks) > 65536
    _assert_numbered_by_first_appearance(blocks)


def test_factorize_sorts_no_distinct_keys():
    rng = np.random.default_rng(5)
    dense = [PrimitiveBlock(BIGINT, rng.integers(0, 100, size=1000))]
    wide = [PrimitiveBlock(BIGINT, rng.integers(0, 10**6, size=1000)) for _ in range(2)]
    calls = []
    original = np.argsort

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "argsort", counting)
        for blocks in (dense, wide):
            kernels._factorize(blocks)
    assert calls == []
