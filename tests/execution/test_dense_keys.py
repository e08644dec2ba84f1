"""Integer keys are looked up, not sorted.

An int64 key column whose value span is at most ``kernels._DENSE_SPAN``
slots per key factorizes through a presence table, and probes a join or
a dynamic filter's sorted values through position tables built once per
index or filter (``kernels.key_positions``).  Each is compared here
against the sort it replaces (``tests/reference/keys.py``) or the
per-value rule (``tests/reference/dynamic_filters.py``) on both sides of
the span bound, at the int64 extremes, and with garbage under NULL rows;
a join index probed with its own build rows groups them as
``factorize_keys`` does.  The string point lookups, which narrow the
candidate rows one prefix byte at a time, are compared against
``bytes.startswith`` and ``==``.  The last class counts the sorts the
dense paths run: none.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import PrimitiveBlock, VarcharBlock
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution import kernels
from repro.execution.dynamic_filters import DynamicFilter, dynamic_filter_for
from tests.reference.dynamic_filters import build_dynamic_filter, expected_mask
from tests.reference.keys import searchsorted_probe_codes, unique_column_codes

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
SPAN = kernels._DENSE_SPAN

# How wide a drawn column's span is against its defined rows.
SPAN_KINDS = ["narrow", "at_bound", "past_bound", "wide"]


@st.composite
def spanned_values(draw, rows=st.integers(2, 40), kind=None):
    """``(values, kind)``: defined int64 values whose span (max - min + 1)
    is narrow, exactly ``SPAN`` per value, one past it, or far wider, and
    which may sit at either int64 extreme."""
    count = draw(rows)
    kind = kind or draw(st.sampled_from(SPAN_KINDS))
    span = {
        "narrow": draw(st.integers(1, max(1, count))),
        "at_bound": SPAN * count,
        "past_bound": SPAN * count + 1,
        "wide": draw(st.integers(SPAN * count + 1, 2**64)),
    }[kind]
    anchor = draw(st.sampled_from(["min", "max", "any"]))
    if anchor == "min":
        low = INT64_MIN
    elif anchor == "max":
        low = INT64_MAX - span + 1
    else:
        low = draw(st.integers(INT64_MIN, INT64_MAX - span + 1))
    offsets = [0, span - 1] + draw(
        st.lists(st.integers(0, span - 1), min_size=count, max_size=count)
    )
    values = [low + offset for offset in offsets[:count]]
    return draw(st.permutations(values)), kind


garbage = st.integers(INT64_MIN, INT64_MAX)


@st.composite
def int_blocks(draw, values):
    """``values`` as a BIGINT block, NULL rows with arbitrary storage
    interleaved (``None`` in ``values`` is one too)."""
    cells = list(values)
    for _ in range(draw(st.integers(0, 5))):
        cells.insert(draw(st.integers(0, len(cells))), None)
    nulls = np.array([v is None for v in cells], dtype=bool)
    storage = np.array(
        [draw(garbage) if v is None else v for v in cells], dtype=np.int64
    )
    return PrimitiveBlock(BIGINT, storage, nulls if nulls.any() else None)


class TestColumnCodes:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_codes_and_uniques_are_np_unique(self, data):
        values, kind = data.draw(spanned_values())
        block = data.draw(int_blocks(values))
        codes, uniques = kernels.column_codes(block)
        expected_codes, expected_uniques = unique_column_codes(block)
        assert codes.dtype == expected_codes.dtype == np.int64
        assert uniques.dtype == expected_uniques.dtype == np.int64
        assert codes.tolist() == expected_codes.tolist()
        assert uniques.tolist() == expected_uniques.tolist()
        dense = kernels.dense_table(np.array(values, dtype=np.int64), True, False)
        assert (dense is not None) == (kind in ("narrow", "at_bound"))

    @pytest.mark.parametrize(
        "values",
        [
            [INT64_MIN, INT64_MIN + 1],
            [INT64_MAX, INT64_MAX - 3, INT64_MAX],
            [INT64_MIN, INT64_MAX],
            [0, INT64_MAX],
            [7],
        ],
    )
    def test_int64_extremes(self, values):
        block = PrimitiveBlock.from_values(BIGINT, values)
        codes, uniques = kernels.column_codes(block)
        expected_codes, expected_uniques = unique_column_codes(block)
        assert codes.tolist() == expected_codes.tolist()
        assert uniques.tolist() == expected_uniques.tolist() == sorted(set(values))

    def test_the_bound_is_slots_per_key(self):
        # Four keys: a span of 4 * SPAN fits a table, one more does not.
        keys = np.array([0, 1, 2, 4 * SPAN - 1], dtype=np.int64)
        assert kernels.dense_table(keys, True, False) is not None
        keys[-1] += 1
        assert kernels.dense_table(keys, True, False) is None
        assert kernels.dense_table(np.empty(0, dtype=np.int64), True, False) is None


@st.composite
def join_sides(draw):
    """Build and probe key columns (1-4) of one join, probe values drawn
    from the build's, from past either end and from the int64 extremes."""
    width = draw(st.integers(1, 4))
    kinds = [draw(st.sampled_from(SPAN_KINDS)) for _ in range(width)]
    build_rows = draw(st.integers(2, 30))
    build_columns, probe_columns = [], []
    probe_rows = draw(st.integers(0, 30))
    for kind in kinds:
        values, _ = draw(spanned_values(rows=st.just(build_rows), kind=kind))
        pool = sorted(set(values))
        low, high = pool[0], pool[-1]
        strays = [INT64_MIN, INT64_MAX, max(INT64_MIN, low - 1), min(INT64_MAX, high + 1)]
        probe = draw(
            st.lists(
                st.one_of(st.sampled_from(pool), st.sampled_from(strays), st.none()),
                min_size=probe_rows,
                max_size=probe_rows,
            )
        )
        build_columns.append(values)
        probe_columns.append(probe)
    build = [draw(int_blocks(column)) for column in build_columns]
    # One NULL pattern per side is enough: int_blocks inserts NULLs of its
    # own, so the columns of one side are cut to a common length.
    rows = min(block.position_count for block in build)
    build = [block.take(np.arange(rows)) for block in build]
    probe = [draw(int_blocks(column)) for column in probe_columns]
    rows = min(block.position_count for block in probe)
    probe = [block.take(np.arange(rows)) for block in probe]
    return build, probe, rows


class TestProbeCodes:
    @pytest.mark.parametrize("max_radix", [kernels._MAX_RADIX, 12])
    @settings(max_examples=200, deadline=None)
    @given(join_sides())
    def test_probe_codes_are_the_searchsorted_probe(self, max_radix, sides):
        build, probe, rows = sides
        with pytest.MonkeyPatch.context() as patch:
            # A radix bound of 12 re-compacts before every second column.
            patch.setattr(kernels, "_MAX_RADIX", max_radix)
            index = kernels.build_join_index(build)
            group_codes, _ = kernels.factorize_keys(build)
        codes = index.probe_codes(probe, rows)
        expected = searchsorted_probe_codes(index, probe, rows)
        assert codes.tolist() == expected.tolist()
        pairs = [array.tolist() for array in index.expand(codes)]
        assert pairs == [array.tolist() for array in index.expand(expected)]
        # Probed with its own rows, the index groups them as factorize_keys
        # does (both combine through kernels._combine), NULL keys excluded.
        own = index.probe_codes(build, len(group_codes)).tolist()
        has_null = np.logical_or.reduce([block.null_mask() for block in build]).tolist()
        assert [code < 0 for code in own] == has_null
        pairs = {(g, c) for g, c, null in zip(group_codes.tolist(), own, has_null) if not null}
        assert len(pairs) == len({g for g, _ in pairs}) == len({c for _, c in pairs})

    def test_matches_are_the_build_rows_with_equal_keys(self):
        build = [
            PrimitiveBlock.from_values(BIGINT, [1, 2, None, 2, INT64_MAX]),
            PrimitiveBlock.from_values(BIGINT, [5, 6, 5, 6, INT64_MIN]),
        ]
        probe = [
            PrimitiveBlock.from_values(BIGINT, [2, INT64_MIN, 1, None, INT64_MAX, 3]),
            PrimitiveBlock.from_values(BIGINT, [6, 5, 5, 5, INT64_MIN, 6]),
        ]
        index = kernels.build_join_index(build)
        pairs = index.expand(index.probe_codes(probe, 6))
        assert [array.tolist() for array in pairs] == [[0, 0, 2, 4], [1, 3, 0, 4]]


class TestDynamicFilterMask:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mask_is_matches(self, data):
        values, _ = data.draw(spanned_values())
        extras = data.draw(st.lists(st.sampled_from([None, 2.5, 3.0, float("nan")])))
        if extras:
            # A DOUBLE build: integers meet its values as doubles.
            build = PrimitiveBlock.from_values(DOUBLE, [float(v) for v in values] + extras)
        else:
            build = data.draw(int_blocks(values))
        dynamic_filter = dynamic_filter_for([build])
        pool = sorted(set(values))
        probe = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from(pool),
                    st.sampled_from([INT64_MIN, INT64_MAX, 0, 1, 3]),
                    garbage,
                ),
                max_size=40,
            )
        )
        block = data.draw(int_blocks(probe))
        mask = dynamic_filter.mask(block)
        assert mask.dtype == bool
        expected = build_dynamic_filter(build.to_list())
        assert mask.tolist() == expected_mask(expected, block.to_list())
        if not extras:
            # The position table's bound counts the build's distinct values.
            members = set(values)
            narrow = max(members) - min(members) < SPAN * len(members)
            assert (dynamic_filter._dense is not None) == narrow

    def test_a_set_without_integers_matches_no_integer(self):
        dynamic_filter = dynamic_filter_for([PrimitiveBlock.from_values(DOUBLE, [2.5, -0.5])])
        block = PrimitiveBlock.from_values(BIGINT, [2, None, INT64_MIN])
        assert dynamic_filter.mask(block).tolist() == [False, False, False]

    def test_the_bitmap_is_built_once_per_filter(self):
        dynamic_filter = DynamicFilter(values=np.array([3, 4, 9], dtype=np.int64))
        block = PrimitiveBlock.from_values(BIGINT, [3, 5, 9])
        first = dynamic_filter._dense
        assert first is not None
        assert dynamic_filter.mask(block).tolist() == [True, False, True]
        assert dynamic_filter.mask(block).tolist() == [True, False, True]
        assert dynamic_filter._dense is first


# Texts over an alphabet with NUL, the empty string, and 2- and 3-byte
# UTF-8 characters, so prefixes cut inside a character too.
ALPHABET = ["a", "b", "\x00", "é", "漢"]
texts = st.lists(st.sampled_from(ALPHABET), max_size=5).map("".join)


@st.composite
def varchar_blocks(draw):
    """``(block, values)``: a VarcharBlock of ``values`` (bytes or None)
    whose NULL rows may own bytes the kernels must not read as a value."""
    values = draw(st.lists(st.one_of(texts.map(str.encode), st.none()), max_size=30))
    stored = [draw(texts).encode() if v is None else v for v in values]
    offsets = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum([len(v) for v in stored], out=offsets[1:])
    data = np.frombuffer(b"".join(stored), dtype=np.uint8)
    nulls = np.array([v is None for v in values], dtype=bool)
    block = VarcharBlock(VARCHAR, data, offsets, nulls if nulls.any() else None)
    return block, values


@st.composite
def needles(draw, values):
    """A prefix of some value (often a hit), or bytes of its own."""
    present = [v for v in values if v is not None]
    if present and draw(st.booleans()):
        value = draw(st.sampled_from(present))
        return value[: draw(st.integers(0, len(value)))]
    return draw(st.one_of(texts.map(str.encode), st.binary(max_size=4)))


class TestVarcharPointLookups:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_prefix_mask_is_startswith(self, data):
        block, values = data.draw(varchar_blocks())
        prefix = data.draw(needles(values))
        mask = block.prefix_mask(prefix)
        assert mask.dtype == bool
        assert mask.tolist() == [v is not None and v.startswith(prefix) for v in values]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_exact_match_is_equality(self, data):
        block, values = data.draw(varchar_blocks())
        needle = data.draw(needles(values))
        mask = block.exact_match(needle)
        assert mask.dtype == bool
        assert mask.tolist() == [v is not None and v == needle for v in values]

    def test_nul_and_empty(self):
        block = VarcharBlock.from_values(["a\x00", "a", "\x00", "", None, "a\x00b"])
        assert block.exact_match(b"").tolist() == [False, False, False, True, False, False]
        assert block.prefix_mask(b"").tolist() == [True, True, True, True, False, True]
        assert block.prefix_mask(b"a\x00").tolist() == [True, False, False, False, False, True]
        assert block.exact_match(b"\x00").tolist() == [False, False, True, False, False, False]


SORTS = ("unique", "argsort", "searchsorted", "sort", "lexsort", "isin")


@pytest.fixture
def sorts():
    """Every call the dense paths could make to a numpy sort, by name."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in SORTS:
            original = getattr(np, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            patch.setattr(np, name, counting)
        yield calls


class TestDenseKeysSortNothing:
    """Narrow int64 keys (here: about four slots per row, NULLs among them) cost
    no sort per page: grouping, probing and dynamic filtering are
    table lookups."""

    keys = [None if i % 7 == 0 else (i * 37) % 400 for i in range(100)]

    def test_column_codes(self, sorts):
        kernels.column_codes(PrimitiveBlock.from_values(BIGINT, self.keys))
        kernels.column_codes(PrimitiveBlock.from_values(BIGINT, [k or 0 for k in self.keys]))
        assert sorts == []

    def test_group_by(self, sorts):
        block = PrimitiveBlock.from_values(BIGINT, self.keys)
        kernels.factorize_keys([block, block])
        assert sorts == []

    def test_join_probe(self, sorts):
        # One key column, and two whose pairs fill their product space, so
        # the combined codes are narrow too.
        tens = PrimitiveBlock.from_values(BIGINT, [i // 10 for i in range(100)])
        units = PrimitiveBlock.from_values(BIGINT, [i % 10 for i in range(100)])
        indexes = [
            kernels.build_join_index([PrimitiveBlock.from_values(BIGINT, self.keys)]),
            kernels.build_join_index([tens, units]),
        ]
        sorts.clear()  # the build groups its rows by code, once per join
        probe = PrimitiveBlock.from_values(BIGINT, self.keys)
        indexes[0].probe_codes([probe], 100)
        indexes[1].probe_codes([probe, probe], 100)
        assert sorts == []

    def test_dynamic_filter_mask(self, sorts):
        dynamic_filter = DynamicFilter(values=np.arange(0, 400, 3, dtype=np.int64))
        dynamic_filter.mask(PrimitiveBlock.from_values(BIGINT, self.keys))
        assert sorts == []
