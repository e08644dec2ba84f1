"""Unit tests for columnar blocks and pages."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectors.spi import project_rows
from repro.core.blocks import (
    ArrayBlock,
    DictionaryBlock,
    LazyBlock,
    MapBlock,
    PrimitiveBlock,
    RowBlock,
    VarcharBlock,
    block_from_values,
    object_varchar_lane,
)
from repro.core.page import Page, concat_blocks, concat_pages
from repro.core.types import (
    ArrayType,
    BIGINT,
    BOOLEAN,
    DOUBLE,
    MapType,
    RowType,
    VARCHAR,
)


class TestPrimitiveBlock:
    def test_from_values_and_get(self):
        block = PrimitiveBlock.from_values(BIGINT, [1, 2, 3])
        assert block.position_count == 3
        assert block.to_list() == [1, 2, 3]
        assert isinstance(block.get(0), int)

    def test_nulls(self):
        block = PrimitiveBlock.from_values(BIGINT, [1, None, 3])
        assert block.get(1) is None
        assert block.is_null(1)
        assert not block.is_null(0)
        assert list(block.null_mask()) == [False, True, False]

    def test_take(self):
        block = PrimitiveBlock.from_values(VARCHAR, ["a", "b", "c", None])
        taken = block.take(np.array([3, 1]))
        assert taken.to_list() == [None, "b"]

    def test_size_in_bytes_positive(self):
        assert PrimitiveBlock.from_values(BIGINT, [1, 2]).size_in_bytes() > 0
        assert PrimitiveBlock.from_values(VARCHAR, ["hello"]).size_in_bytes() >= 5

    def test_null_mask_without_nulls_is_cached(self):
        block = PrimitiveBlock.from_values(BIGINT, [1, 2, 3])
        mask = block.null_mask()
        assert not mask.any()
        assert block.null_mask() is mask  # no re-materialization per call


class TestDictionaryBlock:
    def test_lookup_through_ids(self):
        dictionary = PrimitiveBlock.from_values(VARCHAR, ["x", "y"])
        block = DictionaryBlock(dictionary, np.array([0, 1, 1, 0]))
        assert block.to_list() == ["x", "y", "y", "x"]

    def test_negative_id_is_null(self):
        dictionary = PrimitiveBlock.from_values(BIGINT, [10, 20])
        block = DictionaryBlock(dictionary, np.array([0, -1, 1]))
        assert block.to_list() == [10, None, 20]
        assert list(block.null_mask()) == [False, True, False]

    def test_decode_matches_get(self):
        dictionary = PrimitiveBlock.from_values(BIGINT, [5, 7])
        block = DictionaryBlock(dictionary, np.array([1, 0, -1]))
        assert block.decode().to_list() == block.to_list()

    def test_take_preserves_dictionary(self):
        dictionary = PrimitiveBlock.from_values(BIGINT, [5, 7])
        block = DictionaryBlock(dictionary, np.array([1, 0, 1]))
        taken = block.take(np.array([2, 0]))
        assert taken.to_list() == [7, 7]
        assert taken.dictionary is dictionary

    def test_null_mask_includes_dictionary_nulls(self):
        dictionary = PrimitiveBlock.from_values(BIGINT, [10, None])
        block = DictionaryBlock(dictionary, np.array([0, 1, -1]))
        assert list(block.null_mask()) == [False, True, True]
        assert [block.is_null(i) for i in range(3)] == [False, True, True]


class TestRowBlock:
    def setup_method(self):
        self.row_type = RowType.of(("city_id", BIGINT), ("status", VARCHAR))

    def test_from_values(self):
        block = RowBlock.from_values(
            self.row_type,
            [{"city_id": 1, "status": "ok"}, None, {"city_id": 2, "status": "bad"}],
        )
        assert block.get(0) == {"city_id": 1, "status": "ok"}
        assert block.get(1) is None
        assert block.field("city_id").to_list() == [1, None, 2]

    def test_pruned_projection(self):
        # A RowBlock may materialize only some fields (nested column pruning).
        block = RowBlock(
            self.row_type,
            {"city_id": PrimitiveBlock.from_values(BIGINT, [5, 6])},
        )
        assert block.get(0) == {"city_id": 5}
        assert block.has_field("city_id")
        assert not block.has_field("status")

    def test_take(self):
        block = RowBlock.from_values(
            self.row_type, [{"city_id": i, "status": str(i)} for i in range(5)]
        )
        taken = block.take(np.array([4, 0]))
        assert taken.get(0) == {"city_id": 4, "status": "4"}
        assert taken.position_count == 2

    def test_mismatched_field_lengths_rejected(self):
        with pytest.raises(ValueError):
            RowBlock(
                self.row_type,
                {
                    "city_id": PrimitiveBlock.from_values(BIGINT, [1]),
                    "status": PrimitiveBlock.from_values(VARCHAR, ["a", "b"]),
                },
            )


class TestCollectionBlocks:
    def test_array_block(self):
        t = ArrayType(BIGINT)
        block = ArrayBlock.from_values(t, [[1, 2], [], None, [3]])
        assert block.get(0) == [1, 2]
        assert block.get(1) == []
        assert block.get(2) is None
        assert block.get(3) == [3]

    def test_map_block(self):
        t = MapType(VARCHAR, DOUBLE)
        block = MapBlock.from_values(t, [{"a": 1.0}, None, {}])
        assert block.get(0) == {"a": 1.0}
        assert block.get(1) is None
        assert block.get(2) == {}

    def test_array_take(self):
        t = ArrayType(VARCHAR)
        block = ArrayBlock.from_values(t, [["a"], ["b", "c"], None])
        taken = block.take(np.array([2, 1]))
        assert taken.to_list() == [None, ["b", "c"]]


class TestLazyBlock:
    def test_defers_loading(self):
        loads = []

        def loader():
            loads.append(1)
            return PrimitiveBlock.from_values(BIGINT, [1, 2, 3])

        block = LazyBlock(BIGINT, 3, loader)
        assert not block.is_loaded
        assert not loads
        assert block.get(1) == 2
        assert block.is_loaded
        assert len(loads) == 1
        block.get(2)
        assert len(loads) == 1  # loader ran exactly once

    def test_take_stays_lazy(self):
        loads = []

        def loader():
            loads.append(1)
            return PrimitiveBlock.from_values(BIGINT, list(range(10)))

        block = LazyBlock(BIGINT, 10, loader)
        taken = block.take(np.array([1, 2]))
        assert not loads
        assert taken.to_list() == [1, 2]
        assert len(loads) == 1

    def test_loader_length_validated(self):
        block = LazyBlock(BIGINT, 5, lambda: PrimitiveBlock.from_values(BIGINT, [1]))
        with pytest.raises(ValueError):
            block.loaded()


class TestPage:
    def test_from_rows_round_trip(self):
        page = Page.from_rows([BIGINT, VARCHAR], [(1, "a"), (2, "b")])
        assert page.to_rows() == [(1, "a"), (2, "b")]
        assert page.channel_count == 2
        assert page.position_count == 2

    def test_take_and_select(self):
        page = Page.from_rows([BIGINT, VARCHAR], [(i, str(i)) for i in range(4)])
        filtered = page.take(np.array([3, 1]))
        assert filtered.to_rows() == [(3, "3"), (1, "1")]
        projected = page.select_channels([1])
        assert projected.to_rows() == [("0",), ("1",), ("2",), ("3",)]

    def test_mismatched_blocks_rejected(self):
        with pytest.raises(ValueError):
            Page(
                [
                    PrimitiveBlock.from_values(BIGINT, [1]),
                    PrimitiveBlock.from_values(BIGINT, [1, 2]),
                ]
            )

    def test_concat_pages(self):
        a = Page.from_rows([BIGINT], [(1,), (2,)])
        b = Page.from_rows([BIGINT], [(3,)])
        merged = concat_pages([BIGINT], [a, b])
        assert merged.to_rows() == [(1,), (2,), (3,)]

    def test_concat_blocks_lays_a_shared_dictionary_down_once(self):
        dictionary = VarcharBlock.from_values(["a", "é", "zz"])
        ids = [[0, 1], [2, -1, 0], [1], [-1, 2, 2]]
        pages = [DictionaryBlock(dictionary, np.array(i, dtype=np.int32)) for i in ids]
        merged = concat_blocks(VARCHAR, pages)
        assert isinstance(merged, DictionaryBlock)
        assert merged.dictionary.position_count == dictionary.position_count
        assert merged.to_list() == [v for page in pages for v in page.to_list()]

    def test_concat_blocks_appends_distinct_dictionaries(self):
        first = VarcharBlock.from_values(["a", "b"])
        second = VarcharBlock.from_values(["b", "c", None])
        pages = [
            DictionaryBlock(first, np.array([1, 0], dtype=np.int32)),
            DictionaryBlock(second, np.array([2, 1, -1], dtype=np.int32)),
            DictionaryBlock(first, np.array([0], dtype=np.int32)),
        ]
        merged = concat_blocks(VARCHAR, pages)
        assert merged.dictionary.position_count == 5
        assert merged.to_list() == ["b", "a", None, "c", None, "a"]

    def test_empty_page(self):
        page = Page.from_rows([BIGINT, VARCHAR], [])
        assert page.position_count == 0
        assert page.to_rows() == []

    def test_from_rows_with_nulls(self):
        rows = [(1, "a"), (None, None), (3, "c")]
        assert Page.from_rows([BIGINT, VARCHAR], rows).to_rows() == rows

    def test_from_rows_nested_cells_fall_back(self):
        # Sequence-valued cells (equal lengths included) transpose as one
        # value each and reach the nested block builders whole.
        for rows in (
            [([1, 2], "a"), ([3], "b"), (None, "c")],
            [([1, 2], "a"), ([3, 4], "b")],
        ):
            page = Page.from_rows([ArrayType(BIGINT), VARCHAR], rows)
            assert page.to_rows() == rows

    def test_from_rows_nan_round_trips(self):
        page = Page.from_rows([DOUBLE], [(1.5,), (float("nan"),), (None,)])
        values = [row[0] for row in page.to_rows()]
        assert values[0] == 1.5
        assert values[1] != values[1]
        assert values[2] is None

    def test_from_rows_large_batch_matches_per_value(self):
        rows = [(i, float(i) * 0.5, f"s{i}") for i in range(1000)]
        page = Page.from_rows([BIGINT, DOUBLE, VARCHAR], rows)
        assert page.to_rows() == rows


class TestBlockFromValues:
    def test_dispatches_by_type(self):
        assert isinstance(block_from_values(BIGINT, [1]), PrimitiveBlock)
        assert isinstance(block_from_values(ArrayType(BIGINT), [[1]]), ArrayBlock)
        assert isinstance(block_from_values(MapType(VARCHAR, BIGINT), [{}]), MapBlock)
        assert isinstance(
            block_from_values(RowType.of(("a", BIGINT)), [{"a": 1}]), RowBlock
        )


# -- rows -> blocks: the bulk lanes against the per-value code ---------------

TABLE_TYPES = [BIGINT, DOUBLE, BOOLEAN, VARCHAR, ArrayType(BIGINT)]
LAYOUT = [(f"c{i}", t) for i, t in enumerate(TABLE_TYPES)]

_int64 = st.integers(-(2**63), 2**63 - 1)
# ASCII, 2/3/4-byte UTF-8, an embedded NUL and a lone surrogate.
_texts = st.text(
    alphabet="abZ09 -\u00e9\u03bb\u6f22\U0001f388\x00\ud800", max_size=6
)
_cells = [
    st.one_of(_int64, st.booleans()),  # True in a BIGINT column
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, float("nan")]),
        st.integers(-(2**53), 2**53),  # an int in a DOUBLE column
    ),
    st.booleans(),
    st.text(alphabet="abZ09 -\x00", max_size=6),
    st.lists(st.one_of(st.none(), _int64), max_size=3),
]
# Payloads a VARCHAR column is not declared to hold but tests feed it.
_stray_varchar = st.one_of(st.binary(max_size=4), st.integers(-5, 5))


@st.composite
def tables(draw):
    """Rows over ``TABLE_TYPES``; each column is NULL-free or not, by a coin."""
    cells = []
    for channel, cell in enumerate(_cells):
        if channel == 3:
            cell = draw(
                st.sampled_from([cell, _texts, st.one_of(_texts, _stray_varchar)])
            )
        if draw(st.booleans()):
            cell = st.one_of(st.none(), cell)
        cells.append(cell)
    rows = draw(st.lists(st.tuples(*cells), max_size=12))
    if draw(st.booleans()):
        rows = [list(row) for row in rows]  # list rows, not tuples
    return rows


def per_value_block(presto_type, values):
    """The block the per-value code builds for ``values``.

    A ``None`` in the column selects that code for every block kind, so
    the reference is the column with one NULL appended, cut back off.
    """
    longer = block_from_values(presto_type, list(values) + [None])
    return longer.take(np.arange(len(values), dtype=np.int64))


def assert_same_block(actual, expected):
    assert type(actual) is type(expected)
    if isinstance(actual, PrimitiveBlock):
        assert actual.values.dtype == expected.values.dtype
    assert actual.position_count == expected.position_count
    assert actual.null_mask().tolist() == expected.null_mask().tolist()
    # repr tells 1 from True, 0.0 from -0.0, and lets NaN equal NaN.
    assert repr(actual.to_list()) == repr(expected.to_list())


class TestRowsBecomeBlocksInBulk:
    @given(tables())
    @settings(max_examples=300, deadline=None)
    def test_every_entry_point_builds_what_the_per_value_code_builds(self, rows):
        columns = [[row[i] for row in rows] for i in range(len(TABLE_TYPES))]
        names = [name for name, _ in LAYOUT]
        for lane in (nullcontext, object_varchar_lane):
            with lane():
                expected = [
                    per_value_block(t, c) for t, c in zip(TABLE_TYPES, columns)
                ]
                pages = [
                    Page.from_rows(TABLE_TYPES, rows),
                    Page.from_columns(TABLE_TYPES, columns),
                    project_rows(LAYOUT, rows, names),
                ]
            for page in pages:
                assert page.position_count == len(rows)
                for block, reference in zip(page.blocks, expected):
                    assert_same_block(block, reference)
                assert repr(page.to_rows()) == repr(list(page.rows()))

    def test_project_rows_selects_and_reorders(self):
        rows = [(1, 1.5, True, "a", [1]), (2, 2.5, False, "b", None)]
        page = project_rows(LAYOUT, rows, ["c3", "c0.anything", "c3"])
        assert page.to_rows() == [("a", 1, "a"), ("b", 2, "b")]
        assert project_rows(LAYOUT, [], ["c1"]).position_count == 0

    @pytest.mark.parametrize("count", [0, 1])
    def test_zero_and_one_row(self, count):
        rows = [(7, 0.5, True, "x", [1, None])][:count]
        page = Page.from_rows(TABLE_TYPES, rows)
        assert page.position_count == count
        assert page.to_rows() == rows

    def test_what_selects_the_per_value_code(self):
        # Clean columns carry no null mask; non-ASCII text is still a
        # VarcharBlock; a non-str payload or a lone surrogate keeps the
        # whole column in the permissive object representation.
        assert PrimitiveBlock.from_values(BIGINT, (1, 2)).nulls is None
        ascii_block = block_from_values(VARCHAR, ["ab", "", "c\x00d"])
        assert isinstance(ascii_block, VarcharBlock) and ascii_block.nulls is None
        assert ascii_block.to_list() == ["ab", "", "c\x00d"]
        assert block_from_values(VARCHAR, ["\u00e9", "a"]).to_list() == ["\u00e9", "a"]
        for stray in (b"ab", 3, "\ud800"):
            block = block_from_values(VARCHAR, ["a", stray])
            assert isinstance(block, PrimitiveBlock)
            assert block.to_list() == ["a", stray]

    @pytest.mark.parametrize("values", [[1, 2**70], [None, 2**70], (2**70,)])
    def test_out_of_range_bigint_still_raises(self, values):
        with pytest.raises(OverflowError):
            block_from_values(BIGINT, values)
        with pytest.raises(OverflowError):
            Page.from_rows([BIGINT], [(v,) for v in values])


class TestToRows:
    """``Page.to_rows`` is ``list(page.rows())`` for every block kind."""

    def test_every_block_kind(self):
        row_type = RowType.of(("a", BIGINT), ("b", VARCHAR))
        dictionary = block_from_values(VARCHAR, ["x", None, "\u6f22"])
        with object_varchar_lane():
            legacy = block_from_values(VARCHAR, ["p", None, "q", ""])
        blocks = [
            PrimitiveBlock.from_values(BIGINT, [1, None, 3, -4]),
            PrimitiveBlock.from_values(DOUBLE, [0.5, -0.0, None, float("nan")]),
            PrimitiveBlock.from_values(BOOLEAN, [True, False, None, True]),
            PrimitiveBlock(BIGINT, np.array([1, 2, 3, 4], dtype=np.int32)),
            legacy,
            block_from_values(VARCHAR, ["a", None, "\u00e9", ""]),
            DictionaryBlock(dictionary, np.array([2, -1, 1, 0], dtype=np.int64)),
            DictionaryBlock(
                PrimitiveBlock.from_values(BIGINT, [10, 20]),
                np.array([1, 1, -1, 0], dtype=np.int64),
            ),
            block_from_values(row_type, [{"a": 1, "b": "u"}, None, {"a": None, "b": None}, {"a": 2, "b": "v"}]),
            block_from_values(ArrayType(BIGINT), [[1, None], [], None, [2]]),
            block_from_values(MapType(VARCHAR, BIGINT), [{"k": 1}, {}, None, {"j": None}]),
            LazyBlock(BIGINT, 4, lambda: PrimitiveBlock.from_values(BIGINT, [4, 3, None, 1])),
        ]
        page = Page(blocks)
        rows = page.to_rows()
        assert repr(rows) == repr(list(page.rows()))
        for row in rows:
            for cell in row:
                assert not isinstance(cell, np.generic)

    def test_zero_channel_page_keeps_its_rows(self):
        assert Page([], 3).to_rows() == [(), (), ()]
        assert Page([], 0).to_rows() == []
