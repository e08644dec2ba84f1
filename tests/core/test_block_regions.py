"""Block regions and the join that takes them without a copy.

``region(start, end)`` of a primitive, varchar or dictionary block views
the block's arrays and records which block and row it came from; a run of
consecutive regions of one block joins in ``concat_blocks`` as one wider
region.  Any other list of blocks (gaps, reordering, overlap, regions of
two blocks) takes the copying path, so the two paths must agree: the same
rows and the same block type.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import DictionaryBlock, PrimitiveBlock, VarcharBlock
from repro.core.page import concat_blocks
from repro.core.types import BIGINT, DOUBLE, VARCHAR

text = st.one_of(
    st.none(), st.sampled_from(["", "a", "é", "漢字", "a\x00b", "\x00"]), st.text(max_size=4)
)


def _primitive(presto_type, values):
    return PrimitiveBlock.from_values(presto_type, values)


def _object_varchar(values):
    # The permissive lane: non-str payloads under VARCHAR keep an object array.
    values = list(values)
    storage = np.empty(len(values), dtype=object)
    storage[:] = values
    nulls = np.asarray(np.equal(storage, None), dtype=bool)
    return PrimitiveBlock(VARCHAR, storage, nulls if nulls.any() else None)


def _dictionary(ids):
    dictionary = VarcharBlock.from_values(["x", "é", "", "a\x00b"])
    return DictionaryBlock(dictionary, np.asarray(ids, dtype=np.int32))


# kind -> (value strategy, build function); each call makes a fresh block.
KINDS = {
    "bigint": (
        st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)),
        lambda v: _primitive(BIGINT, v),
    ),
    "double": (
        st.one_of(st.none(), st.floats(allow_nan=False)),
        lambda v: _primitive(DOUBLE, v),
    ),
    "varchar": (text, VarcharBlock.from_values),
    "object": (st.one_of(text, st.integers(-5, 5), st.booleans()), _object_varchar),
    "dictionary": (st.integers(-1, 3), _dictionary),
}


def _copy(block):
    """``block`` rebuilt over the same arrays, not marked as a region: what
    the copying path gets."""
    if isinstance(block, DictionaryBlock):
        return DictionaryBlock(block.dictionary, block.ids)
    if isinstance(block, VarcharBlock):
        return VarcharBlock(block.type, block.data, block.offsets, block.nulls)
    return PrimitiveBlock(block.type, block.values, block.nulls)


@st.composite
def region_lists(draw):
    """``(kind, base, regions, adjacent)``: regions of one base block (or of
    it and a second block holding the same values), and whether they are
    consecutive regions of the base alone."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    values_strategy, build = KINDS[kind]
    values = draw(st.lists(values_strategy, max_size=16))
    base, other = build(values), build(values)
    count = len(values)
    if draw(st.booleans()):
        # Consecutive ranges, some empty, possibly taken through a middle
        # region (a region of a region records the base).
        cuts = sorted(draw(st.lists(st.integers(0, count), min_size=2, max_size=6)))
        ranges = list(zip(cuts, cuts[1:]))
        mixed = draw(st.booleans())
        sources = [other if mixed and draw(st.booleans()) else base for _ in ranges]
        if draw(st.booleans()):
            middle = base.region(0, count)
            sources = [middle if source is base else source for source in sources]
    else:
        # Any ranges: gapped, reordered, overlapping.
        bounds = st.tuples(st.integers(0, count), st.integers(0, count)).map(sorted)
        ranges = draw(st.lists(bounds, min_size=2, max_size=5))
        sources = [draw(st.sampled_from([base, other])) for _ in ranges]
    regions = [source.region(start, end) for source, (start, end) in zip(sources, ranges)]
    adjacent = all(source is not other for source in sources) and all(
        a[1] == b[0] for a, b in zip(ranges, ranges[1:])
    )
    return kind, base, regions, adjacent


@settings(max_examples=300, deadline=None)
@given(region_lists())
def test_region_join_equals_the_copying_join(case):
    kind, base, regions, adjacent = case
    presto_type = base.type
    joined = concat_blocks(presto_type, regions)
    copied = concat_blocks(presto_type, [_copy(region) for region in regions])
    assert joined.to_list() == copied.to_list()
    assert type(joined) is type(copied)
    assert joined.position_count == sum(region.position_count for region in regions)
    if adjacent:
        # One wider region of the base: no copy.
        assert joined.region_of == (base, regions[0].region_of[1])
    nulls = getattr(joined, "nulls", None)
    assert nulls is None or nulls.any()


@settings(max_examples=100, deadline=None)
@given(st.lists(text, max_size=12), st.data())
def test_a_varchar_region_views_the_bytes(values, data):
    block = VarcharBlock.from_values(values)
    start = data.draw(st.integers(0, len(values)))
    end = data.draw(st.integers(start, len(values)))
    region = block.region(start, end)
    assert region.to_list() == values[start:end]
    assert region.offsets[0] == 0
    assert region.data.size == 0 or np.shares_memory(region.data, block.data)


def test_regions_record_the_base_through_a_region():
    block = PrimitiveBlock.from_values(BIGINT, list(range(10)))
    middle = block.region(2, 8)
    inner = middle.region(1, 3)
    assert middle.region_of == (block, 2)
    assert inner.region_of == (block, 3)
    assert inner.to_list() == [3, 4]
    assert np.shares_memory(inner.values, block.values)
