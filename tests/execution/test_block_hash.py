"""The exchange hash: ``kernels.block_hash`` / ``key_hash`` and the
partitioning built on them.

The hash is a function of (type, SQL value), whichever block holds the
value: pinned ``uint64`` vectors, agreement with the scalar reference in
``tests/reference/hashing.py``, the same hashes from every encoding of
the same values, one partition per ARRAY group, and no Python work per key
while a page is partitioned.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blocks import DictionaryBlock, PrimitiveBlock, VarcharBlock, block_from_values
from repro.core.types import BIGINT, DOUBLE, VARCHAR, ArrayType
from repro.execution import kernels
from tests.reference import hashing as reference

NAN = float("nan")
NULL = 0x9E3779B97F4A7C15

GOLDEN = [
    (BIGINT, 0, 0x0),
    (BIGINT, 1, 0x5692161D100B05E5),
    (BIGINT, -1, 0xB4D055FCF2CBBD7B),
    (BIGINT, 2**63 - 1, 0x5A682AFE7965DEBD),
    (BIGINT, -(2**63), 0x25C26EA579CEA98A),
    (DOUBLE, 0.0, 0x0),
    (DOUBLE, -0.0, 0x0),
    (DOUBLE, NAN, NULL),
    (DOUBLE, float("inf"), 0xCE5683AAAEDC68D0),
    (DOUBLE, 1.5, 0xE72B41D4576E3468),
    (VARCHAR, "", 0x3742CBFACF59A71B),
    (VARCHAR, "a", 0x160CEB52E936C6DB),
    (VARCHAR, "é", 0x695EBF34397B6480),
    (VARCHAR, "\x00", 0x2B951534BD2D14D2),
    (VARCHAR, "ab" * 150, 0xB039F9AA62057DF9),
    (BIGINT, None, NULL),
    (DOUBLE, None, NULL),
    (VARCHAR, None, NULL),
    (ArrayType(DOUBLE), None, NULL),
    (ArrayType(DOUBLE), [], 0x3742CBFACF59A71B),
    (ArrayType(DOUBLE), [None], 0x34C1980D056B2E64),
    (ArrayType(DOUBLE), [1.0, -0.0], 0xC2F2B6B183893D9C),
]


class TestGoldenVectors:
    @pytest.mark.parametrize(
        "presto_type, value, expected", GOLDEN, ids=[repr(v) for _, v, _ in GOLDEN]
    )
    def test_block_hash_is_pinned(self, presto_type, value, expected):
        # In a block of its own, and beside other values.
        for values in ([value], [None, value, 1 if presto_type is BIGINT else None]):
            block = block_from_values(presto_type, values)
            assert block.type == presto_type
            assert int(kernels.block_hash(block)[values.index(value)]) == expected
        assert reference.value_hash(value) == expected

    def test_two_column_key_is_pinned(self):
        blocks = [block_from_values(BIGINT, [7, 7]), block_from_values(VARCHAR, ["a", "b"])]
        hashes = kernels.key_hash(blocks).tolist()
        assert hashes[0] == reference.key_hash((7, "a")) == 0x9C0F6998462D8105
        assert hashes[1] == reference.key_hash((7, "b")) != hashes[0]

    def test_null_empty_and_null_element_arrays_differ(self):
        block = block_from_values(ArrayType(BIGINT), [None, [], [None], [None, None]])
        assert len(set(kernels.block_hash(block).tolist())) == 4

    def test_a_key_with_no_column_is_refused(self):
        with pytest.raises(ValueError):
            kernels.partition_assignments([], 4)


TEXT = st.one_of(
    st.none(),
    st.sampled_from(["", "a", "b", "ab", "é", "漢字", "\x00", "a\x00", "x" * 300]),
    st.text(max_size=12),
)


def varchar_encodings(values: list) -> list:
    """The same column as a flat VarcharBlock, a VarcharBlock sliced out of
    a larger buffer (offsets starting past 0), a DictionaryBlock with
    repeated and unused entries, and an object-dtype PrimitiveBlock."""
    flat = VarcharBlock.from_values(values)
    padded = VarcharBlock.from_values(["pad", "éé"] + values + ["tail"])
    count = len(values)
    nulls = None if padded.nulls is None else padded.nulls[2 : 2 + count]
    sliced = VarcharBlock(VARCHAR, padded.data, padded.offsets[2 : 3 + count], nulls)
    assert count == 0 or sliced.offsets[0] > 0
    entries = list(dict.fromkeys(v for v in values if v is not None))
    dictionary = VarcharBlock.from_values(["unused"] + entries + entries + [None])
    ids = np.array(
        [-1 if v is None else 1 + len(entries) * (i % 2) + entries.index(v)
         for i, v in enumerate(values)],
        dtype=np.int64,
    )
    return [
        flat,
        sliced,
        DictionaryBlock(dictionary, ids),
        PrimitiveBlock.from_values(VARCHAR, values),
    ]


class TestEncodingIndependence:
    @given(st.lists(TEXT, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_varchar_encodings_hash_alike(self, values):
        expected = [reference.value_hash(v) for v in values]
        for block in varchar_encodings(values):
            assert kernels.block_hash(block).tolist() == expected, type(block).__name__

    @given(
        st.lists(
            st.one_of(st.none(), st.sampled_from([0.0, -0.0, NAN, 1.5, -2.0, float("inf")])),
            max_size=20,
        ),
        st.lists(st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)), max_size=20),
    )
    @settings(max_examples=300, deadline=None)
    def test_numeric_encodings_hash_alike(self, doubles, ints):
        for presto_type, values in ((DOUBLE, doubles), (BIGINT, ints)):
            expected = [reference.value_hash(v) for v in values]
            flat = block_from_values(presto_type, values)
            dictionary = block_from_values(presto_type, values + values + [None])
            ids = np.arange(len(values), 2 * len(values), dtype=np.int64)
            as_objects = np.empty(len(values), dtype=object)
            as_objects[:] = values
            objects = PrimitiveBlock(presto_type, as_objects, np.equal(as_objects, None))
            for block in (flat, DictionaryBlock(dictionary, ids), objects):
                assert kernels.block_hash(block).tolist() == expected


class TestArrayGroupsShareAPartition:
    """``factorize_keys`` merges ``[x, 0.0]`` with ``[x, -0.0]`` and
    ``[NaN]`` with ``[NULL]``: two partial tasks that each emit one of a
    pair must route them to the same final task."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 11])
    @pytest.mark.parametrize(
        "pair",
        [([0.0, 1.0], [-0.0, 1.0]), ([NAN], [None]), ([1.5, NAN, -0.0], [1.5, None, 0.0])],
        ids=["signed-zero", "nan-null", "mixed"],
    )
    def test_single_row_pages_agree(self, pair, n):
        first, second = (
            kernels.partition_assignments([block_from_values(ArrayType(DOUBLE), [value])], n)
            for value in pair
        )
        assert first.tolist() == second.tolist()
        assert kernels.factorize_keys(
            [block_from_values(ArrayType(DOUBLE), list(pair))]
        )[0].tolist() == [0, 0]

    def test_sliced_array_block_hashes_like_a_fresh_one(self):
        values = [[1.0, 2.0], None, [], [NAN, -0.0], [3.0]]
        block = block_from_values(ArrayType(DOUBLE), values)
        taken = block.take(np.array([4, 3, 2, 1, 0]))
        assert kernels.block_hash(taken).tolist() == kernels.block_hash(block).tolist()[::-1]
        assert kernels.block_hash(block).tolist() == [reference.value_hash(v) for v in values]


def _page(rows: int) -> list:
    """BIGINT, DOUBLE (NaN and NULL), VARCHAR (half the rows distinct) and
    dictionary-encoded VARCHAR key columns."""
    positions = np.arange(rows, dtype=np.int64)
    doubles = (positions % 97).astype(np.float64) - 48.0
    doubles[positions % 11 == 0] = NAN
    return [
        PrimitiveBlock(BIGINT, positions * 7919),
        PrimitiveBlock(DOUBLE, doubles, positions % 13 == 0),
        VarcharBlock.from_values([f"key-{i // 2}" for i in range(rows)]),
        DictionaryBlock(
            VarcharBlock.from_values(["red", "green", "blue", "é"]),
            (positions % 5 - 1).astype(np.int64),
        ),
    ]


def _python_calls(blocks: list) -> int:
    """Python and builtin calls made while one page is partitioned.

    The collector is off while it is counted: a collection that lands in
    the call would count the finalizers of garbage earlier tests left (an
    abandoned generator's ``finally``, a weak-dictionary callback).
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        kernels.partition_assignments(blocks, 4)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls


def test_partitioning_does_no_python_work_per_key():
    small, large = _page(1_000), _page(100_000)
    assert _python_calls(small) == _python_calls(large)
