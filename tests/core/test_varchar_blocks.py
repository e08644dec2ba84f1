"""Differential suite: offsets-based VarcharBlock vs the object-array lane.

Every property here runs the same operation twice — once on the native
:class:`VarcharBlock` (contiguous UTF-8 bytes + int64 offsets) and once on
the legacy object-array representation built under
``object_varchar_lane()`` — and requires identical results.  Values are
drawn to hit the layout's edge cases: NULLs, empty strings, non-ASCII
UTF-8 (multi-byte code points, where byte length != char length), and
strings containing NUL bytes (which force the S-dtype fast paths to fall
back, since numpy S arrays strip trailing ``\\x00``).
"""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import (
    PrimitiveBlock,
    VarcharBlock,
    block_from_values,
    concat_varchar_blocks,
    object_varchar_lane,
)
from repro.core.evaluator import Evaluator
from repro.core.expressions import CallExpression, constant, variable
from repro.core.functions import default_registry
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution import kernels

REGISTRY = default_registry()

# Alphabet chosen to cross every layout boundary: ASCII, 2/3/4-byte UTF-8,
# the empty string (via max_size), and embedded NULs.
ALPHABET = "abAB01 -éλ漢🎈\x00"
texts = st.text(alphabet=ALPHABET, max_size=10)
values_lists = st.lists(st.one_of(st.none(), texts), min_size=0, max_size=40)


def build_both(values):
    """The same logical column in both representations."""
    native = block_from_values(VARCHAR, values)
    with object_varchar_lane():
        legacy = block_from_values(VARCHAR, values)
    assert isinstance(native, VarcharBlock)
    assert isinstance(legacy, PrimitiveBlock)
    return native, legacy


def factorized_keys(blocks):
    """``factorize_keys``: the codes, and the distinct keys as row tuples."""
    factorized = kernels.factorize_keys(blocks)
    assert factorized is not None
    codes, keys = factorized
    return codes, list(zip(*(block.to_list() for block in keys)))


def factorized_rows(blocks):
    """Every row's key, read back through its code."""
    codes, uniques = factorized_keys(blocks)
    return [uniques[c] for c in codes]


def call(name, args, arg_types):
    handle, _ = REGISTRY.resolve_scalar(name, arg_types)
    return CallExpression(name, handle, handle.resolved_return_type(), tuple(args))


# -- layout and element access ----------------------------------------------


@given(values_lists)
@settings(max_examples=200, deadline=None)
def test_roundtrip_and_get(values):
    native, legacy = build_both(values)
    assert native.to_list() == values == legacy.to_list()
    for i, v in enumerate(values):
        assert native.get(i) == v
        assert native.is_null(i) == (v is None)
    assert native.null_mask().tolist() == [v is None for v in values]


# NULL-free ASCII (NUL included) is the column ``from_values`` joins and
# encodes once; anything else it encodes value by value.  One layout.
ascii_lists = st.lists(st.text(alphabet="abAB01 -\x00", max_size=10), max_size=40)


@given(st.one_of(ascii_lists, values_lists))
@settings(max_examples=300, deadline=None)
def test_from_values_layout_is_the_per_value_encoding(values):
    block = VarcharBlock.from_values(values)
    encoded = [b"" if v is None else v.encode("utf-8") for v in values]
    assert block.data.tobytes() == b"".join(encoded)
    assert block.offsets.tolist() == [0, *accumulate(map(len, encoded))]
    assert block.null_mask().tolist() == [v is None for v in values]
    assert block.to_list() == values


@given(values_lists, st.lists(st.integers(0, 39), max_size=60))
@settings(max_examples=200, deadline=None)
def test_take_matches_object(values, raw_positions):
    if not values:
        return
    positions = np.array([p % len(values) for p in raw_positions], dtype=np.int64)
    native, legacy = build_both(values)
    taken = native.take(positions)
    assert isinstance(taken, VarcharBlock)
    assert taken.to_list() == legacy.take(positions).to_list()
    assert taken.to_list() == [values[p] for p in positions]


@given(values_lists, values_lists)
@settings(max_examples=100, deadline=None)
def test_concat(left, right):
    native_l, _ = build_both(left)
    native_r, _ = build_both(right)
    merged = concat_varchar_blocks(VARCHAR, [native_l, native_r])
    assert merged.to_list() == left + right


@given(values_lists)
@settings(max_examples=200, deadline=None)
def test_lengths(values):
    native, _ = build_both(values)
    for i, v in enumerate(values):
        if v is not None:
            assert int(native.char_lengths()[i]) == len(v)
            assert int(native.byte_lengths()[i]) == len(v.encode("utf-8"))


# -- factorization -----------------------------------------------------------


@given(values_lists)
@settings(max_examples=200, deadline=None)
def test_factorize_reconstructs(values):
    native, _ = build_both(values)
    codes, uniques = native.factorize()
    # Codes index a sorted distinct domain; -1 is the null sentinel.
    assert [uniques[c] if c >= 0 else None for c in codes] == values
    distinct = sorted({v for v in values if v is not None})
    assert list(uniques) == distinct


@given(values_lists)
@settings(max_examples=150, deadline=None)
def test_factorize_keys_differential(values):
    native, legacy = build_both(values)
    native_rows = factorized_rows([native])
    legacy_rows = factorized_rows([legacy])
    assert native_rows == legacy_rows
    assert native_rows == [(v,) for v in values]


@given(values_lists, st.lists(st.one_of(st.none(), st.booleans()), max_size=40))
@settings(max_examples=100, deadline=None)
def test_factorize_keys_multi_column(values, flags):
    """Varchar + boolean composite keys agree with the object lane."""
    n = min(len(values), len(flags))
    values, flags = values[:n], flags[:n]
    from repro.core.types import BOOLEAN

    flag_block = block_from_values(BOOLEAN, flags)
    native, legacy = build_both(values)
    native_rows = factorized_rows([native, flag_block])
    legacy_rows = factorized_rows([legacy, flag_block])
    assert native_rows == legacy_rows == list(zip(values, flags))


# -- point lookups (exact_match / prefix_mask back the compiled kernels) -----


@given(values_lists, st.one_of(texts, st.sampled_from(["", "a", "é", "漢", "ab\x00"])))
@settings(max_examples=200, deadline=None)
def test_exact_match_oracle(values, needle):
    native, _ = build_both(values)
    mask = native.exact_match(needle.encode("utf-8"))
    assert mask.tolist() == [v == needle for v in values]


@given(values_lists, st.one_of(texts, st.sampled_from(["", "a", "é漢", "\x00"])))
@settings(max_examples=200, deadline=None)
def test_prefix_mask_oracle(values, prefix):
    native, _ = build_both(values)
    mask = native.prefix_mask(prefix.encode("utf-8"))
    assert mask.tolist() == [v is not None and v.startswith(prefix) for v in values]


# -- compiled expression kernels ---------------------------------------------
#
# The evaluator compiles each expression once per lane; results must match
# element-wise, nulls included.


def assert_expression_differential(expression, values, more_bindings=None):
    native, legacy = build_both(values)
    count = len(values)
    evaluator = Evaluator(REGISTRY)
    native_bindings = {"s": native, **(more_bindings or {})}
    legacy_bindings = {"s": legacy, **(more_bindings or {})}
    native_out = evaluator.evaluate(expression, native_bindings, count).to_list()
    with object_varchar_lane():
        legacy_out = (
            Evaluator(REGISTRY).evaluate(expression, legacy_bindings, count).to_list()
        )
    assert native_out == legacy_out
    return native_out


COMPARISONS = ["equal", "not_equal", "less_than", "less_than_or_equal", "greater_than"]


@given(values_lists, st.sampled_from(COMPARISONS), texts)
@settings(max_examples=150, deadline=None)
def test_compare_with_constant(values, fn_name, needle):
    expression = call(
        fn_name,
        [variable("s", VARCHAR), constant(needle, VARCHAR)],
        [VARCHAR, VARCHAR],
    )
    out = assert_expression_differential(expression, values)
    oracle = {
        "equal": lambda v: v == needle,
        "not_equal": lambda v: v != needle,
        "less_than": lambda v: v < needle,
        "less_than_or_equal": lambda v: v <= needle,
        "greater_than": lambda v: v > needle,
    }[fn_name]
    assert out == [None if v is None else oracle(v) for v in values]


@given(values_lists, st.sampled_from(COMPARISONS), texts)
@settings(max_examples=100, deadline=None)
def test_compare_constant_flipped(values, fn_name, needle):
    expression = call(
        fn_name,
        [constant(needle, VARCHAR), variable("s", VARCHAR)],
        [VARCHAR, VARCHAR],
    )
    assert_expression_differential(expression, values)


@given(values_lists, values_lists)
@settings(max_examples=100, deadline=None)
def test_compare_two_columns(left, right):
    n = min(len(left), len(right))
    left, right = left[:n], right[:n]
    other_native = block_from_values(VARCHAR, right)
    with object_varchar_lane():
        other_legacy = block_from_values(VARCHAR, right)
    expression = call(
        "less_than", [variable("s", VARCHAR), variable("t", VARCHAR)], [VARCHAR, VARCHAR]
    )
    native, legacy = build_both(left)
    evaluator = Evaluator(REGISTRY)
    native_out = evaluator.evaluate(
        expression, {"s": native, "t": other_native}, n
    ).to_list()
    with object_varchar_lane():
        legacy_out = (
            Evaluator(REGISTRY)
            .evaluate(expression, {"s": legacy, "t": other_legacy}, n)
            .to_list()
        )
    assert native_out == legacy_out
    assert native_out == [
        None if a is None or b is None else a < b for a, b in zip(left, right)
    ]


@given(values_lists)
@settings(max_examples=150, deadline=None)
def test_length(values):
    expression = call("length", [variable("s", VARCHAR)], [VARCHAR])
    out = assert_expression_differential(expression, values)
    assert out == [None if v is None else len(v) for v in values]


@given(values_lists, st.integers(1, 6), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_substr(values, start, length):
    expression = call(
        "substr",
        [variable("s", VARCHAR), constant(start, BIGINT), constant(length, BIGINT)],
        [VARCHAR, BIGINT, BIGINT],
    )
    out = assert_expression_differential(expression, values)
    assert out == [
        None if v is None else v[start - 1 : start - 1 + length] for v in values
    ]


@given(
    values_lists,
    st.lists(st.sampled_from(["a", "é", "漢", "%", "_", "ab"]), max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_like(values, pieces):
    pattern = "".join(pieces)
    expression = call(
        "like",
        [variable("s", VARCHAR), constant(pattern, VARCHAR)],
        [VARCHAR, VARCHAR],
    )
    assert_expression_differential(expression, values)


@given(values_lists, st.lists(texts, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_in_list(values, needles):
    from repro.core.expressions import SpecialForm, SpecialFormExpression
    from repro.core.types import BOOLEAN

    expression = SpecialFormExpression(
        SpecialForm.IN,
        BOOLEAN,
        (variable("s", VARCHAR), *(constant(v, VARCHAR) for v in needles)),
    )
    out = assert_expression_differential(expression, values)
    for v, got in zip(values, out):
        if v is not None:
            assert got == (v in needles)


# -- join keys ----------------------------------------------------------------


@given(values_lists, values_lists)
@settings(max_examples=150, deadline=None)
def test_join_key_differential(build_values, probe_values):
    """Hash-join key matching over varchar agrees with a Python oracle."""
    native_build, legacy_build = build_both(build_values)
    native_probe, legacy_probe = build_both(probe_values)

    def pairs(build_block, probe_block):
        index = kernels.build_join_index([build_block])
        assert index is not None
        codes = index.probe_codes([probe_block], len(probe_values))
        probe_pos, build_pos = index.expand(codes)
        return sorted(zip(probe_pos.tolist(), build_pos.tolist()))

    oracle = sorted(
        (pi, bi)
        for pi, pv in enumerate(probe_values)
        for bi, bv in enumerate(build_values)
        if pv is not None and pv == bv
    )
    assert pairs(native_build, native_probe) == oracle
    assert pairs(legacy_build, legacy_probe) == oracle


# -- NaN group keys (doubles canonicalize NaN to the null sentinel) ----------


def test_nan_groups_with_null():
    """GROUP BY over a double column: NaN and NULL share one group.

    NaN != NaN under IEEE semantics, so without canonicalization every
    NaN row would mint its own group (and the vectorized lane, which
    sorts bit patterns, would disagree with the row oracle).  The engine
    canonicalizes NaN to the null sentinel before factorization; both
    lanes must agree on that.
    """
    values = [1.0, float("nan"), None, 2.0, float("nan"), 1.0, None]
    block = block_from_values(DOUBLE, values)
    rows = factorized_rows([block])
    assert rows == [(1.0,), (None,), (None,), (2.0,), (None,), (1.0,), (None,)]
    # Exactly three groups: 1.0, 2.0, and the merged NaN/NULL sentinel.
    assert len({tuple(r) for r in rows}) == 3


@given(
    st.lists(
        st.one_of(
            st.none(),
            st.just(float("nan")),
            st.floats(allow_nan=False, allow_infinity=True),
        ),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_nan_group_keys_match_row_oracle(values):
    block = block_from_values(DOUBLE, values)
    codes, uniques = factorized_keys([block])

    def canonical(v):
        return None if v is None or (isinstance(v, float) and v != v) else v

    # Row-at-a-time oracle with the same canonicalization rule.
    oracle_codes = {}
    oracle = []
    for v in values:
        key = canonical(v)
        oracle.append(oracle_codes.setdefault(key, len(oracle_codes)))
    # Same partition of rows into groups (codes may be numbered differently).
    mapping = {}
    for got, want in zip(codes.tolist(), oracle):
        assert mapping.setdefault(got, want) == want
    assert len(set(codes.tolist())) == len(set(oracle))
    for c in codes:
        assert canonical(uniques[c][0]) == uniques[c][0]  # uniques already canonical


def test_nan_join_probe_never_matches():
    """A NaN probe key canonicalizes to null and matches nothing."""
    build = block_from_values(DOUBLE, [1.0, 2.0, float("nan")])
    probe = block_from_values(DOUBLE, [float("nan"), 1.0, None])
    index = kernels.build_join_index([build])
    assert index is not None
    codes = index.probe_codes([probe], 3)
    probe_pos, build_pos = index.expand(codes)
    assert sorted(zip(probe_pos.tolist(), build_pos.tolist())) == [(1, 0)]


# -- NUL-byte fallback guards -------------------------------------------------


def test_nul_bytes_force_fallback_paths():
    """Strings with embedded NULs survive every offsets-native operation.

    numpy S-dtype arrays strip trailing NULs, so the padded-view fast
    paths must detect NUL bytes and fall back; these values are chosen so
    a broken guard would corrupt results (trailing ``\\x00`` differs)."""
    values = ["a\x00", "a", "\x00", "", None, "a\x00b", "\x00\x00"]
    native, _ = build_both(values)
    assert native.has_nul()
    assert native.to_list() == values
    codes, uniques = native.factorize()
    assert [uniques[c] if c >= 0 else None for c in codes] == values
    assert native.exact_match(b"a\x00").tolist() == [
        True, False, False, False, False, False, False,
    ]
    assert native.prefix_mask(b"\x00").tolist() == [
        False, False, True, False, False, False, True,
    ]
