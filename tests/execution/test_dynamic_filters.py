"""Runtime dynamic filter tests: build-side summaries pruning probe scans.

Covers the filter data structures (numeric representations, the build
from page codes against the row-at-a-time oracle, the exact mask,
expression forms), a differential
of large builds against the oracle, end-to-end pruning through the memory
connector (row-level masks, empty-build split skips, the off switch, join
types that must NOT filter, the traced form), the hive tiers (partition
pruning at split enumeration, row-group skips in the parquet reader), and
retry safety under fault injection — a retried probe task must see the
identical filter and produce identical rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectors.hive import HiveConnector, write_hive_partition
from repro.connectors.memory import MemoryConnector
from repro.core.blocks import (
    DictionaryBlock,
    PrimitiveBlock,
    VarcharBlock,
    block_from_values,
)
from repro.core.functions import default_registry
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution import kernels
from repro.execution.dynamic_filters import IN_EXPRESSION_LIMIT, dynamic_filter_for
from repro.execution.engine import PrestoEngine
from repro.execution.faults import FaultInjector
from repro.metastore.metastore import HiveMetastore
from repro.planner.analyzer import Session
from repro.storage.hdfs import HdfsFileSystem
from tests.reference.dynamic_filters import (
    build_dynamic_filter,
    expected_mask,
    filter_matches,
)
from tests.reference.pipeline import execute_direct


def normalize(row):
    return tuple(
        float(f"{value:.10g}") if isinstance(value, float) else value for value in row
    )


def canonical(rows):
    return sorted(map(repr, map(normalize, rows)))


def assert_same(engine, sql, **expectations):
    staged = engine.execute(sql)
    direct = execute_direct(engine, sql)
    assert canonical(staged.rows) == canonical(direct.rows), sql
    for field, predicate in expectations.items():
        value = getattr(staged.stats, field)
        assert predicate(value), f"{field}={value} for {sql}"
    return staged


def summary(dynamic_filter):
    """What a filter holds, comparable with ``==`` (``1 == 1.0``)."""
    values = None if dynamic_filter.is_empty else dynamic_filter.values.tolist()
    return (
        values,
        dynamic_filter.bounds,
        dynamic_filter.build_distinct,
        dynamic_filter.build_rows,
    )


NAN = float("nan")


def _filter(presto_type, values):
    return dynamic_filter_for([PrimitiveBlock.from_values(presto_type, values)])


def _mask(dynamic_filter, presto_type, values):
    return dynamic_filter.mask(PrimitiveBlock.from_values(presto_type, values)).tolist()


# -- unit: numeric representations --------------------------------------------


class TestNormalize:
    """Keys meet as SQL compares them: an integer and a double compare as
    doubles, ``-0.0`` is ``0``, NaN equals nothing, and other kinds pass
    through."""

    def test_integral_float_folds_to_int(self):
        assert _mask(_filter(BIGINT, [1, 5]), DOUBLE, [1.0, 5.0, 3.0]) == [True, True, False]
        assert _mask(_filter(DOUBLE, [1.0, 5.0]), BIGINT, [1, 5, 3]) == [True, True, False]

    def test_negative_zero_folds_to_zero(self):
        assert _mask(_filter(DOUBLE, [-0.0]), BIGINT, [0, 1]) == [True, False]
        assert _mask(_filter(DOUBLE, [-0.0]), DOUBLE, [0.0, -0.0]) == [True, True]
        assert _mask(_filter(BIGINT, [0]), DOUBLE, [-0.0, 0.5]) == [True, False]

    def test_fractional_float_kept(self):
        doubles = _filter(DOUBLE, [1.5, 2.0])
        assert _mask(doubles, BIGINT, [1, 2]) == [False, True]
        assert _mask(doubles, DOUBLE, [1.5, 1.0]) == [True, False]

    def test_nan_kept(self):
        assert _filter(DOUBLE, [NAN, 1.0]).values.tolist() == [1.0]
        assert _mask(_filter(DOUBLE, [NAN, 1.0]), DOUBLE, [NAN, 1.0]) == [False, True]
        assert _mask(_filter(BIGINT, [1]), DOUBLE, [NAN]) == [False]

    def test_non_numeric_passthrough(self):
        texts = dynamic_filter_for([block_from_values(VARCHAR, ["abc", "é"])])
        assert texts.mask(block_from_values(VARCHAR, ["abc", "ab", "é"])).tolist() == [
            True,
            False,
            True,
        ]
        assert _mask(texts, VARCHAR, ["abc", 1, None]) == [True, False, False]


# -- unit: build_dynamic_filter ---------------------------------------------


class TestBuildDynamicFilter:
    def test_small_build_keeps_exact_set(self):
        f = build_dynamic_filter([3, 1, 2, 2, None])
        assert f.values.tolist() == [1, 2, 3]
        assert f.bounds == (1, 3)
        assert f.build_distinct == 3 and f.build_rows == 5

    def test_large_build_keeps_every_value(self):
        keys = np.arange(0, 150_000, 3, dtype=np.int64)
        f = dynamic_filter_for([PrimitiveBlock(BIGINT, keys, None)])
        assert f.values.tolist() == keys.tolist()
        assert f.bounds == (0, 149_997) and f.build_distinct == 50_000
        probe = PrimitiveBlock.from_values(BIGINT, [0, 1, 3, 149_997, 149_998, 10**6])
        assert f.mask(probe).tolist() == [True, False, True, True, False, False]

    def test_all_null_build_is_empty(self):
        f = build_dynamic_filter([None, None])
        assert f.is_empty and f.build_rows == 2
        assert not filter_matches(f, 1)

    def test_null_probe_value_never_matches(self):
        f = build_dynamic_filter([1, 2, 3])
        assert not filter_matches(f, None)

    def test_mixed_type_build_keeps_membership(self):
        f = dynamic_filter_for([PrimitiveBlock.from_values(VARCHAR, [1, "a", 1])])
        assert f.bounds is None  # unorderable: no min/max
        assert f.values.tolist() == [1, "a"]
        probe = PrimitiveBlock.from_values(VARCHAR, [1, "a", 2, None, "b"])
        assert f.mask(probe).tolist() == [True, True, False, False, False]

    @pytest.mark.parametrize(
        "values",
        [[NAN, 1.0, 2.0], [1.0, NAN, 2.0], [1.0, 2.0, NAN], [NAN, None, 2.0, NAN, 1.0]],
    )
    def test_nan_is_dropped_like_null(self, values):
        # min()/max() over a set holding NaN depend on iteration order:
        # NaN first used to come back as both bounds.
        for f in (
            build_dynamic_filter(values),
            dynamic_filter_for([PrimitiveBlock.from_values(DOUBLE, values)]),
        ):
            assert f.bounds == (1, 2)
            assert f.values.tolist() == [1, 2]
            assert f.build_distinct == 2 and f.build_rows == len(values)
            assert filter_matches(f, 1.0) and not filter_matches(f, NAN)

    def test_nan_only_build_is_empty(self):
        f = dynamic_filter_for([PrimitiveBlock.from_values(DOUBLE, [NAN, NAN, None])])
        assert f.is_empty and f.build_rows == 3
        assert f.bounds is None and f.values is None
        assert f.mask(PrimitiveBlock.from_values(DOUBLE, [NAN, 1.0])).tolist() == [False, False]

    def test_range_expression_never_has_a_nan_bound(self):
        # Past IN_EXPRESSION_LIMIT the filter becomes ``k >= min AND k <=
        # max``; a NaN bound made that false for every probe row.
        values = [NAN] + [float(i) + 0.5 for i in range(IN_EXPRESSION_LIMIT + 1)]
        f = dynamic_filter_for([PrimitiveBlock.from_values(DOUBLE, values)])
        assert f.bounds == (0.5, IN_EXPRESSION_LIMIT + 0.5)
        expression = f.to_expression("k", DOUBLE, default_registry())
        assert "nan" not in repr(expression.to_dict()).lower()


# -- unit: page masks ---------------------------------------------------------


def _mask_blocks():
    legacy = PrimitiveBlock.from_values(VARCHAR, ["a", None, "é", "zz", "a"])
    int_dictionary = PrimitiveBlock.from_values(BIGINT, [1, 7, 7, None, 99])
    text_dictionary = block_from_values(VARCHAR, ["a", "漢", None, "q"])
    return {
        "bigint": PrimitiveBlock.from_values(BIGINT, [1, 2, 2, 7, -3, 99, 1]),
        "bigint_nulls": PrimitiveBlock.from_values(BIGINT, [None, 1, 7, None, 2**40]),
        "bigint_all_null": PrimitiveBlock.from_values(BIGINT, [None, None]),
        "bigint_empty": PrimitiveBlock.from_values(BIGINT, []),
        "double": PrimitiveBlock.from_values(
            DOUBLE, [1.0, 1.5, -0.0, 0.0, NAN, None, 7.0, NAN, 2.5]
        ),
        "varchar": block_from_values(VARCHAR, ["a", None, "é", "zz", "", "a"]),
        "varchar_object_lane": legacy,
        "dictionary_bigint": DictionaryBlock(
            int_dictionary, np.array([0, 1, 2, 3, -1, 4, 0], dtype=np.int64)
        ),
        "dictionary_varchar": DictionaryBlock(
            text_dictionary, np.array([3, 2, -1, 0, 1, 1], dtype=np.int64)
        ),
        # A value mix np.unique cannot order: column_codes orders it by kind.
        "mixed_objects": block_from_values(VARCHAR, [1, "a", None, 1, "é"]),
    }


# Build-side columns, each the one page of a build.  The ``bloom_*`` ones
# hold more distinct keys than IN_EXPRESSION_LIMIT, so only the range
# form reaches the readers and the mask alone is exact.
_MASK_BUILDS = {
    "exact_ints": lambda: PrimitiveBlock.from_values(BIGINT, [1, 7, None, 2**40]),
    # True is 1.0 here; -0.0 equals 0.
    "exact_mixed_numbers": lambda: PrimitiveBlock.from_values(
        DOUBLE, [1.0, -0.0, 2.5, True, NAN]
    ),
    "exact_texts": lambda: block_from_values(VARCHAR, ["a", "é", "漢"]),
    "bloom_ints": lambda: PrimitiveBlock.from_values(BIGINT, list(range(0, 60_000, 3)) + [7]),
    "bloom_doubles": lambda: PrimitiveBlock.from_values(
        DOUBLE, [0.5 * i for i in range(40_000)] + [NAN, -0.0]
    ),
    "bloom_texts": lambda: block_from_values(
        VARCHAR, [chr(97 + i % 26) * (1 + i // 26) for i in range(20_000)] + ["é"]
    ),
    "unorderable": lambda: PrimitiveBlock.from_values(VARCHAR, [1, "a"]),
    "out_of_int64": lambda: PrimitiveBlock.from_values(VARCHAR, [1, 2**70]),
    "empty_build": lambda: PrimitiveBlock.from_values(BIGINT, [None, None]),
}


class TestMask:
    @pytest.mark.parametrize("filter_name", sorted(_MASK_BUILDS))
    @pytest.mark.parametrize("block_name", sorted(_mask_blocks()))
    def test_mask_is_matches_of_every_position(self, filter_name, block_name):
        build = _MASK_BUILDS[filter_name]()
        dynamic_filter = dynamic_filter_for([build])
        block = _mask_blocks()[block_name]
        mask = dynamic_filter.mask(block)
        assert mask.dtype == bool
        expected = build_dynamic_filter(build.to_list())
        assert mask.tolist() == expected_mask(expected, block.to_list())

    def test_null_nan_and_numeric_representations(self):
        f = dynamic_filter_for([PrimitiveBlock.from_values(DOUBLE, [1.0, -0.0, NAN])])
        block = PrimitiveBlock.from_values(DOUBLE, [1.0, 0.0, -0.0, NAN, None, 2.0])
        assert f.mask(block).tolist() == [True, True, True, False, False, False]
        ints = PrimitiveBlock.from_values(BIGINT, [1, 0, None, 2])
        assert f.mask(ints).tolist() == [True, True, False, False]
        assert not filter_matches(f, NAN) and not filter_matches(f, None)

    def test_integers_meet_doubles_as_doubles(self):
        # SQL compares BIGINT with DOUBLE as doubles, and so does the join:
        # float(2**53 + 1) == 2.0**53, float(2**63 - 1) == 2.0**63.
        doubles = dynamic_filter_for(
            [PrimitiveBlock.from_values(DOUBLE, [2.0**53, 2.0**63, 0.5])]
        )
        ints = [2**53, 2**53 + 1, 2**63 - 1, 0, 2**53 + 2]
        assert _mask(doubles, BIGINT, ints) == [True, True, True, False, False]
        integers = _filter(BIGINT, [2**53 + 1, 2**63 - 1])
        probe = [2.0**53, 2.0**63, 2.0**53 + 4, 0.5]
        assert _mask(integers, DOUBLE, probe) == [True, True, False, False]
        assert _mask(integers, BIGINT, [2**53, 2**53 + 1]) == [False, True]

    @pytest.mark.parametrize("block_name", sorted(_mask_blocks()) + ["unused_entries"])
    def test_the_build_from_codes_is_the_build_from_values(self, block_name):
        # The scheduler's build reads column_codes, not every row; a
        # dictionary's unused entries ("q") are no members.
        unused = DictionaryBlock(
            block_from_values(VARCHAR, ["a", "q", "b"]), np.array([0, 2, -1, 2], dtype=np.int64)
        )
        block = {**_mask_blocks(), "unused_entries": unused}[block_name]
        pages = [block, block.take(np.arange(block.position_count)[::-1])]
        built = dynamic_filter_for(pages)
        expected = build_dynamic_filter([v for page in pages for v in page.to_list()])
        assert summary(built) == summary(expected)

    def test_matches_runs_at_most_once_per_distinct_value(self, monkeypatch):
        # A factorizable probe page looks up each distinct value once, and
        # kinds that do not compare hash each distinct value once.
        looked_up, hashed = [], []
        lookup, hashable = kernels._value_positions, kernels._hashable

        def counting_lookup(sorted_keys, dense, values, nulls):
            looked_up.append(len(values))
            return lookup(sorted_keys, dense, values, nulls)

        def counting_hashable(value):
            hashed.append(value)
            return hashable(value)

        monkeypatch.setattr(kernels, "_value_positions", counting_lookup)
        monkeypatch.setattr(kernels, "_hashable", counting_hashable)
        texts = dynamic_filter_for([block_from_values(VARCHAR, ["a", "c", "e"] * 20)])
        values = ["a", "b", "a", None, "c", "b"] * 50
        assert texts.mask(block_from_values(VARCHAR, values)).tolist() == expected_mask(
            build_dynamic_filter(["a", "c", "e"]), values
        )
        assert looked_up == [3] and hashed == []
        looked_up.clear()
        mixed = dynamic_filter_for([PrimitiveBlock.from_values(VARCHAR, [1, "a", 1])])
        values = [1, "b", "a", None, 1] * 50
        assert mixed.mask(PrimitiveBlock.from_values(VARCHAR, values)).tolist() == (
            expected_mask(build_dynamic_filter([1, "a"]), values)
        )
        assert looked_up == [3] and len(hashed) == 2 + 3


# -- differential: large builds against the oracle ---------------------------

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _pages(block, cuts):
    """``block`` cut into consecutive pages at the sorted ``cuts``."""
    edges = [0, *sorted(c % (block.position_count + 1) for c in cuts), block.position_count]
    return [block.take(np.arange(a, b)) for a, b in zip(edges, edges[1:])]


def _int_build(rng, count, kind):
    """``count`` distinct int64 keys: a narrow span (the presence-table
    lookup), a wide one (``searchsorted``), or one at both int64 extremes."""
    if kind == "narrow":
        low = int(rng.integers(INT64_MIN, INT64_MAX - 4 * count))
        return low + rng.choice(4 * count, count, replace=False).astype(np.int64)
    keys = np.unique(rng.integers(INT64_MIN, INT64_MAX, count + 64, dtype=np.int64))
    keys = rng.permutation(keys)[:count]
    if kind == "extremes":
        keys[:2] = [INT64_MIN, INT64_MAX]
    return keys


def _int_probe(rng, keys, rows):
    """Build members, their neighbours and arbitrary int64 values."""
    members = rng.choice(keys, rows // 3)
    neighbours = np.clip(rng.choice(keys, rows // 3), INT64_MIN + 1, INT64_MAX - 1)
    neighbours = neighbours + rng.choice(np.array([-1, 1]), len(neighbours))
    strays = rng.integers(INT64_MIN, INT64_MAX, rows - 2 * (rows // 3), dtype=np.int64)
    values = np.concatenate([members, neighbours, strays, [INT64_MIN, INT64_MAX]])
    return rng.permutation(values)


def _with_nulls(rng, block_type, values, share=0.05):
    nulls = rng.random(len(values)) < share
    return PrimitiveBlock(block_type, values, nulls if nulls.any() else None)


def _texts(rng, count):
    """``count`` distinct strings, ASCII and not, in a random order: a
    marker, hex digits, a marker (no marker is a hex digit)."""
    marks = ["", "é", "漢", "zé"]
    return [f"{marks[i % 4]}{i:x}{marks[i % 3]}" for i in rng.permutation(count).tolist()]


builds = st.integers(10_001, 50_000)
seeds = st.integers(0, 2**32 - 1)
cuts = st.lists(st.integers(0, 10**6), max_size=3)


class TestLargeBuildDifferential:
    """``dynamic_filter_for(pages).mask(probe)`` is the oracle's per-value
    rule at every build size: no false positive, no false negative."""

    def check(self, pages, probes):
        dynamic_filter = dynamic_filter_for(pages)
        expected = build_dynamic_filter(v for page in pages for v in page.to_list())
        assert summary(dynamic_filter) == summary(expected)
        for probe in probes:
            mask = dynamic_filter.mask(probe)
            assert mask.tolist() == expected_mask(expected, probe.to_list())

    @settings(max_examples=12, deadline=None)
    @given(builds, st.sampled_from(["narrow", "wide", "extremes"]), seeds, cuts)
    def test_int64(self, count, kind, seed, page_cuts):
        rng = np.random.default_rng(seed)
        keys = _int_build(rng, count, kind)
        pages = _pages(_with_nulls(rng, BIGINT, np.repeat(keys, 2)), page_cuts)
        probe = _with_nulls(rng, BIGINT, _int_probe(rng, keys, 3_000))
        self.check(pages, [probe, DictionaryBlock(probe, rng.integers(-1, 3_000, 500))])

    @settings(max_examples=8, deadline=None)
    @given(builds, seeds, cuts)
    def test_double(self, count, seed, page_cuts):
        rng = np.random.default_rng(seed)
        whole = rng.integers(-(2**60), 2**60, count // 2).astype(np.float64)
        halves = rng.integers(-(2**20), 2**20, count - count // 2) + 0.5
        keys = np.concatenate([whole, halves, [-0.0, np.nan, 2.0**63, -(2.0**63)]])
        pages = _pages(_with_nulls(rng, DOUBLE, rng.permutation(keys)), page_cuts)
        members = rng.choice(keys, 1_000)
        doubles = np.concatenate(
            [
                members,
                np.nextafter(members, np.inf),
                [0.0, -0.0, np.nan, np.inf],
                halves[:50] + 0.25,
            ]
        )
        ints = np.concatenate(
            [
                whole[:500].astype(np.int64),
                whole[:500].astype(np.int64) + 1,
                rng.integers(INT64_MIN, INT64_MAX, 500, dtype=np.int64),
                [0, INT64_MIN, INT64_MAX, 2**53 + 1],
            ]
        )
        self.check(
            pages,
            [_with_nulls(rng, DOUBLE, rng.permutation(doubles)), _with_nulls(rng, BIGINT, ints)],
        )

    @settings(max_examples=6, deadline=None)
    @given(builds, seeds, cuts)
    def test_varchar_and_dictionaries(self, count, seed, page_cuts):
        rng = np.random.default_rng(seed)
        words = _texts(rng, count + 200)
        used, unused = words[:-200], words[-200:]
        column = list(rng.permutation(np.array(used + used[:100], dtype=object)))
        column[:: 37] = [None] * len(column[:: 37])
        varchar = VarcharBlock.from_values(column)
        # A dictionary page whose dictionary also holds words no row uses.
        dictionary = VarcharBlock.from_values(used[:500] + unused + [None])
        ids = rng.integers(-1, 500, 2_000)
        pages = _pages(varchar, page_cuts) + [DictionaryBlock(dictionary, ids)]
        probe_values = list(rng.choice(np.array(words, dtype=object), 2_000)) + [None, "", "a"]
        probe = VarcharBlock.from_values(probe_values)
        legacy = PrimitiveBlock.from_values(VARCHAR, probe_values)
        self.check(pages, [probe, legacy, DictionaryBlock(probe, rng.integers(-1, 2_000, 700))])

    @settings(max_examples=4, deadline=None)
    @given(builds, seeds)
    def test_mixed_kind_objects(self, count, seed):
        rng = np.random.default_rng(seed)
        ints = rng.choice(10 * count, count // 2, replace=False).tolist()
        texts = [f"k{i}é" for i in rng.choice(10 * count, count - count // 2, replace=False)]
        column = ints + texts + [None, 2.5]
        pages = [PrimitiveBlock.from_values(VARCHAR, column)]
        strays = [i + 1 for i in ints[:300]] + ["k", None, 2.5, 3.0]
        probe_values = ints[:300] + texts[:300] + strays
        self.check(pages, [PrimitiveBlock.from_values(VARCHAR, probe_values)])


# -- unit: expression forms --------------------------------------------------


class TestToExpression:
    registry = default_registry()

    def test_single_value_is_equality(self):
        f = build_dynamic_filter([7])
        expr = f.to_expression("k", BIGINT, self.registry)
        assert "equal" in str(expr).lower()

    def test_small_set_is_in_list(self):
        f = build_dynamic_filter([1, 2, 3])
        expr = f.to_expression("k", BIGINT, self.registry)
        assert "in" in str(expr).lower()

    def test_large_set_is_range(self):
        f = build_dynamic_filter(range(500))
        expr = f.to_expression("k", BIGINT, self.registry)
        text = str(expr).lower()
        assert "in" not in text.split("(")[0]
        assert "greater_than_or_equal" in text and "less_than_or_equal" in text

    def test_expression_is_deterministic(self):
        a = build_dynamic_filter([5, 3, 9]).to_expression("k", BIGINT, self.registry)
        b = build_dynamic_filter([9, 5, 3]).to_expression("k", BIGINT, self.registry)
        assert str(a) == str(b)

    def test_empty_filter_has_no_expression(self):
        f = build_dynamic_filter([None])
        assert f.to_expression("k", BIGINT, self.registry) is None


# -- end-to-end: memory connector -------------------------------------------


def make_memory_engine(**engine_kwargs):
    connector = MemoryConnector(split_size=100)
    connector.create_table(
        "db",
        "fact",
        [("fk", BIGINT), ("v", DOUBLE)],
        [(i % 50, float(i)) for i in range(500)],
    )
    connector.create_table(
        "db",
        "dim",
        [("k", BIGINT), ("name", VARCHAR)],
        [(i, f"n{i % 5}") for i in range(50)],
    )
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"), **engine_kwargs)
    engine.register_connector("memory", connector)
    return engine


JOIN_SQL = (
    "SELECT count(*) FROM fact JOIN dim ON fact.fk = dim.k WHERE dim.name = 'n1'"
)


class TestMemoryEndToEnd:
    def test_inner_join_builds_filter_and_prunes_rows(self):
        engine = make_memory_engine()
        result = assert_same(
            engine,
            JOIN_SQL,
            dynamic_filters_built=lambda n: n == 1,
            dynamic_filter_rows_pruned=lambda n: n > 0,
        )
        # 10 of 50 dim keys survive the filter; each matches 10 fact rows.
        assert result.rows == [(100,)]
        pruned = result.stats.dynamic_filter_rows_pruned
        assert pruned == 500 - 100

    def test_empty_build_side_skips_all_splits(self):
        engine = make_memory_engine()
        result = assert_same(
            engine,
            "SELECT count(*) FROM fact JOIN dim ON fact.fk = dim.k "
            "WHERE dim.name = 'no-such-name'",
            dynamic_filter_splits_skipped=lambda n: n > 0,
        )
        assert result.rows == [(0,)]
        assert result.stats.rows_scanned < 500 + 50  # probe never scanned

    def test_off_switch_builds_nothing(self):
        engine = make_memory_engine(enable_dynamic_filtering=False)
        result = assert_same(
            engine,
            JOIN_SQL,
            dynamic_filters_built=lambda n: n == 0,
            dynamic_filter_rows_pruned=lambda n: n == 0,
        )
        assert result.rows == [(100,)]

    def test_left_join_is_never_filtered(self):
        # LEFT JOIN preserves unmatched probe rows; filtering the probe
        # side would silently drop them.
        engine = make_memory_engine()
        result = assert_same(
            engine,
            "SELECT count(*) FROM fact LEFT JOIN dim "
            "ON fact.fk = dim.k AND dim.name = 'n1'",
            dynamic_filters_built=lambda n: n == 0,
        )
        assert result.rows == [(500,)]

    def test_filtered_and_unfiltered_rows_agree(self):
        on = make_memory_engine().execute(JOIN_SQL)
        off = make_memory_engine(enable_dynamic_filtering=False).execute(JOIN_SQL)
        assert on.rows == off.rows

    def test_projection_over_join_still_traces_to_scan(self):
        engine = make_memory_engine()
        assert_same(
            engine,
            "SELECT sum(v) FROM fact JOIN dim ON fact.fk = dim.k "
            "WHERE dim.name = 'n2'",
            dynamic_filters_built=lambda n: n == 1,
            dynamic_filter_rows_pruned=lambda n: n > 0,
        )


class TestTracedForm:
    """The ``dynamic_filter`` trace event names the expression form that was
    pushed into the probe scan."""

    BUILDS = {
        "nulls": ([None] * 20, "none"),
        "one": ([7, 7], "equal"),
        "few": (list(range(IN_EXPRESSION_LIMIT)), "in"),
        "many": (list(range(IN_EXPRESSION_LIMIT + 1)), "range"),
    }

    @pytest.mark.parametrize("build", sorted(BUILDS))
    def test_form_is_the_pushed_expression(self, build):
        keys, form = self.BUILDS[build]
        connector = MemoryConnector(split_size=100)
        connector.create_table("db", "fact", [("fk", BIGINT)], [(i % 300,) for i in range(600)])
        connector.create_table("db", "dim", [("k", BIGINT)], [(k,) for k in keys])
        engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
        engine.register_connector("memory", connector)
        result = engine.execute("SELECT count(*) FROM fact JOIN dim ON fact.fk = dim.k")
        assert result.rows == [(sum(2 for k in keys if k is not None),)]
        (event,) = result.trace.find("dynamic_filter")
        assert event.attributes["form"] == form
        assert event.attributes["build_rows"] == len(keys)


class TestNanBuildKey:
    """A NaN on the build side of a DOUBLE-key join equals no probe row and
    must not turn the dynamic filter into one that drops the others."""

    SQL = "SELECT p.k, p.v, b.w FROM probe p JOIN build b ON p.k = b.k"
    # More build keys than IN_EXPRESSION_LIMIT: the filter is the range form.
    KEYS = [float(i) + 0.5 for i in range(IN_EXPRESSION_LIMIT + 20)]

    @pytest.mark.parametrize("dynamic_filtering", [True, False])
    @pytest.mark.parametrize("splits", [1, 3])
    def test_rows_are_the_same_with_and_without_the_filter(self, splits, dynamic_filtering):
        build = [(NAN, -1)] + [(k, i) for i, k in enumerate(self.KEYS)] + [(None, -2)]
        probe = [(k, i) for i, k in enumerate(self.KEYS[::2] + [NAN, None, 1e9])]
        connector = MemoryConnector(split_size=-(-len(build) // splits))
        connector.create_table("db", "build", [("k", DOUBLE), ("w", BIGINT)], build)
        connector.create_table("db", "probe", [("k", DOUBLE), ("v", BIGINT)], probe)
        engine = PrestoEngine(
            session=Session(catalog="memory", schema="db"),
            enable_dynamic_filtering=dynamic_filtering,
        )
        engine.register_connector("memory", connector)
        result = engine.execute(self.SQL)
        assert result.stats.dynamic_filters_built == int(dynamic_filtering)
        expected = [(k, i, 2 * i) for i, k in enumerate(self.KEYS[::2])]
        assert sorted(result.rows) == expected
        assert sorted(execute_direct(engine, self.SQL).rows) == expected


class TestMixedNumericKeys:
    """A BIGINT probe key joined to a DOUBLE build key compares as doubles;
    the filter must keep every probe row the join matches."""

    SQL = "SELECT count(*) FROM fact JOIN dim ON fact.fk = dim.k"

    @pytest.mark.parametrize("dynamic_filtering", [True, False])
    def test_the_filter_keeps_what_the_join_matches(self, dynamic_filtering):
        connector = MemoryConnector(split_size=100)
        fact = [(i,) for i in range(300)] + [(2**53 + 1,)]
        dim = [(float(i),) for i in range(0, 300, 3)] + [(2.0**53,)]
        connector.create_table("db", "fact", [("fk", BIGINT)], fact)
        connector.create_table("db", "dim", [("k", DOUBLE)], dim)
        engine = PrestoEngine(
            session=Session(catalog="memory", schema="db"),
            enable_dynamic_filtering=dynamic_filtering,
        )
        engine.register_connector("memory", connector)
        result = engine.execute(self.SQL)
        assert result.stats.dynamic_filters_built == int(dynamic_filtering)
        assert result.rows == [(101,)]

    @pytest.mark.parametrize("dynamic_filtering", [True, False])
    def test_a_double_probe_meets_integer_build_keys_as_doubles(self, dynamic_filtering):
        # 2**53 and 2**53 + 1 are both 2.0**53 as doubles: the DOUBLE
        # probe row 2.0**53 matches both, whichever side builds.
        connector = MemoryConnector(split_size=100)
        connector.create_table("db", "probe", [("k", DOUBLE)], [(2.0**53,), (1.0,)])
        connector.create_table(
            "db", "build", [("k", BIGINT)], [(2**53,), (2**53 + 1,), (1,)]
        )
        engine = PrestoEngine(
            session=Session(catalog="memory", schema="db"),
            enable_dynamic_filtering=dynamic_filtering,
        )
        engine.register_connector("memory", connector)
        for sql in (
            "SELECT count(*) FROM probe p JOIN build b ON p.k = b.k",
            "SELECT count(*) FROM build b JOIN probe p ON p.k = b.k",
        ):
            result = engine.execute(sql)
            assert result.stats.dynamic_filters_built == int(dynamic_filtering)
            assert result.rows == [(3,)], sql


class TestRetrySafety:
    def test_task_retries_see_identical_filter(self):
        # The filter is built once per query from the completed build
        # exchange; a retried probe task must re-apply the identical
        # filter and converge on the same rows.
        clean = make_memory_engine().execute(JOIN_SQL)
        faulty_engine = make_memory_engine(
            fault_injector=FaultInjector(seed=7, task_failure_rate=0.1)
        )
        faulty = faulty_engine.execute(JOIN_SQL)
        assert faulty.stats.tasks_retried > 0, "fault rate never fired"
        assert faulty.rows == clean.rows
        assert (
            faulty.stats.dynamic_filters_built == clean.stats.dynamic_filters_built
        )

    def test_split_level_faults_do_not_change_results(self):
        clean = make_memory_engine().execute(JOIN_SQL)
        # The probe's one source task reads fact's five splits; a split
        # rate of 1 - 0.9 ** (1 / 5) fails 10 % of its attempts.
        faulty = make_memory_engine(
            fault_injector=FaultInjector(seed=3, split_failure_rate=1 - 0.9 ** (1 / 5))
        ).execute(JOIN_SQL)
        assert faulty.rows == clean.rows


# -- end-to-end: hive tiers --------------------------------------------------


def make_hive_engine(**engine_kwargs):
    """Hive fact table (sorted keys, small row groups, two partitions)
    joined against a memory dimension table."""
    metastore = HiveMetastore()
    fs = HdfsFileSystem()
    metastore.create_table(
        "wh",
        "fact",
        [("sk", BIGINT), ("v", DOUBLE)],
        partition_keys=[("region", VARCHAR)],
    )
    for region, start in [("east", 0), ("west", 400)]:
        rows = [(start + i, float(start + i)) for i in range(400)]
        write_hive_partition(
            metastore,
            fs,
            "wh",
            "fact",
            [region],
            [Page.from_rows([BIGINT, DOUBLE], rows)],
            files=2,
            row_group_size=25,
        )
    hive = HiveConnector(metastore, fs, reader="new")
    memory = MemoryConnector()
    memory.create_table(
        "db", "dim", [("k", BIGINT), ("label", VARCHAR)], [(30 + i, "x") for i in range(10)]
    )
    memory.create_table(
        "db", "regions", [("r", VARCHAR)], [("east",)]
    )
    engine = PrestoEngine(session=Session(catalog="hive", schema="wh"), **engine_kwargs)
    engine.register_connector("hive", hive)
    engine.register_connector("memory", memory)
    return engine


class TestHiveTiers:
    def test_row_group_skips_from_sorted_key(self):
        # dim holds keys 30..39; the fact table is sorted by sk with
        # 25-row groups, so at most two groups per matching file overlap
        # the filter's [30, 39] range — everything else skips on footer
        # stats without decoding a page.
        engine = make_hive_engine()
        result = assert_same(
            engine,
            "SELECT count(*) FROM fact JOIN memory.db.dim d ON fact.sk = d.k",
            dynamic_filters_built=lambda n: n == 1,
            row_groups_skipped_by_dynamic_filter=lambda n: n >= 16,
        )
        assert result.rows == [(10,)]
        stats = result.stats
        assert stats.row_groups_skipped_by_dynamic_filter >= (
            stats.row_groups_total // 2
        ), "acceptance: at least half the probe row groups must skip"

    def test_partition_key_filter_prunes_splits(self):
        # Joining on the partition key prunes whole partitions at split
        # enumeration — the west partition's files are never listed.
        engine = make_hive_engine()
        full = engine.execute("SELECT count(*) FROM fact")
        result = assert_same(
            engine,
            "SELECT count(*) FROM fact JOIN memory.db.regions r ON fact.region = r.r",
            dynamic_filters_built=lambda n: n == 1,
        )
        assert result.rows == [(400,)]
        assert result.stats.splits_scanned < full.stats.splits_scanned

    def test_partition_key_filter_does_not_mask_rows(self):
        # Regression: a partition key is not a file column; evaluating the
        # partition conjunct against file pages would null-decode it and
        # drop every row.  The count proves rows survive.
        engine = make_hive_engine()
        result = engine.execute(
            "SELECT sum(v) FROM fact JOIN memory.db.regions r ON fact.region = r.r"
        )
        assert result.rows[0][0] == sum(float(i) for i in range(400))

    def test_explain_analyze_reports_dynamic_filtering(self):
        engine = make_hive_engine()
        text = engine.explain_analyze(
            "SELECT count(*) FROM fact JOIN memory.db.dim d ON fact.sk = d.k"
        )
        assert "Dynamic filters:" in text
