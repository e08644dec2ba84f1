"""Runtime dynamic filter tests: build-side summaries pruning probe scans.

Covers the filter data structures (normalization, bloom determinism,
expression forms), end-to-end pruning through the memory connector
(row-level masks, empty-build split skips, the off switch, join types
that must NOT filter), the hive tiers (partition pruning at split
enumeration, row-group skips in the parquet reader), and retry safety
under fault injection — a retried probe task must see the identical
filter and produce identical rows.
"""

import math

import numpy as np
import pytest

from repro.connectors.hive import HiveConnector, write_hive_partition
from repro.connectors.memory import MemoryConnector
from repro.core.blocks import (
    DictionaryBlock,
    PrimitiveBlock,
    block_from_values,
    object_varchar_lane,
)
from repro.core.functions import default_registry
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution import dynamic_filters
from repro.execution.dynamic_filters import (
    IN_EXPRESSION_LIMIT,
    BloomFilter,
    DynamicFilter,
    build_dynamic_filter,
    dynamic_filter_for,
    _normalize,
)
from repro.execution.engine import PrestoEngine
from repro.execution.faults import FaultInjector
from repro.metastore.metastore import HiveMetastore
from repro.planner.analyzer import Session
from repro.storage.hdfs import HdfsFileSystem


def normalize(row):
    return tuple(
        float(f"{value:.10g}") if isinstance(value, float) else value for value in row
    )


def canonical(rows):
    return sorted(map(repr, map(normalize, rows)))


def assert_same(engine, sql, **expectations):
    staged = engine.execute(sql)
    direct = engine.execute_direct(sql)
    assert canonical(staged.rows) == canonical(direct.rows), sql
    for field, predicate in expectations.items():
        value = getattr(staged.stats, field)
        assert predicate(value), f"{field}={value} for {sql}"
    return staged


# -- unit: value normalization ----------------------------------------------


class TestNormalize:
    def test_integral_float_folds_to_int(self):
        assert _normalize(1.0) == 1 and isinstance(_normalize(1.0), int)

    def test_negative_zero_folds_to_zero(self):
        assert _normalize(-0.0) == 0 and isinstance(_normalize(-0.0), int)

    def test_fractional_float_kept(self):
        assert _normalize(1.5) == 1.5

    def test_nan_kept(self):
        result = _normalize(float("nan"))
        assert isinstance(result, float) and math.isnan(result)

    def test_non_numeric_passthrough(self):
        assert _normalize("abc") == "abc"


# -- unit: bloom filter ------------------------------------------------------


class TestBloomFilter:
    def test_no_false_negatives(self):
        values = [f"key-{i}" for i in range(500)]
        bloom = BloomFilter.build(values, len(values))
        assert all(bloom.contains(v) for v in values)

    def test_false_positive_rate_is_low(self):
        bloom = BloomFilter.build(range(1000), 1000)
        absent = [f"absent-{i}" for i in range(1000)]
        false_positives = sum(bloom.contains(v) for v in absent)
        # 10 bits/value + 4 hashes gives ~1% theoretical; allow headroom.
        assert false_positives < 50

    def test_deterministic_across_builds(self):
        a = BloomFilter.build(range(100), 100)
        b = BloomFilter.build(range(100), 100)
        assert (a.bits == b.bits).all()

    def test_equal_representations_collide(self):
        # 1 and 1.0 are SQL-equal; the bloom must not distinguish them.
        bloom = BloomFilter.build([1.0, 2.0], 2)
        assert bloom.contains(1) and bloom.contains(2)


# -- unit: build_dynamic_filter ---------------------------------------------

NAN = float("nan")


class TestBuildDynamicFilter:
    def test_small_build_keeps_exact_set(self):
        f = build_dynamic_filter([3, 1, 2, 2, None])
        assert f.values == frozenset({1, 2, 3})
        assert f.bloom is None
        assert (f.min_value, f.max_value) == (1, 3)
        assert f.build_distinct == 3 and f.build_rows == 5

    def test_large_build_degrades_to_bloom(self):
        f = build_dynamic_filter(range(50), exact_limit=10)
        assert f.values is None and f.bloom is not None
        assert (f.min_value, f.max_value) == (0, 49)
        assert all(f.matches(v) for v in range(50))
        assert not f.matches(1000)  # outside min/max: definite miss

    def test_all_null_build_is_empty(self):
        f = build_dynamic_filter([None, None])
        assert f.is_empty and f.build_rows == 2
        assert not f.matches(1)

    def test_null_probe_value_never_matches(self):
        f = build_dynamic_filter([1, 2, 3])
        assert not f.matches(None)

    def test_mixed_type_build_keeps_membership(self):
        f = build_dynamic_filter([1, "a"])  # unorderable: no min/max
        assert f.min_value is None and f.matches(1) and f.matches("a")
        assert not f.matches(2)

    @pytest.mark.parametrize(
        "values",
        [[NAN, 1.0, 2.0], [1.0, NAN, 2.0], [1.0, 2.0, NAN], [NAN, None, 2.0, NAN, 1.0]],
    )
    def test_nan_is_dropped_like_null(self, values):
        # min()/max() over a set holding NaN depend on iteration order:
        # NaN first used to come back as both bounds.
        f = build_dynamic_filter(values)
        assert (f.min_value, f.max_value) == (1, 2)
        assert f.values == frozenset({1, 2})
        assert f.build_distinct == 2 and f.build_rows == len(values)
        assert f.matches(1.0) and not f.matches(NAN)

    def test_nan_only_build_is_empty(self):
        f = build_dynamic_filter([NAN, NAN, None])
        assert f.is_empty and f.build_rows == 3
        assert f.min_value is None and f.values is None
        assert not f.matches(NAN) and not f.matches(1.0)

    def test_range_expression_never_has_a_nan_bound(self):
        # Past IN_EXPRESSION_LIMIT the filter becomes ``k >= min AND k <=
        # max``; a NaN bound made that false for every probe row.
        values = [NAN] + [float(i) + 0.5 for i in range(IN_EXPRESSION_LIMIT + 1)]
        f = build_dynamic_filter(values)
        assert (f.min_value, f.max_value) == (0.5, IN_EXPRESSION_LIMIT + 0.5)
        expression = f.to_expression("k", DOUBLE, default_registry())
        assert "nan" not in repr(expression.to_dict()).lower()


# -- unit: page masks ---------------------------------------------------------


def _mask_blocks():
    with object_varchar_lane():
        legacy = block_from_values(VARCHAR, ["a", None, "\u00e9", "zz", "a"])
    int_dictionary = PrimitiveBlock.from_values(BIGINT, [1, 7, 7, None, 99])
    text_dictionary = block_from_values(VARCHAR, ["a", "\u6f22", None, "q"])
    return {
        "bigint": PrimitiveBlock.from_values(BIGINT, [1, 2, 2, 7, -3, 99, 1]),
        "bigint_nulls": PrimitiveBlock.from_values(BIGINT, [None, 1, 7, None, 2**40]),
        "bigint_all_null": PrimitiveBlock.from_values(BIGINT, [None, None]),
        "bigint_empty": PrimitiveBlock.from_values(BIGINT, []),
        "double": PrimitiveBlock.from_values(
            DOUBLE, [1.0, 1.5, -0.0, 0.0, NAN, None, 7.0, NAN, 2.5]
        ),
        "varchar": block_from_values(VARCHAR, ["a", None, "\u00e9", "zz", "", "a"]),
        "varchar_object_lane": legacy,
        "dictionary_bigint": DictionaryBlock(
            int_dictionary, np.array([0, 1, 2, 3, -1, 4, 0], dtype=np.int64)
        ),
        "dictionary_varchar": DictionaryBlock(
            text_dictionary, np.array([3, 2, -1, 0, 1, 1], dtype=np.int64)
        ),
        # A value mix np.unique cannot order: column_codes orders it by kind.
        "mixed_objects": block_from_values(VARCHAR, [1, "a", None, 1, "\u00e9"]),
    }


_MASK_FILTERS = {
    "exact_ints": lambda: build_dynamic_filter([1, 7, None, 2**40]),
    # 1.0 and -0.0 fold onto the ints 1 and 0; 2.5 stays a float.
    "exact_mixed_numbers": lambda: build_dynamic_filter([1.0, -0.0, 2.5, True, NAN]),
    "exact_texts": lambda: build_dynamic_filter(["a", "\u00e9", "\u6f22"]),
    "bloom_ints": lambda: build_dynamic_filter(list(range(0, 60, 3)) + [7], exact_limit=5),
    "bloom_doubles": lambda: build_dynamic_filter(
        [0.5 * i for i in range(40)] + [NAN, -0.0], exact_limit=5
    ),
    "bloom_texts": lambda: build_dynamic_filter(
        [chr(97 + i) for i in range(20)] + ["\u00e9"], exact_limit=5
    ),
    "unorderable": lambda: build_dynamic_filter([1, "a"]),
    "out_of_int64": lambda: build_dynamic_filter([1, 2**70]),
    "empty_build": lambda: build_dynamic_filter([None, None]),
}


class TestMask:
    @pytest.mark.parametrize("filter_name", sorted(_MASK_FILTERS))
    @pytest.mark.parametrize("block_name", sorted(_mask_blocks()))
    def test_mask_is_matches_of_every_position(self, filter_name, block_name):
        dynamic_filter = _MASK_FILTERS[filter_name]()
        block = _mask_blocks()[block_name]
        mask = dynamic_filter.mask(block)
        assert mask.dtype == bool
        assert mask.tolist() == [dynamic_filter.matches(v) for v in block.to_list()]

    def test_null_nan_and_numeric_representations(self):
        f = build_dynamic_filter([1.0, -0.0, NAN])
        block = PrimitiveBlock.from_values(DOUBLE, [1.0, 0.0, -0.0, NAN, None, 2.0])
        assert f.mask(block).tolist() == [True, True, True, False, False, False]
        ints = PrimitiveBlock.from_values(BIGINT, [1, 0, None, 2])
        assert f.mask(ints).tolist() == [True, True, False, False]
        assert not f.matches(NAN) and not f.matches(None)

    @pytest.mark.parametrize("block_name", sorted(_mask_blocks()) + ["unused_entries"])
    def test_the_build_from_codes_is_the_build_from_values(self, block_name):
        # The scheduler's build reads column_codes, not every row; a
        # dictionary's unused entries ("q") are no members.
        unused = DictionaryBlock(
            block_from_values(VARCHAR, ["a", "q", "b"]), np.array([0, 2, -1, 2], dtype=np.int64)
        )
        block = {**_mask_blocks(), "unused_entries": unused}[block_name]
        pages = [block, block.take(np.arange(block.position_count)[::-1])]
        for limit in (2, 10_000):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dynamic_filters, "DEFAULT_EXACT_VALUES_LIMIT", limit)
                built = dynamic_filter_for(pages)
            expected = build_dynamic_filter(
                [v for page in pages for v in page.to_list()], exact_limit=limit
            )
            bits = [None if f.bloom is None else f.bloom.bits.tolist() for f in (built, expected)]
            assert bits[0] == bits[1]
            built.bloom = expected.bloom = None
            assert built == expected

    def test_matches_runs_at_most_once_per_distinct_value(self):
        calls = []

        class Counting(DynamicFilter):
            def matches(self, value):
                calls.append(value)
                return super().matches(value)

        built = build_dynamic_filter(range(0, 50, 2), exact_limit=5)
        counting = Counting(**vars(built))
        values = [4.0, 5.0, 4.0, None, 6.0, 5.0, NAN] * 50
        block = PrimitiveBlock.from_values(DOUBLE, values)
        mask = counting.mask(block)
        assert sorted(calls) == [4.0, 5.0, 6.0]
        assert mask.tolist() == [built.matches(v) for v in values]


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
        assert sorted(engine.execute_direct(self.SQL).rows) == expected


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
        faulty = make_memory_engine(
            fault_injector=FaultInjector(seed=3, split_failure_rate=0.1)
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
