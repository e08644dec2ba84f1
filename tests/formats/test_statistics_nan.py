"""NaN-poisoning regressions in column chunk statistics.

A single NaN used to poison a float chunk's footer min/max (ndarray
``min()``/``max()`` propagate NaN; Python ``min()``/``max()`` return
order-dependent garbage because NaN never orders).  NaN-poisoned stats
serialize as JSON ``NaN`` and defeat every stats-based row-group skip —
static and dynamic alike.  Both stats paths must summarize only the
comparable values.
"""

import math

import numpy as np

from repro.core.expressions import CallExpression, constant, variable
from repro.core.functions import default_registry
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.formats.parquet.file import LeafChunk, ParquetFile
from repro.formats.parquet.metadata import ColumnStatistics
from repro.formats.parquet.reader_new import NewParquetReader
from repro.formats.parquet.schema import ParquetSchema
from repro.formats.parquet.writer_native import NativeParquetWriter
from repro.formats.parquet.writer_old import OldParquetWriter

NAN = float("nan")


def leaf_chunk(values):
    schema = ParquetSchema([("fare", DOUBLE)])
    return LeafChunk(
        leaf=schema.leaf("fare"),
        repetition=[0] * len(values),
        definition=[1] * len(values),
        defined_values=np.asarray(values, dtype=np.float64),
        num_slots=len(values),
    )


class TestLeafChunkStatistics:
    def test_nan_excluded_from_numpy_min_max(self):
        stats = leaf_chunk([3.0, NAN, 1.0, 2.0]).compute_statistics()
        assert (stats.min_value, stats.max_value) == (1.0, 3.0)

    def test_all_nan_chunk_has_no_min_max(self):
        stats = leaf_chunk([NAN, NAN]).compute_statistics()
        assert stats.min_value is None and stats.max_value is None
        assert stats.num_values == 2

    def test_clean_floats_unchanged(self):
        stats = leaf_chunk([2.5, 0.5]).compute_statistics()
        assert (stats.min_value, stats.max_value) == (0.5, 2.5)
        assert stats.null_count == 0

    def test_signed_zeros_keep_the_first_as_the_list_path_does(self):
        # 0.0 and -0.0 tie: both paths report the first of them, so the
        # two writers' footers agree on the sign.
        for values in ([0.0, -0.0], [-0.0, 0.0, 1.0], [1.0, -0.0, 0.0]):
            stats = leaf_chunk(values).compute_statistics()
            expected = ColumnStatistics.of(values, len(values))
            assert math.copysign(1, stats.min_value) == math.copysign(1, expected.min_value)
            assert math.copysign(1, stats.max_value) == math.copysign(1, expected.max_value)


class TestColumnStatisticsOf:
    def test_nan_excluded_from_list_min_max(self):
        stats = ColumnStatistics.of([NAN, 4.0, None, 2.0], num_slots=4)
        assert (stats.min_value, stats.max_value) == (2.0, 4.0)
        assert stats.null_count == 1

    def test_all_nan_defined_values(self):
        stats = ColumnStatistics.of([NAN, NAN, None], num_slots=3)
        assert stats.min_value is None and stats.max_value is None
        assert stats.null_count == 1  # NaN is defined, not null

    def test_unorderable_values_keep_counts(self):
        stats = ColumnStatistics.of([1, "a"], num_slots=2)
        assert stats.min_value is None and stats.null_count == 0


SCHEMA = ParquetSchema([("k", BIGINT), ("fare", DOUBLE)])


def write_blob(writer_cls, rows, row_group_size=10):
    page = Page.from_rows([BIGINT, DOUBLE], rows)
    return writer_cls(SCHEMA, row_group_size=row_group_size).write_pages([page])


def fare_at_least(value):
    handle, _ = default_registry().resolve_scalar(
        "greater_than_or_equal", [DOUBLE, DOUBLE]
    )
    return CallExpression(
        "greater_than_or_equal",
        handle,
        handle.resolved_return_type(),
        (variable("fare", DOUBLE), constant(value, DOUBLE)),
    )


class TestWriterRoundTrip:
    def test_both_writers_store_comparable_stats(self):
        rows = [(i, NAN if i % 10 == 0 else float(i)) for i in range(20)]
        for writer_cls in (NativeParquetWriter, OldParquetWriter):
            footer = ParquetFile(write_blob(writer_cls, rows)).metadata
            for group in footer.row_groups:
                stats = group.column("fare").statistics
                assert stats.min_value == stats.min_value, "footer min is NaN"
                assert stats.max_value == stats.max_value, "footer max is NaN"

    def test_row_group_skip_survives_nan_rows(self):
        # fares ascend with one NaN per group; groups below the predicate
        # threshold must still skip on footer stats.
        rows = [(i, NAN if i % 10 == 5 else float(i)) for i in range(40)]
        blob = write_blob(NativeParquetWriter, rows, row_group_size=10)
        reader = NewParquetReader(
            ParquetFile(blob), ["k"], predicate=fare_at_least(30.0)
        )
        kept = [row[0] for p in reader.read_pages() for row in p.loaded().rows()]
        assert kept == [i for i in range(30, 40) if i % 10 != 5]
        assert reader.stats.row_groups_skipped_by_stats == 3

    def test_nan_rows_never_pass_comparisons(self):
        rows = [(i, NAN if i % 2 else float(i)) for i in range(10)]
        blob = write_blob(NativeParquetWriter, rows)
        reader = NewParquetReader(
            ParquetFile(blob), ["k"], predicate=fare_at_least(0.0)
        )
        kept = [row[0] for p in reader.read_pages() for row in p.loaded().rows()]
        assert kept == [0, 2, 4, 6, 8]
