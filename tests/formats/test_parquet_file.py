"""Round-trip tests for the parquet file format, writers, and readers."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import ArrayBlock, MapBlock, RowBlock
from repro.core.page import Page
from repro.core.types import (
    ArrayType,
    BIGINT,
    BOOLEAN,
    DOUBLE,
    MapType,
    RowType,
    VARCHAR,
)
from repro.formats.parquet import compression
from repro.formats.parquet.file import ParquetFile, read_footer
from repro.formats.parquet.options import ReaderOptions
from repro.formats.parquet.reader_new import NewParquetReader
from repro.formats.parquet.reader_old import OldParquetReader
from repro.formats.parquet.schema import ParquetSchema
from repro.formats.parquet.writer_native import NativeParquetWriter
from repro.formats.parquet.writer_old import OldParquetWriter
from repro.storage.filesystem import BytesInput
from repro.workloads.trips import TRIPS_COLUMNS, generate_trips_rows


TRIPS_BASE = RowType.of(
    ("city_id", BIGINT), ("driver_uuid", VARCHAR), ("status", VARCHAR)
)
TRIPS_SCHEMA = ParquetSchema(
    [("base", TRIPS_BASE), ("datestr", VARCHAR), ("fare", DOUBLE)]
)


def trips_rows(n, city_for=lambda i: i % 5):
    return [
        (
            {
                "city_id": city_for(i),
                "driver_uuid": f"driver-{i}",
                "status": "completed" if i % 3 else "cancelled",
            },
            f"2017-03-{(i % 28) + 1:02d}",
            float(i) * 1.5,
        )
        for i in range(n)
    ]


def write_trips(n=100, codec=compression.SNAPPY, writer_cls=NativeParquetWriter, row_group_size=40):
    page = Page.from_rows([TRIPS_BASE, VARCHAR, DOUBLE], trips_rows(n))
    writer = writer_cls(TRIPS_SCHEMA, codec=codec, row_group_size=row_group_size)
    return writer.write_pages([page])


class TestSchema:
    def test_leaf_enumeration(self):
        leaves = {l.path for l in TRIPS_SCHEMA.leaves()}
        assert leaves == {
            "base.city_id",
            "base.driver_uuid",
            "base.status",
            "datestr",
            "fare",
        }

    def test_levels(self):
        leaf = TRIPS_SCHEMA.leaf("base.city_id")
        assert leaf.max_definition_level == 2  # base optional + leaf optional
        assert leaf.max_repetition_level == 0
        flat = TRIPS_SCHEMA.leaf("datestr")
        assert flat.max_definition_level == 1

    def test_array_levels(self):
        schema = ParquetSchema([("tags", ArrayType(VARCHAR))])
        leaf = schema.leaf("tags.element")
        assert leaf.max_definition_level == 3  # list + slot + element
        assert leaf.max_repetition_level == 1

    def test_map_leaves(self):
        schema = ParquetSchema([("m", MapType(VARCHAR, DOUBLE))])
        assert {l.path for l in schema.leaves()} == {"m.key", "m.value"}

    def test_serialization_round_trip(self):
        assert ParquetSchema.from_dict(TRIPS_SCHEMA.to_dict()) == TRIPS_SCHEMA

    def test_leaves_under(self):
        assert {l.path for l in TRIPS_SCHEMA.leaves_under("base")} == {
            "base.city_id",
            "base.driver_uuid",
            "base.status",
        }
        assert [l.path for l in TRIPS_SCHEMA.leaves_under("base.city_id")] == [
            "base.city_id"
        ]

    def test_type_at(self):
        assert TRIPS_SCHEMA.type_at("base.city_id") is BIGINT
        assert TRIPS_SCHEMA.type_at("base") == TRIPS_BASE


class TestFooter:
    def test_footer_round_trip(self):
        blob = write_trips(50)
        metadata = read_footer(BytesInput(blob))
        assert metadata.num_rows == 50
        assert len(metadata.row_groups) == 2  # row_group_size=40
        assert metadata.schema == TRIPS_SCHEMA

    def test_statistics_present(self):
        blob = write_trips(50)
        file = ParquetFile(blob)
        stats = file.chunk_metadata(0, "base.city_id").statistics
        assert stats.min_value == 0
        assert stats.max_value == 4

    def test_bad_magic_rejected(self):
        from repro.common.errors import StorageError

        with pytest.raises(StorageError):
            ParquetFile(b"not a parquet file at all....")

    def test_externally_supplied_metadata_skips_footer_read(self):
        blob = write_trips(10)
        metadata = read_footer(BytesInput(blob))
        file = ParquetFile(blob, metadata=metadata)
        assert file.metadata is metadata


# Every varchar leaf shape the native writer keeps columnar: top level, a
# struct field, an array element and a map value.
VARCHAR_LEAVES_SCHEMA = ParquetSchema(
    [
        ("s", VARCHAR),
        ("r", RowType.of(("v", VARCHAR))),
        ("a", ArrayType(VARCHAR)),
        ("m", MapType(BIGINT, VARCHAR)),
    ]
)


def varchar_leaves_page(defined, distinct, seed=5):
    """``defined`` values per leaf over exactly ``distinct`` strings (the
    empty string, non-ASCII text and an embedded NUL among them), repeated
    in shuffled order, so first-occurrence order is not sorted order; a
    NULL row after every fourth value leaves every leaf's defined count
    at ``defined``."""
    rng = random.Random(seed)
    prefixes = ["", "é", "k", "a\x00", "漢字"]
    pool = [""] + [f"{prefixes[i % 5]}{i}" for i in range(1, distinct)]
    values = pool + [rng.choice(pool) for _ in range(defined - distinct)]
    rng.shuffle(values)
    rows = []
    for i, value in enumerate(values):
        rows.append((value, {"v": value}, [value], {i: value}))
        if i % 4 == 3:
            rows.append((None, {"v": None}, None, None))
    types = [t for _, t in VARCHAR_LEAVES_SCHEMA.columns]
    return Page.from_rows(types, rows)


class TestWritersProduceSameFiles:
    @pytest.mark.parametrize("codec", list(compression.CODECS))
    def test_identical_bytes(self, codec):
        old = write_trips(60, codec=codec, writer_cls=OldParquetWriter)
        native = write_trips(60, codec=codec, writer_cls=NativeParquetWriter)
        assert old == native

    # The dictionary rule accepts at most max(16, n // 2) distinct values
    # of n: each pair sits on one side of that edge.
    @pytest.mark.parametrize(
        "defined,distinct,encoding",
        [
            (20, 16, "dictionary"),
            (20, 17, "plain"),
            (60, 29, "dictionary"),
            (60, 30, "dictionary"),
            (60, 31, "plain"),
        ],
    )
    @pytest.mark.parametrize("codec", list(compression.CODECS))
    def test_identical_varchar_bytes_at_the_dictionary_edges(
        self, codec, defined, distinct, encoding
    ):
        page = varchar_leaves_page(defined, distinct)
        old = OldParquetWriter(VARCHAR_LEAVES_SCHEMA, codec=codec).write_pages([page])
        native = NativeParquetWriter(VARCHAR_LEAVES_SCHEMA, codec=codec).write_pages([page])
        assert old == native
        (group,) = ParquetFile(native).metadata.row_groups
        leaves = [group.column(path) for path in ("s", "r.v", "a.element", "m.value")]
        assert {chunk.encoding for chunk in leaves} == {encoding}
        assert {c.statistics.num_values - c.statistics.null_count for c in leaves} == {defined}

    @pytest.mark.parametrize("codec", list(compression.CODECS))
    def test_null_collections_over_empty_entry_blocks(self, codec):
        # Every collection is NULL, so the element, key and value blocks
        # hold no positions at all.
        schema = ParquetSchema(
            [
                ("a", ArrayType(RowType.of(("x", BIGINT), ("y", VARCHAR)))),
                ("m", MapType(VARCHAR, ArrayType(DOUBLE))),
            ]
        )
        page = Page.from_rows([t for _, t in schema.columns], [(None, None), (None, None)])
        old = OldParquetWriter(schema, codec=codec, row_group_size=1).write_pages([page])
        native = NativeParquetWriter(schema, codec=codec, row_group_size=1).write_pages([page])
        assert old == native
        reader = NewParquetReader(ParquetFile(native), ["a", "m"])
        rows = [row for p in reader.read_pages() for row in p.loaded().rows()]
        assert rows == [(None, None), (None, None)]

    @pytest.mark.parametrize("writer_cls", [OldParquetWriter, NativeParquetWriter])
    def test_empty_page_writes_no_row_group(self, writer_cls):
        page = Page.from_rows([BIGINT, VARCHAR], [])
        schema = ParquetSchema([("id", BIGINT), ("name", VARCHAR)])
        blob = writer_cls(schema).write_pages([page])
        assert blob == NativeParquetWriter(schema).write_pages([])
        assert ParquetFile(blob).num_row_groups() == 0
        assert list(OldParquetReader(ParquetFile(blob)).read_pages()) == []
        assert list(NewParquetReader(ParquetFile(blob), ["id", "name"]).read_pages()) == []


def refuse_per_value_access(monkeypatch):
    """Make ``get`` raise on every nested block kind."""

    def refuse(block, position):
        raise AssertionError(f"per-value get() on a {type(block).__name__}")

    for block_cls in (RowBlock, ArrayBlock, MapBlock):
        monkeypatch.setattr(block_cls, "get", refuse)


class TestNativeWriterStaysColumnar:
    """The native writer shreds nested blocks without rebuilding a value:
    with the nested blocks' per-value ``get`` disabled it still writes."""

    def test_trips_page(self, monkeypatch):
        page = Page.from_rows([t for _, t in TRIPS_COLUMNS], generate_trips_rows(200))
        writer = NativeParquetWriter(ParquetSchema(TRIPS_COLUMNS), row_group_size=64)
        refuse_per_value_access(monkeypatch)
        # The round-robin spread of a partition's files takes the page first.
        for written in (page, page.take(np.arange(1, 200, 2))):
            blob = writer.write_pages([written])
            assert ParquetFile(blob).metadata.num_rows == written.position_count

    def test_map_of_arrays_of_structs(self, monkeypatch):
        presto_type = MapType(VARCHAR, ArrayType(RowType.of(("a", BIGINT), ("b", VARCHAR))))
        rows = [
            ({"k": [{"a": 1, "b": "x"}, None, {"a": None, "b": ""}], "j": []},),
            (None,),
            ({},),
            ({"k": None, "é": [{"a": 2, "b": None}]},),
        ]
        page = Page.from_rows([presto_type], rows)
        schema = ParquetSchema([("m", presto_type)])
        expected = OldParquetWriter(schema, row_group_size=3).write_pages([page])
        refuse_per_value_access(monkeypatch)
        assert NativeParquetWriter(schema, row_group_size=3).write_pages([page]) == expected


class TestOldReader:
    def test_reads_everything(self):
        blob = write_trips(25, row_group_size=10)
        reader = OldParquetReader(ParquetFile(blob))
        pages = list(reader.read_pages())
        assert sum(p.position_count for p in pages) == 25
        rows = [row for p in pages for row in p.rows()]
        assert rows[3][0]["driver_uuid"] == "driver-3"
        assert rows[3][1] == "2017-03-04"

    def test_decodes_all_values(self):
        blob = write_trips(20, row_group_size=20)
        reader = OldParquetReader(ParquetFile(blob))
        list(reader.read_pages())
        # 5 leaves * 20 rows
        assert reader.values_decoded == 100


class TestNewReaderRoundTrip:
    @pytest.mark.parametrize(
        "options",
        [
            ReaderOptions.all_enabled(),
            ReaderOptions.all_disabled(),
            ReaderOptions(columnar_reads=False),
            ReaderOptions(vectorized=False),
            ReaderOptions(lazy_reads=False),
        ],
    )
    def test_projection_matches_source(self, options):
        # A dotted leaf path yields the leaf values directly.
        blob = write_trips(30, row_group_size=10)
        reader = NewParquetReader(
            ParquetFile(blob), ["base.city_id", "datestr"], options=options
        )
        pages = [p.loaded() for p in reader.read_pages()]
        rows = [row for p in pages for row in p.rows()]
        if options.nested_column_pruning:
            expected = [(i % 5, f"2017-03-{(i % 28) + 1:02d}") for i in range(30)]
        else:
            # Pruning disabled widens the request to the whole struct
            # (figure 4: "read all Parquet nested fields").
            source = trips_rows(30)
            expected = [(r[0], r[1]) for r in source]
        assert rows == expected

    def test_partial_struct_via_restrict(self):
        # Nested column pruning shape: a struct output carrying only the
        # requested subfield (section V.D).
        blob = write_trips(10, row_group_size=10)
        reader = NewParquetReader(
            ParquetFile(blob), ["base"], restrict={"base": ["base.city_id"]}
        )
        page = next(iter(reader.read_pages())).loaded()
        assert page.block(0).get(0) == {"city_id": 0}
        # Only the city_id leaf was decoded: 10 values, not 30.
        assert reader.stats.values_decoded == 10

    def test_whole_struct_read(self):
        blob = write_trips(10, row_group_size=10)
        reader = NewParquetReader(ParquetFile(blob), ["base"])
        rows = [row for p in reader.read_pages() for row in p.loaded().rows()]
        assert rows[0][0] == {
            "city_id": 0,
            "driver_uuid": "driver-0",
            "status": "cancelled",
        }

    def test_nulls_round_trip(self):
        schema = ParquetSchema([("base", TRIPS_BASE), ("x", BIGINT)])
        values = [
            ({"city_id": 1, "driver_uuid": None, "status": "s"}, 5),
            (None, None),
            ({"city_id": None, "driver_uuid": "d", "status": None}, 7),
        ]
        page = Page.from_rows([TRIPS_BASE, BIGINT], values)
        blob = NativeParquetWriter(schema).write_pages([page])
        reader = NewParquetReader(ParquetFile(blob), ["base", "x"])
        rows = [row for p in reader.read_pages() for row in p.loaded().rows()]
        assert rows == values

    def test_arrays_and_maps_round_trip(self):
        schema = ParquetSchema(
            [("tags", ArrayType(VARCHAR)), ("metrics", MapType(VARCHAR, DOUBLE))]
        )
        values = [
            (["a", "b"], {"x": 1.0}),
            ([], {}),
            (None, None),
            (["c"], {"y": None, "z": 2.0}),
        ]
        page = Page.from_rows([ArrayType(VARCHAR), MapType(VARCHAR, DOUBLE)], values)
        blob = NativeParquetWriter(schema).write_pages([page])
        reader = NewParquetReader(ParquetFile(blob), ["tags", "metrics"])
        rows = [row for p in reader.read_pages() for row in p.loaded().rows()]
        assert rows == values


class TestPredicatePushdown:
    def _reader(self, blob, predicate, **option_overrides):
        from repro.core.expressions import constant, variable
        from repro.core.functions import default_registry
        from repro.core.expressions import CallExpression

        options = ReaderOptions(**option_overrides)
        return NewParquetReader(
            ParquetFile(blob),
            ["base.driver_uuid"],
            options=options,
            predicate=predicate,
        )

    def _city_equals(self, city_id):
        from repro.core.expressions import CallExpression, constant, variable
        from repro.core.functions import default_registry

        handle, _ = default_registry().resolve_scalar("equal", [BIGINT, BIGINT])
        return CallExpression(
            "equal",
            handle,
            handle.resolved_return_type(),
            (variable("base.city_id", BIGINT), constant(city_id, BIGINT)),
        )

    def test_row_group_skipping_by_stats(self):
        # city_id values are i (sorted), so later groups have higher mins.
        page = Page.from_rows(
            [TRIPS_BASE, VARCHAR, DOUBLE], trips_rows(100, city_for=lambda i: i)
        )
        blob = NativeParquetWriter(TRIPS_SCHEMA, row_group_size=10).write_pages([page])
        reader = self._reader(blob, self._city_equals(5))
        rows = [row for p in reader.read_pages() for row in p.loaded().rows()]
        assert len(rows) == 1
        assert reader.stats.row_groups_skipped_by_stats == 9

    def test_filtering_on_the_fly(self):
        blob = write_trips(50, row_group_size=50)
        reader = self._reader(blob, self._city_equals(2))
        rows = [row for p in reader.read_pages() for row in p.loaded().rows()]
        assert len(rows) == 10
        assert all(r[0].startswith("driver-") for r in rows)

    def test_no_filtering_when_disabled(self):
        blob = write_trips(50, row_group_size=50)
        reader = self._reader(blob, self._city_equals(2), predicate_pushdown=False)
        rows = [row for p in reader.read_pages() for row in p.loaded().rows()]
        assert len(rows) == 50  # filter left for the engine


class TestDictionaryPushdown:
    def _status_equals(self, value):
        from repro.core.expressions import CallExpression, constant, variable
        from repro.core.functions import default_registry

        handle, _ = default_registry().resolve_scalar("equal", [VARCHAR, VARCHAR])
        return CallExpression(
            "equal",
            handle,
            handle.resolved_return_type(),
            (variable("base.status", VARCHAR), constant(value, VARCHAR)),
        )

    def test_skips_groups_whose_dictionary_cannot_match(self):
        blob = write_trips(40, row_group_size=10)
        # "cartoon" sorts between "cancelled" and "completed", so min/max
        # statistics cannot exclude it — only the dictionary can (V.G:
        # "Even if Parquet statistics match the predicate, we can read the
        # dictionary page ... to determine whether the dictionary can
        # potentially match").
        reader = NewParquetReader(
            ParquetFile(blob),
            ["base.driver_uuid"],
            predicate=self._status_equals("cartoon"),
        )
        rows = list(reader.read_pages())
        assert rows == []
        assert reader.stats.row_groups_skipped_by_stats == 0
        assert reader.stats.row_groups_skipped_by_dictionary == 4

    def test_dictionary_blocks_surface_to_engine(self):
        blob = write_trips(40, row_group_size=40)
        reader = NewParquetReader(ParquetFile(blob), ["base.status"])
        from repro.core.blocks import DictionaryBlock

        page = next(iter(reader.read_pages()))
        assert isinstance(page.block(0), DictionaryBlock)

    def test_dictionary_cached_across_reads(self):
        blob = write_trips(40, row_group_size=40)
        file = ParquetFile(blob)
        reader = NewParquetReader(file, ["base.status"])
        list(reader.read_pages())
        segments_after_first = file.segments_read
        # Reading the dictionary again for the same chunk hits the cache.
        reader._read_dictionary(0, "base.status", file.chunk_metadata(0, "base.status"))
        assert file.segments_read == segments_after_first


class TestLazyReads:
    def test_projected_column_not_decoded_when_group_fully_filtered(self):
        from repro.core.expressions import CallExpression, constant, variable
        from repro.core.functions import default_registry

        # LIKE is opaque to stats and dictionary pushdown, so the group is
        # scanned — and the projected column's lazy block is never loaded
        # because no row survives.
        handle, _ = default_registry().resolve_scalar("like", [VARCHAR, VARCHAR])
        predicate = CallExpression(
            "like",
            handle,
            handle.resolved_return_type(),
            (variable("base.status", VARCHAR), constant("nothing%", VARCHAR)),
        )
        blob = write_trips(30, row_group_size=30)
        reader = NewParquetReader(
            ParquetFile(blob),
            ["base.driver_uuid"],
            predicate=predicate,
        )
        pages = list(reader.read_pages())
        assert pages == []
        # driver_uuid leaf never decoded: only status was.
        assert reader.stats.values_decoded == 30
        assert reader.stats.lazy_loads_avoided == 1


class TestSegmentDataCache:
    def test_cached_segments_skip_storage_reads(self):
        from repro.cache.data_cache import DataCacheConfig, TieredDataCache

        blob = write_trips(30, row_group_size=30)
        cache = TieredDataCache(DataCacheConfig())
        file = ParquetFile(blob)
        file.attach_data_cache(cache, "warehouse/trips.parquet")
        reader = NewParquetReader(file, ["fare"])
        rows = [row for p in reader.read_pages() for row in p.loaded().rows()]
        assert [r[0] for r in rows] == [i * 1.5 for i in range(30)]
        bytes_after_first = file.bytes_read
        assert bytes_after_first > 0

        # A second reader over the same (cached) file reads zero bytes
        # from storage and yields identical rows.
        second = NewParquetReader(file, ["fare"])
        again = [row for p in second.read_pages() for row in p.loaded().rows()]
        assert again == rows
        assert file.bytes_read == bytes_after_first
        assert cache.stats.hits > 0

    def test_cache_keys_disambiguate_files(self):
        from repro.cache.data_cache import DataCacheConfig, TieredDataCache

        cache = TieredDataCache(DataCacheConfig())
        first = ParquetFile(write_trips(10, row_group_size=10))
        second = ParquetFile(write_trips(20, row_group_size=20))
        first.attach_data_cache(cache, "a.parquet")
        second.attach_data_cache(cache, "b.parquet")
        rows_a = [
            row
            for p in NewParquetReader(first, ["fare"]).read_pages()
            for row in p.loaded().rows()
        ]
        rows_b = [
            row
            for p in NewParquetReader(second, ["fare"]).read_pages()
            for row in p.loaded().rows()
        ]
        assert len(rows_a) == 10 and len(rows_b) == 20
        # Same segment names, different files: no key collisions.
        assert cache.stats.hits == 0


class TestCompressionCodecs:
    @pytest.mark.parametrize("codec", list(compression.CODECS))
    def test_round_trip(self, codec):
        blob = write_trips(20, codec=codec)
        reader = NewParquetReader(ParquetFile(blob), ["fare"])
        rows = [row for p in reader.read_pages() for row in p.loaded().rows()]
        assert [r[0] for r in rows] == [i * 1.5 for i in range(20)]

    def test_gzip_smaller_than_uncompressed(self):
        plain = write_trips(500, codec=compression.UNCOMPRESSED)
        gzipped = write_trips(500, codec=compression.GZIP)
        assert len(gzipped) < len(plain)


@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(-(2**40), 2**40)),
            st.one_of(st.none(), st.text(max_size=8)),
            st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
        ),
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_flat_file_round_trip_property(rows):
    schema = ParquetSchema([("a", BIGINT), ("b", VARCHAR), ("c", DOUBLE)])
    page = Page.from_rows([BIGINT, VARCHAR, DOUBLE], rows)
    blob = NativeParquetWriter(schema, row_group_size=7).write_pages([page])
    reader = NewParquetReader(ParquetFile(blob), ["a", "b", "c"])
    got = [row for p in reader.read_pages() for row in p.loaded().rows()]
    assert got == rows
