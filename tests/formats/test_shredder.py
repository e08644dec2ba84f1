"""Dremel shredding/assembly round-trip tests, including property tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.page import Page
from repro.core.types import (
    ArrayType,
    BIGINT,
    DOUBLE,
    MapType,
    RowType,
    VARCHAR,
)
from repro.formats.parquet import compression
from repro.formats.parquet.file import ParquetFile
from repro.formats.parquet.reader_new import NewParquetReader
from repro.formats.parquet.schema import ParquetSchema
from repro.formats.parquet.shredder import assemble_column, shred_column
from repro.formats.parquet.writer_native import NativeParquetWriter
from repro.formats.parquet.writer_old import OldParquetWriter


def round_trip(presto_type, values):
    chunks = shred_column("c", presto_type, values)
    return assemble_column("c", presto_type, chunks, len(values))


class TestScalars:
    def test_flat(self):
        assert round_trip(BIGINT, [1, 2, 3]) == [1, 2, 3]

    def test_flat_with_nulls(self):
        assert round_trip(BIGINT, [1, None, 3]) == [1, None, 3]

    def test_levels_for_flat_column(self):
        chunks = shred_column("c", BIGINT, [1, None])
        levels = chunks["c"]
        assert levels.repetition == [0, 0]
        assert levels.definition == [1, 0]
        assert levels.values == [1, None]


class TestStructs:
    def test_simple_struct(self):
        t = RowType.of(("a", BIGINT), ("b", VARCHAR))
        values = [{"a": 1, "b": "x"}, None, {"a": None, "b": "y"}]
        assert round_trip(t, values) == values

    def test_struct_leaves_are_separate_columns(self):
        t = RowType.of(("a", BIGINT), ("b", VARCHAR))
        chunks = shred_column("c", t, [{"a": 1, "b": "x"}])
        assert set(chunks) == {"c.a", "c.b"}

    def test_null_struct_definition_levels(self):
        t = RowType.of(("a", BIGINT))
        chunks = shred_column("c", t, [None, {"a": None}, {"a": 5}])
        assert chunks["c.a"].definition == [0, 1, 2]

    def test_deep_nesting(self):
        # "more than 5 levels of nesting" (section V.A)
        t = BIGINT
        for i in range(6):
            t = RowType.of((f"f{i}", t))
        value = 42
        for i in range(6):
            value = {f"f{i}": value}
        assert round_trip(t, [value, None]) == [value, None]

    def test_partial_inner_null(self):
        inner = RowType.of(("x", BIGINT))
        outer = RowType.of(("inner", inner), ("y", VARCHAR))
        values = [{"inner": None, "y": "a"}, {"inner": {"x": 1}, "y": None}]
        assert round_trip(outer, values) == values


class TestArrays:
    def test_array_basic(self):
        t = ArrayType(BIGINT)
        values = [[1, 2, 3], [], None, [4]]
        assert round_trip(t, values) == values

    def test_array_with_null_elements(self):
        t = ArrayType(BIGINT)
        values = [[1, None, 3]]
        assert round_trip(t, values) == values

    def test_repetition_levels(self):
        t = ArrayType(BIGINT)
        chunks = shred_column("c", t, [[1, 2], [3]])
        assert chunks["c.element"].repetition == [0, 1, 0]

    def test_nested_arrays(self):
        t = ArrayType(ArrayType(BIGINT))
        values = [[[1, 2], []], [], None, [[3], None, [4, 5]]]
        assert round_trip(t, values) == values

    def test_array_of_structs(self):
        t = ArrayType(RowType.of(("a", BIGINT), ("b", VARCHAR)))
        values = [[{"a": 1, "b": "x"}, {"a": 2, "b": None}], [], [None]]
        assert round_trip(t, values) == values


class TestMaps:
    def test_map_basic(self):
        t = MapType(VARCHAR, DOUBLE)
        values = [{"a": 1.0, "b": 2.0}, {}, None, {"c": None}]
        assert round_trip(t, values) == values

    def test_map_of_struct_values(self):
        t = MapType(VARCHAR, RowType.of(("x", BIGINT)))
        values = [{"k": {"x": 1}, "j": None}]
        assert round_trip(t, values) == values


class TestCombined:
    def test_struct_with_array_and_map(self):
        t = RowType.of(
            ("tags", ArrayType(VARCHAR)),
            ("metrics", MapType(VARCHAR, DOUBLE)),
            ("id", BIGINT),
        )
        values = [
            {"tags": ["x", "y"], "metrics": {"m": 1.5}, "id": 1},
            {"tags": [], "metrics": None, "id": None},
            None,
            {"tags": None, "metrics": {}, "id": 2},
        ]
        assert round_trip(t, values) == values


# -- property-based round trips ---------------------------------------------

bigint_values = st.one_of(st.none(), st.integers(-(2**40), 2**40))
double_values = st.one_of(st.none(), st.floats(), st.sampled_from([0.0, -0.0]))
varchar_values = st.one_of(
    st.none(), st.sampled_from(["", "é", "a\x00b", "\x00"]), st.text(max_size=4)
)
LEAVES = [(BIGINT, bigint_values), (DOUBLE, double_values), (VARCHAR, varchar_values)]


def _struct(fields):
    """A struct of one or two drawn (type, values) fields, named f and g."""
    names = ["f", "g"][: len(fields)]
    return (
        RowType.of(*[(name, t) for name, (t, _) in zip(names, fields)]),
        st.one_of(
            st.none(),
            st.fixed_dictionaries({name: v for name, (_, v) in zip(names, fields)}),
        ),
    )


def nested_type_and_values(max_depth=3):
    """Generate a (type, strategy for values of that type) pair."""

    def build(depth):
        leaf = st.sampled_from(LEAVES)
        if depth == 0:
            return leaf
        lower = build(depth - 1)
        return st.one_of(
            leaf,
            st.lists(lower, min_size=1, max_size=2).map(_struct),
            lower.map(
                lambda tv: (
                    ArrayType(tv[0]),
                    st.one_of(st.none(), st.lists(tv[1], max_size=4)),
                )
            ),
            lower.map(
                lambda tv: (
                    MapType(VARCHAR, tv[0]),
                    st.one_of(
                        st.none(),
                        st.dictionaries(
                            st.text(alphabet="abc", min_size=1, max_size=3),
                            tv[1],
                            max_size=3,
                        ),
                    ),
                )
            ),
        )

    return build(max_depth)


@given(
    nested_type_and_values().flatmap(
        lambda tv: st.tuples(st.just(tv[0]), st.lists(tv[1], max_size=8))
    )
)
@settings(max_examples=200, deadline=None)
def test_shred_assemble_round_trip_property(type_and_values):
    presto_type, values = type_and_values
    assert round_trip(presto_type, values) == values


@given(st.lists(st.one_of(st.none(), st.integers(0, 100)), max_size=30))
@settings(max_examples=100, deadline=None)
def test_flat_column_triplet_count_matches_rows(values):
    chunks = shred_column("c", BIGINT, values)
    assert len(chunks["c"]) == len(values)


NESTED_COLUMNS = nested_type_and_values()


def _nan_as_text(value):
    """``value`` with every float NaN replaced by ``"NaN"``, so that equal
    columns compare equal."""
    if isinstance(value, float) and value != value:
        return "NaN"
    if isinstance(value, list):
        return [_nan_as_text(v) for v in value]
    if isinstance(value, dict):
        return {k: _nan_as_text(v) for k, v in value.items()}
    return value


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_writers_give_identical_bytes_property(data):
    """The native writer's block walk and the old writer's per-record
    shredding produce the same file for any nesting, and the new reader
    reads each column back whole."""
    columns = data.draw(st.lists(NESTED_COLUMNS, min_size=1, max_size=2))
    rows = data.draw(st.integers(0, 12))
    values = [data.draw(st.lists(v, min_size=rows, max_size=rows)) for _, v in columns]
    types = [t for t, _ in columns]
    schema = ParquetSchema([(f"c{i}", t) for i, t in enumerate(types)])
    page = Page.from_rows(types, list(zip(*values)))
    codec = data.draw(st.sampled_from(list(compression.CODECS)))
    row_group_size = data.draw(st.integers(1, 5))

    old = OldParquetWriter(schema, codec, row_group_size).write_pages([page])
    native = NativeParquetWriter(schema, codec, row_group_size).write_pages([page])
    assert native == old

    reader = NewParquetReader(ParquetFile(native), schema.column_names())
    pages = [p.loaded() for p in reader.read_pages()]
    for channel, expected in enumerate(values):
        read = [v for p in pages for v in p.block(channel).to_list()]
        assert _nan_as_text(read) == _nan_as_text(expected)
