"""Parquet varchar columns decode straight into offsets-based blocks.

The vectorized reader must emit :class:`VarcharBlock` for PLAIN varchar
pages (one gather over the wire bytes, no per-value Python objects) and a
:class:`DictionaryBlock` whose dictionary is a ``VarcharBlock`` for
dictionary-encoded pages — and both must round-trip byte-exactly against
the writer, including NULLs, empty strings, and non-ASCII UTF-8.  The
scalar (non-vectorized) lane stays the differential oracle.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.blocks import DictionaryBlock, VarcharBlock
from repro.core.page import Page
from repro.core.types import BIGINT, VARCHAR
from repro.formats.parquet.encoding import (
    build_dictionary,
    decode_plain_scalar,
    decode_plain_varchar,
    encode_plain,
    encode_plain_value_at_a_time,
    encode_plain_varchar,
    varchar_dictionary,
    varchar_min_max,
)
from repro.formats.parquet.file import ParquetFile
from repro.formats.parquet.options import ReaderOptions
from repro.formats.parquet.reader_new import NewParquetReader
from repro.formats.parquet.schema import ParquetSchema
from repro.formats.parquet.writer_native import NativeParquetWriter

SCHEMA = ParquetSchema([("name", VARCHAR), ("id", BIGINT)])

texts = st.text(
    alphabet="abc XYZ0-éλ漢🎈", max_size=12
)
values_lists = st.lists(st.one_of(st.none(), texts), min_size=1, max_size=60)
# The empty string, non-ASCII text and embedded NULs, which padded views
# of the payload cannot tell from their neighbours.
edge_texts = st.text(alphabet=["a", "Z", " ", "é", "漢", "🎈", "\x00"], max_size=10)


def write_column(values):
    rows = [(v, i) for i, v in enumerate(values)]
    page = Page.from_rows([VARCHAR, BIGINT], rows)
    return NativeParquetWriter(SCHEMA).write_pages([page])


def read_column(blob, **option_overrides):
    options = ReaderOptions(**option_overrides)
    reader = NewParquetReader(ParquetFile(blob), ["name"], options=options)
    pages = [p.loaded() for p in reader.read_pages()]
    blocks = [p.block(0) for p in pages]
    return blocks, [v for b in blocks for v in b.to_list()]


def test_plain_pages_emit_varchar_blocks():
    # All-distinct values defeat the writer's dictionary heuristic, so
    # the column is PLAIN-encoded and must decode to VarcharBlock.
    values = [f"driver-{i:04d}-é" for i in range(64)]
    blocks, decoded = read_column(write_column(values))
    assert decoded == values
    assert all(isinstance(b, VarcharBlock) for b in blocks)


def test_dictionary_pages_emit_varchar_dictionary():
    # Three distinct values over 64 rows triggers dictionary encoding;
    # the page dictionary itself must be offsets-based.
    values = [["completed", "cancelled", "漢字"][i % 3] for i in range(64)]
    blocks, decoded = read_column(write_column(values))
    assert decoded == values
    assert all(isinstance(b, DictionaryBlock) for b in blocks)
    assert all(isinstance(b.dictionary, VarcharBlock) for b in blocks)


def test_nulls_round_trip_in_varchar_blocks():
    values = [None, "", "a", None, "é漢🎈", None, "tail"]
    values = values * 9  # keep some distinctness; stays PLAIN either way
    blocks, decoded = read_column(write_column(values))
    assert decoded == values
    for block in blocks:
        inner = block.dictionary if isinstance(block, DictionaryBlock) else block
        assert isinstance(inner, VarcharBlock)


def test_scalar_lane_unaffected():
    values = [f"v{i}" if i % 4 else None for i in range(32)]
    blob = write_column(values)
    _, vectorized = read_column(blob)
    scalar_blocks, scalar = read_column(blob, vectorized=False)
    assert scalar == vectorized == values
    assert not any(isinstance(b, VarcharBlock) for b in scalar_blocks)


@given(values_lists)
@settings(max_examples=60, deadline=None)
def test_round_trip_differential(values):
    """Vectorized (offsets) and scalar lanes agree on arbitrary columns."""
    blob = write_column(values)
    _, vectorized = read_column(blob)
    _, scalar = read_column(blob, vectorized=False)
    assert vectorized == values
    assert scalar == values


@given(st.lists(texts, min_size=0, max_size=50))
@settings(max_examples=100, deadline=None)
def test_decode_plain_varchar_matches_wire_format(values):
    """The vectorized PLAIN decoder inverts ``encode_plain`` exactly."""
    wire = encode_plain(values, VARCHAR)
    data, offsets = decode_plain_varchar(wire, len(values))
    assert offsets.dtype == np.int64 and data.dtype == np.uint8
    out = [
        bytes(data[offsets[i] : offsets[i + 1]]).decode("utf-8")
        for i in range(len(values))
    ]
    assert out == values


@given(st.lists(edge_texts, max_size=40))
@settings(max_examples=200, deadline=None)
@example([])
@example(["", "\x00", "a\x00", "a", "é"])
def test_one_layout_from_every_encoder_and_decoder(values):
    """The list, value-at-a-time and block encoders write the same page,
    and the vectorized and scalar decoders both invert it."""
    wire = encode_plain(values, VARCHAR)
    block = VarcharBlock.from_values(values)
    assert encode_plain_value_at_a_time(values, VARCHAR) == wire
    assert encode_plain_varchar(block.data, block.offsets) == wire
    data, offsets = decode_plain_varchar(wire, len(values))
    assert VarcharBlock(VARCHAR, data, offsets).to_list() == values
    assert decode_plain_scalar(wire, VARCHAR, len(values)) == values


@given(st.lists(st.text(alphabet=["a", "é", "\x00"], max_size=3), max_size=80))
@settings(max_examples=200, deadline=None)
@example(["a", "a\x00", "a\x00\x00", "a"])
def test_bulk_dictionary_and_statistics_match_the_value_rule(values):
    """The block's dictionary decision, entries, ids and min/max are the
    ones ``build_dictionary`` and ``min``/``max`` give over the strings."""
    block = VarcharBlock.from_values(values)
    expected = build_dictionary(values)
    found = varchar_dictionary(block.data, block.offsets)
    if expected is None:
        assert found is None
    else:
        entry_rows, ids = found
        assert [values[row] for row in entry_rows] == expected[0]
        assert ids.dtype == np.int32 and ids.tolist() == expected[1].tolist()
    bounds = (min(values), max(values)) if values else (None, None)
    assert varchar_min_max(block.data, block.offsets) == bounds
