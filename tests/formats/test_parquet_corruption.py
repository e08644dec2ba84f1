"""Damaged parquet bytes end in ``StorageError``, never in a raw exception.

A flipped bit or a short file reaches ``struct``, ``zlib``, ``json`` or an
index before any check of ours sees it; the footer parse and the per-group
decode of both readers convert what those raise into the storage layer's
EXTERNAL error, naming the file.  What is *not* detected, and cannot be
without a checksum per segment: a flip inside a compressed page that still
inflates to plausible values reads as rows.
"""

import random
import struct
import tracemalloc

import pytest

from repro.common.errors import ErrorCategory, InvalidValueError, PrestoError, StorageError
from repro.connectors.hive import HiveConnector, write_hive_partition
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, VARCHAR, ArrayType, RowType
from repro.execution.cluster import PrestoClusterSim
from repro.execution.engine import PrestoEngine
from repro.formats.parquet.compression import UNCOMPRESSED
from repro.formats.parquet.file import (
    FOOTER_SUFFIX_LENGTH,
    ParquetFile,
    damage_as_storage_error,
)
from repro.formats.parquet.options import ReaderOptions
from repro.formats.parquet.reader_new import NewParquetReader
from repro.formats.parquet.reader_old import OldParquetReader
from repro.formats.parquet.schema import ParquetSchema
from repro.formats.parquet.writer_native import NativeParquetWriter
from repro.metastore.metastore import HiveMetastore
from repro.planner.analyzer import Session
from repro.storage.hdfs import HdfsFileSystem

# Footer, dictionary (s, r.y), level (k, a, r.y) and data segments all occur.
COLUMNS = [
    ("k", BIGINT),
    ("s", VARCHAR),
    ("d", DOUBLE),
    ("a", ArrayType(VARCHAR)),
    ("r", RowType.of(("x", BIGINT), ("y", VARCHAR))),
]
ROWS = [
    (
        i if i % 7 else None,
        f"v{i % 5}",
        i / 3,
        [f"e{j}" for j in range(i % 3)],
        {"x": i, "y": None if i % 4 == 0 else f"y{i}"},
    )
    for i in range(60)
]
BLOB = NativeParquetWriter(ParquetSchema(COLUMNS)).write_pages(
    [Page.from_rows([t for _, t in COLUMNS], ROWS)]
)


def read_with_both_readers(blob: bytes) -> list:
    rows = []
    names = [name for name, _ in COLUMNS]
    for page in NewParquetReader(ParquetFile(blob), names).read_pages():
        rows.extend(page.to_rows())  # loads the lazy blocks too
    for page in OldParquetReader(ParquetFile(blob)).read_pages():
        rows.extend(page.to_rows())
    return rows


def damaged(seed: int) -> bytes:
    rng = random.Random(seed)
    if seed % 4 == 3:
        return BLOB[: rng.randrange(len(BLOB))]
    flipped = bytearray(BLOB)
    flipped[rng.randrange(len(BLOB))] ^= 1 << rng.randrange(8)
    return bytes(flipped)


def test_flips_and_truncations_read_as_rows_or_storage_error():
    assert len(read_with_both_readers(BLOB)) == 2 * len(ROWS)
    outcomes = {"rows": 0, "storage_error": 0}
    for seed in range(400):
        try:
            read_with_both_readers(damaged(seed))
            outcomes["rows"] += 1
        except StorageError as error:
            assert "<bytes>" in str(error)
            outcomes["storage_error"] += 1
    # Any other exception has already failed the test by escaping.
    assert outcomes["storage_error"] > 300 and outcomes["rows"] < 40


def test_an_error_that_has_a_category_is_not_relabelled():
    with pytest.raises(InvalidValueError):
        with damage_as_storage_error("f"):
            raise InvalidValueError("the user's own bad value")


@pytest.fixture
def warehouse():
    metastore, fs = HiveMetastore(), HdfsFileSystem()
    metastore.create_table(
        "wh", "t", [("k", BIGINT), ("s", VARCHAR)], partition_keys=[("ds", VARCHAR)]
    )
    (path,) = write_hive_partition(
        metastore, fs, "wh", "t", ["2024-01-01"],
        [Page.from_rows([BIGINT, VARCHAR], [(i, f"v{i % 5}") for i in range(100)])],
    )
    engine = PrestoEngine(session=Session(catalog="hive", schema="wh"), clock=fs.clock)
    engine.register_connector("hive", HiveConnector(metastore, fs))
    return engine, fs, path


def _zeroed_segments(blob: bytes) -> bytes:
    (footer_length,) = struct.unpack("<Q", blob[-FOOTER_SUFFIX_LENGTH:][:8])
    body = len(blob) - FOOTER_SUFFIX_LENGTH - footer_length
    return bytes(body) + blob[body:]


# A byte of the footer JSON, every compressed segment, a short file.
DAMAGE = {
    "footer": lambda blob: blob[:-40] + b"\xff" + blob[-39:],
    "segments": _zeroed_segments,
    "truncated": lambda blob: blob[: len(blob) // 2],
}


@pytest.mark.parametrize("where", sorted(DAMAGE))
def test_hive_query_over_a_damaged_file_fails_external_and_names_it(warehouse, where):
    engine, fs, path = warehouse
    good = engine.execute("SELECT count(*), sum(k) FROM t").rows
    healthy = fs.namenode.file_data(path)
    fs.namenode.put_file(path, DAMAGE[where](healthy))

    for statement in ("SELECT count(*), sum(k) FROM t", "ANALYZE TABLE t"):
        with pytest.raises(PrestoError) as raised:
            engine.execute(statement)
        assert raised.value.category is ErrorCategory.EXTERNAL, statement
        assert path in str(raised.value)

    # The cluster path: the failed query gives its slots back.
    cluster = PrestoClusterSim(workers=2, slots_per_worker=1, clock=fs.clock)
    cluster.resource_group("g", max_running=1)
    failed = engine.submit("SELECT count(*), sum(k) FROM t")
    cluster.submit_handle(failed, resource_group="g")
    cluster.run_until_idle()
    assert failed.state == "failed"
    with pytest.raises(PrestoError) as raised:
        failed.result()
    assert raised.value.category is ErrorCategory.EXTERNAL

    fs.namenode.put_file(path, healthy)
    admitted = engine.submit("SELECT count(*), sum(k) FROM t")
    cluster.submit_handle(admitted, resource_group="g")
    cluster.run_until_idle()
    assert admitted.result().rows == good


# -- targeted damage to a varchar page -----------------------------------
# On an uncompressed file the readers see exactly the bytes written, so a
# damaged count header or length block reaches the varchar decoders as it
# is.  The decoders check both against the page's length before they size
# anything from them.

VARCHAR_COLUMNS = [("k", BIGINT), ("plain", VARCHAR), ("dict", VARCHAR)]
VARCHAR_ROWS = [(i, f"plain-{i}" if i % 6 else None, f"d{i % 3}") for i in range(40)]


def _set_count(page: bytearray, count: int) -> None:
    page[:4] = count.to_bytes(4, "little")


def _shift_first_length(page: bytearray, delta: int) -> None:
    first = int.from_bytes(page[4:8], "little")
    page[4:8] = (first + delta).to_bytes(4, "little")


PAGE_DAMAGE = {
    "count_header_max": lambda page: _set_count(page, 2**32 - 1),
    "count_off_by_one": lambda page: _set_count(page, int.from_bytes(page[:4], "little") + 1),
    "lengths_overrun_payload": lambda page: _shift_first_length(page, +1),
    "lengths_underrun_payload": lambda page: _shift_first_length(page, -1),
}
# The PLAIN data page of ``plain`` and the dictionary page of ``dict``.
PAGES = {"plain_data": ("plain", "data"), "dictionary": ("dict", "dict")}


@pytest.fixture
def uncompressed_warehouse():
    metastore, fs = HiveMetastore(), HdfsFileSystem()
    metastore.create_table("wh", "v", VARCHAR_COLUMNS, partition_keys=[("ds", VARCHAR)])
    (path,) = write_hive_partition(
        metastore, fs, "wh", "v", ["2024-01-01"],
        [Page.from_rows([t for _, t in VARCHAR_COLUMNS], VARCHAR_ROWS)],
        codec=UNCOMPRESSED,
    )
    engine = PrestoEngine(session=Session(catalog="hive", schema="wh"), clock=fs.clock)
    engine.register_connector("hive", HiveConnector(metastore, fs))
    return engine, fs, path


def _damaged_page(blob: bytes, page: str, damage: str) -> bytes:
    path, segment = PAGES[page]
    (group,) = ParquetFile(blob).metadata.row_groups
    chunk = group.column(path)
    assert chunk.codec == UNCOMPRESSED and chunk.encoding == ("dictionary" if page == "dictionary" else "plain")
    offset, length = chunk.segments[segment]
    bytes_ = bytearray(blob[offset : offset + length])
    PAGE_DAMAGE[damage](bytes_)
    return blob[:offset] + bytes(bytes_) + blob[offset + length :]


def _readers(blob: bytes) -> dict:
    names = [name for name, _ in VARCHAR_COLUMNS]

    def new_reader(vectorized: bool):
        options = ReaderOptions(vectorized=vectorized)
        pages = NewParquetReader(ParquetFile(blob), names, options=options).read_pages()
        return lambda: [row for page in pages for row in page.to_rows()]

    return {
        "new_vectorized": new_reader(True),
        "new_scalar": new_reader(False),
        "old": lambda: [row for page in OldParquetReader(ParquetFile(blob)).read_pages()
                        for row in page.to_rows()],
    }


@pytest.mark.parametrize("damage", sorted(PAGE_DAMAGE))
@pytest.mark.parametrize("page", sorted(PAGES))
def test_a_damaged_varchar_page_is_a_storage_error_and_allocates_nothing(
    uncompressed_warehouse, page, damage
):
    engine, fs, path = uncompressed_warehouse
    healthy = fs.namenode.file_data(path)
    for read in _readers(healthy).values():
        assert len(read()) == len(VARCHAR_ROWS)
    blob = _damaged_page(healthy, page, damage)
    for lane, read in _readers(blob).items():
        tracemalloc.start()
        try:
            with pytest.raises(StorageError) as raised:
                read()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "<bytes>" in str(raised.value), lane
        assert peak < 1_000_000, (lane, peak)
    if page == "dictionary":  # ANALYZE decodes dictionary pages only
        fs.namenode.put_file(path, blob)
        with pytest.raises(PrestoError) as raised:
            engine.execute("ANALYZE TABLE v")
        assert raised.value.category is ErrorCategory.EXTERNAL
        assert path in str(raised.value)
