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

import pytest

from repro.common.errors import ErrorCategory, InvalidValueError, PrestoError, StorageError
from repro.connectors.hive import HiveConnector, write_hive_partition
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, VARCHAR, ArrayType, RowType
from repro.execution.cluster import PrestoClusterSim
from repro.execution.engine import PrestoEngine
from repro.formats.parquet.file import (
    FOOTER_SUFFIX_LENGTH,
    ParquetFile,
    damage_as_storage_error,
)
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
