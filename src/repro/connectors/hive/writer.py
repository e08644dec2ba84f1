"""Helpers for writing Hive partitions in the Parquet-like format."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.page import Page
from repro.core.types import PrestoType
from repro.formats.parquet import compression
from repro.formats.parquet.schema import ParquetSchema
from repro.formats.parquet.writer_native import NativeParquetWriter
from repro.metastore.metastore import HiveMetastore
from repro.storage.filesystem import FileSystem


def write_hive_partition(
    metastore: HiveMetastore,
    filesystem: FileSystem,
    database: str,
    table: str,
    partition_values: Sequence[str],
    pages: Sequence[Page],
    files: int = 1,
    sealed: bool = True,
    codec: str = compression.SNAPPY,
    row_group_size: int = 10_000,
) -> list[str]:
    """Write pages as one or more Parquet files into a new partition.

    Returns the written file paths.  ``files`` > 1 spreads rows round-robin
    across that many files (more splits → more parallelism).  Writing a
    partition that exists replaces it, files included, as Hive's INSERT
    OVERWRITE does.
    """
    info = metastore.get_table(database, table)
    schema = ParquetSchema(list(info.columns))
    replaced = info.partitions.get(tuple(partition_values))
    if replaced is not None:
        for status in filesystem.list_files(replaced.location):
            filesystem.delete(status.path)
    partition = metastore.add_partition(
        database, table, partition_values, sealed=sealed
    )

    import numpy as np

    # Split pages round-robin by file index.
    per_file_pages: list[list[Page]] = [[] for _ in range(files)]
    for page in pages:
        if files == 1:
            per_file_pages[0].append(page)
            continue
        for index in range(files):
            positions = np.arange(index, page.position_count, files)
            per_file_pages[index].append(page.take(positions))

    paths: list[str] = []
    writer = NativeParquetWriter(schema, codec=codec, row_group_size=row_group_size)
    for index, file_pages in enumerate(per_file_pages):
        blob = writer.write_pages(file_pages)
        path = f"{partition.location}/part-{index:05d}.parquet"
        filesystem.create(path, blob)
        paths.append(path)
    return paths
