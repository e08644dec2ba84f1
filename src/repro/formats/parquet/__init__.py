"""A Parquet-like nested columnar file format (section V.B).

"In Parquet, data is first horizontally partitioned into groups of rows,
then within each group, data is vertically partitioned into columns. ...
Each Parquet file has a footer that stores codecs, encoding information,
as well as column-level statistics."

This implementation reproduces the structures the paper's reader/writer
work exploits:

- nested schemas with repetition/definition levels (Dremel shredding);
- row groups and per-leaf column chunks;
- PLAIN and DICTIONARY encodings, RLE level encoding;
- gzip / snappy-like / no compression;
- a footer with per-chunk min/max/null statistics and dictionary offsets.

Two writers (:mod:`writer_old`, :mod:`writer_native`) and two readers
(:mod:`reader_old`, :mod:`reader_new`) reproduce sections V.C–V.J.
"""

from repro.formats.parquet.schema import ParquetSchema, LeafColumn
from repro.formats.parquet.file import ParquetFile, read_footer
from repro.formats.parquet.metadata import (
    ColumnChunkMetadata,
    ColumnStatistics,
    FileMetadata,
    RowGroupMetadata,
)
from repro.formats.parquet.options import ReaderOptions
from repro.formats.parquet.reader_new import NewParquetReader
from repro.formats.parquet.reader_old import OldParquetReader
from repro.formats.parquet.writer_native import NativeParquetWriter
from repro.formats.parquet.writer_old import OldParquetWriter

__all__ = [
    "ParquetSchema",
    "LeafColumn",
    "ParquetFile",
    "read_footer",
    "ColumnChunkMetadata",
    "ColumnStatistics",
    "FileMetadata",
    "RowGroupMetadata",
    "ReaderOptions",
    "NewParquetReader",
    "OldParquetReader",
    "NativeParquetWriter",
    "OldParquetWriter",
]
