"""Physical file layout and low-level serializer.

Blob layout::

    [chunk segment bytes ...][footer JSON][8-byte LE footer length][magic]

The footer sits at the end, like real Parquet, so a reader must either
seek-and-read it or hit the footer cache (section VII.B).  Both writers
share this serializer — old and native writers produce identical files and
differ only in how they get from engine pages to leaf chunk streams.
"""

from __future__ import annotations

import json
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence, Union

import numpy as np

from repro.common.errors import StorageError
from repro.formats.parquet import compression
from repro.formats.parquet.encoding import (
    DICTIONARY,
    PLAIN,
    build_dictionary,
    encode_dictionary_indices,
    encode_dictionary_indices_value_at_a_time,
    encode_levels,
    encode_levels_value_at_a_time,
    encode_plain,
    encode_plain_array,
    encode_plain_value_at_a_time,
)
from repro.formats.parquet.metadata import (
    ColumnChunkMetadata,
    ColumnStatistics,
    FileMetadata,
    RowGroupMetadata,
)
from repro.formats.parquet.schema import LeafColumn, ParquetSchema
from repro.storage.filesystem import BytesInput, SeekableInput

MAGIC = b"PARSIM01"
FOOTER_SUFFIX_LENGTH = 8 + len(MAGIC)


@dataclass
class LeafChunk:
    """One leaf column's data for one row group, ready to serialize.

    ``defined_values`` holds only the non-null values (definition level ==
    max); ``statistics_values`` may be provided when the caller already has
    a cheap value list for stats (defaults to ``defined_values``).
    """

    leaf: LeafColumn
    repetition: Union[Sequence[int], np.ndarray]
    definition: Union[Sequence[int], np.ndarray]
    defined_values: Union[Sequence[Any], np.ndarray]
    num_slots: int

    def compute_statistics(self) -> ColumnStatistics:
        values = self.defined_values
        if isinstance(values, np.ndarray) and values.dtype != object:
            if len(values) == 0:
                return ColumnStatistics(None, None, self.num_slots, self.num_slots)
            comparable = values
            if np.issubdtype(values.dtype, np.floating):
                # NaN poisons ndarray.min()/max() (both become NaN, which
                # then defeats every stats-based row-group skip); min/max
                # summarize the comparable values only.
                comparable = values[~np.isnan(values)]
            if len(comparable) == 0:
                return ColumnStatistics(
                    None, None, self.num_slots - len(values), self.num_slots
                )
            low = comparable.min().item()
            high = comparable.max().item()
            return ColumnStatistics(low, high, self.num_slots - len(values), self.num_slots)
        return ColumnStatistics.of(list(values), self.num_slots)


class ParquetBlobWriter:
    """Accumulates serialized row groups and produces the final blob.

    ``value_at_a_time=True`` selects the legacy encoding loops (one Python
    ``struct.pack`` per value/level) used by the old writer; the produced
    bytes are identical either way.
    """

    def __init__(
        self,
        schema: ParquetSchema,
        codec: str = compression.SNAPPY,
        value_at_a_time: bool = False,
    ) -> None:
        self.schema = schema
        self.codec = codec
        self.value_at_a_time = value_at_a_time
        self._body = bytearray()
        self._row_groups: list[RowGroupMetadata] = []

    def _append_segment(self, data: bytes) -> tuple[int, int]:
        compressed = compression.compress(data, self.codec)
        offset = len(self._body)
        self._body.extend(compressed)
        return offset, len(compressed)

    def add_row_group(self, num_rows: int, chunks: dict[str, LeafChunk]) -> None:
        if self.value_at_a_time:
            levels_encoder = encode_levels_value_at_a_time
            plain_encoder = lambda values, t: encode_plain_value_at_a_time(list(values), t)
            indices_encoder = encode_dictionary_indices_value_at_a_time
        else:
            levels_encoder = encode_levels
            plain_encoder = lambda values, t: (
                encode_plain_array(values, t)
                if isinstance(values, np.ndarray)
                else encode_plain(values, t)
            )
            indices_encoder = encode_dictionary_indices

        columns: dict[str, ColumnChunkMetadata] = {}
        for path, chunk in chunks.items():
            segments: dict[str, tuple[int, int]] = {}
            segments["rep"] = self._append_segment(levels_encoder(chunk.repetition))
            segments["def"] = self._append_segment(levels_encoder(chunk.definition))

            encoding = PLAIN
            values = chunk.defined_values
            dictionary = None
            # Dictionary-encode string-like columns only, so both writers
            # make identical encoding decisions regardless of whether the
            # values arrive as numpy arrays or Python lists.
            if chunk.leaf.type.name in ("varchar", "date", "timestamp"):
                dictionary = build_dictionary(list(values))
            if dictionary is not None:
                dict_values, indices = dictionary
                encoding = DICTIONARY
                segments["dict"] = self._append_segment(
                    plain_encoder(dict_values, chunk.leaf.type)
                )
                segments["data"] = self._append_segment(indices_encoder(indices))
            else:
                segments["data"] = self._append_segment(
                    plain_encoder(values, chunk.leaf.type)
                )

            columns[path] = ColumnChunkMetadata(
                path=path,
                encoding=encoding,
                codec=self.codec,
                num_values=chunk.num_slots,
                statistics=chunk.compute_statistics(),
                segments=segments,
            )
        self._row_groups.append(RowGroupMetadata(num_rows, columns))

    def finish(self) -> bytes:
        footer = FileMetadata(self.schema, self._row_groups)
        footer_bytes = json.dumps(footer.to_dict()).encode("utf-8")
        return (
            bytes(self._body)
            + footer_bytes
            + struct.pack("<Q", len(footer_bytes))
            + MAGIC
        )


# What the decoders raise when the bytes they are given are not the bytes
# that were written: a short or misaligned buffer (``struct.error``), a
# broken deflate stream (``zlib.error``), bad JSON, bad UTF-8, a seek past
# the end or a count that does not fit its buffer (``ValueError``), a
# missing footer key (``KeyError``), a dictionary index or level out of
# range (``IndexError``).  No ``PrestoError`` is among them, so an error
# that already has a category keeps it.
_DAMAGE = (struct.error, zlib.error, ValueError, KeyError, IndexError)


@contextmanager
def damage_as_storage_error(name: str) -> Iterator[None]:
    """Reading file ``name``: damaged bytes end in a ``StorageError`` — the
    storage layer's EXTERNAL failure — not in whichever raw exception the
    decoder they reached happens to raise."""
    try:
        yield
    except _DAMAGE as exc:
        raise StorageError(
            f"corrupt parquet file {name}: {type(exc).__name__}: {exc}"
        ) from exc


def read_footer(stream: SeekableInput) -> FileMetadata:
    """Read and parse the footer from the end of the file."""
    size = stream.size()
    if size < FOOTER_SUFFIX_LENGTH:
        raise StorageError(f"not a parquet file: {stream.name} is too small")
    with damage_as_storage_error(stream.name):
        suffix = stream.read_fully(size - FOOTER_SUFFIX_LENGTH, FOOTER_SUFFIX_LENGTH)
        if suffix[8:] != MAGIC:
            raise StorageError(f"not a parquet file: bad magic in {stream.name}")
        (footer_length,) = struct.unpack("<Q", suffix[:8])
        footer_bytes = stream.read_fully(
            size - FOOTER_SUFFIX_LENGTH - footer_length, footer_length
        )
        return FileMetadata.from_dict(json.loads(footer_bytes.decode("utf-8")))


class ParquetFile:
    """Reader-side handle: footer plus segment access.

    ``metadata`` may be supplied externally (by the footer cache) to skip
    the footer read entirely.
    """

    def __init__(
        self,
        source: Union[bytes, SeekableInput],
        metadata: Optional[FileMetadata] = None,
    ) -> None:
        self._stream = BytesInput(source) if isinstance(source, bytes) else source
        self._metadata = metadata or read_footer(self._stream)
        # IO accounting for the reader benchmarks.
        self.bytes_read = 0
        self.segments_read = 0
        self._data_cache = None
        self._data_cache_key: Optional[str] = None

    def attach_data_cache(self, cache, file_key: str) -> None:
        """Serve segment reads through a worker-local tiered data cache.

        ``cache`` is a :class:`repro.cache.data_cache.TieredDataCache`
        (duck-typed here so the formats layer stays import-free of the
        cache package); ``file_key`` disambiguates files sharing one
        cache.  Cached segments skip the stream read, so ``bytes_read``
        counts only actual storage IO.
        """
        self._data_cache = cache
        self._data_cache_key = file_key

    def decoding(self):
        """The boundary every reader decodes this file's segments inside:
        see :func:`damage_as_storage_error`."""
        return damage_as_storage_error(self._stream.name)

    @property
    def metadata(self) -> FileMetadata:
        return self._metadata

    @property
    def schema(self) -> ParquetSchema:
        return self._metadata.schema

    def num_row_groups(self) -> int:
        return len(self._metadata.row_groups)

    def read_segment(self, group_index: int, path: str, name: str) -> bytes:
        """Read and decompress one segment of one column chunk."""
        chunk = self._metadata.row_groups[group_index].column(path)
        if name not in chunk.segments:
            raise StorageError(
                f"corrupt parquet file {self._stream.name}: "
                f"chunk {path} has no segment {name!r}"
            )
        offset, length = chunk.segments[name]
        if self._data_cache is not None:
            # Cache the raw compressed segment bytes (what a real data
            # cache holds on SSD); decompression always runs, only the
            # storage read is skipped on a hit.
            def load() -> bytes:
                self.bytes_read += length
                self.segments_read += 1
                return self._stream.read_fully(offset, length)

            read = self._data_cache.read(
                f"{self._data_cache_key}#rg{group_index}/{path}/{name}",
                length,
                loader=load,
            )
            return compression.decompress(read.value, chunk.codec)
        raw = self._stream.read_fully(offset, length)
        self.bytes_read += length
        self.segments_read += 1
        return compression.decompress(raw, chunk.codec)

    def chunk_metadata(self, group_index: int, path: str) -> ColumnChunkMetadata:
        return self._metadata.row_groups[group_index].column(path)
