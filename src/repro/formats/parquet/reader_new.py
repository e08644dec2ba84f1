"""The brand new Parquet reader (sections V.D-V.I).

Implements the six optimizations as independently switchable behaviours
(see :class:`~repro.formats.parquet.options.ReaderOptions`):

1. nested column pruning — only requested leaf columns are read;
2. columnar reads — blocks are built directly from decoded arrays, no
   record assembly, for columns without repeated (array/map) structure;
3. predicate pushdown — footer min/max statistics skip whole row groups,
   and surviving groups are filtered while scanning;
4. dictionary pushdown — dictionary segments are checked against
   equality/IN predicates to skip groups stats couldn't;
5. lazy reads — projected columns not used by the predicate are wrapped in
   LazyBlocks and decoded only if rows survive the filter;
6. vectorized reads — numpy batch decoding with a cached dictionary.

The reader's ``columns`` are dotted paths as produced by the engine's
nested-column-pruning rule: ``["base.city_id", "datestr"]`` or ``["base"]``.
The optional ``predicate`` is a RowExpression whose variables are such
paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.core.blocks import (
    Block,
    DictionaryBlock,
    LazyBlock,
    PrimitiveBlock,
    RowBlock,
    VarcharBlock,
    block_from_values,
)
from repro.core.evaluator import Evaluator
from repro.core.expressions import (
    ColumnTest,
    RowExpression,
    combine_conjuncts,
    conjuncts,
    match_column_test,
)
from repro.core.page import Page
from repro.core.types import VARCHAR, ArrayType, MapType, PrestoType, RowType
from repro.formats.parquet.encoding import (
    DICTIONARY,
    decode_dictionary_indices_scalar,
    decode_dictionary_indices_vectorized,
    decode_levels,
    decode_plain_scalar,
    decode_plain_varchar,
    decode_plain_vectorized,
    plain_varchar_count,
)
from repro.formats.parquet.file import ParquetFile
from repro.formats.parquet.metadata import ColumnChunkMetadata
from repro.formats.parquet.options import ReaderOptions
from repro.formats.parquet.schema import LeafColumn
from repro.formats.parquet.shredder import ColumnLevels, assemble_column


@dataclass
class ReaderStats:
    row_groups_total: int = 0
    row_groups_skipped_by_stats: int = 0
    row_groups_skipped_by_dictionary: int = 0
    # Groups eliminated by a runtime dynamic filter's expression form
    # (min/max or dictionary check) — kept separate from the static
    # pushdown counters so adaptive execution's effect is measurable.
    row_groups_skipped_by_dynamic_filter: int = 0
    values_decoded: int = 0
    lazy_loads_avoided: int = 0


@dataclass
class _DecodedLeaf:
    """One decoded leaf chunk: aligned levels plus a columnar block."""

    leaf: LeafColumn
    repetition: np.ndarray
    definition: np.ndarray
    block: Block  # positions == slots; only meaningful for rep_level == 0


class NewParquetReader:
    """Columnar, pruning, pushdown-capable reader."""

    def __init__(
        self,
        file: ParquetFile,
        columns: Sequence[str],
        options: Optional[ReaderOptions] = None,
        predicate: Optional[RowExpression] = None,
        restrict: Optional[dict[str, Sequence[str]]] = None,
        dynamic_predicate: Optional[RowExpression] = None,
    ) -> None:
        """``columns`` are dotted output paths; each output block has the
        type at that path (a leaf path yields a scalar block, a struct path
        a RowBlock).  ``restrict`` optionally limits a struct output to a
        subset of its subfield paths — the partial-struct shape nested
        column pruning produces (``{"base": ["base.city_id"]}``).
        ``dynamic_predicate`` is a runtime dynamic filter's expression
        form: applied exactly like ``predicate`` but accounted separately
        (``row_groups_skipped_by_dynamic_filter``)."""
        self.file = file
        self.options = options or ReaderOptions()
        self.predicate = predicate
        self.dynamic_predicate = dynamic_predicate
        row_terms = [p for p in (predicate, dynamic_predicate) if p is not None]
        self._row_predicate: Optional[RowExpression] = (
            combine_conjuncts(row_terms) if row_terms else None
        )
        # Row-group skipping reads each predicate as column tests, once.
        self._static_tests = _column_tests(predicate)
        self._dynamic_tests = _column_tests(dynamic_predicate)
        self.stats = ReaderStats()
        self._evaluator = Evaluator()
        self._dictionary_cache: dict[tuple[int, str], Block] = {}
        self.columns = self._resolve_columns(columns)
        if restrict is not None and self.options.nested_column_pruning:
            self._restrict = {k: tuple(v) for k, v in restrict.items()}
        else:
            self._restrict = {}

    # -- column resolution -----------------------------------------------------

    def _resolve_columns(self, columns: Sequence[str]) -> list[str]:
        """Apply (or bypass) nested column pruning to the requested paths."""
        if self.options.nested_column_pruning:
            return list(columns)
        # Pruning disabled: widen every requested path to its whole
        # top-level column (figure 4: "read all Parquet nested fields").
        widened: list[str] = []
        for path in columns:
            top = path.split(".")[0]
            if top not in widened:
                widened.append(top)
        return widened

    def _predicate_paths(self) -> list[str]:
        if self._row_predicate is None:
            return []
        return [v.name for v in self._row_predicate.variables()]

    # -- main loop ----------------------------------------------------------------

    def read_pages(self) -> Iterator[Page]:
        """Yield a page per surviving row group; channels follow ``columns``."""
        predicate_paths = self._predicate_paths()
        for group_index in range(self.file.num_row_groups()):
            self.stats.row_groups_total += 1
            with self.file.decoding():
                if self.options.predicate_pushdown:
                    if self._skippable_by_stats(group_index, self._static_tests):
                        self.stats.row_groups_skipped_by_stats += 1
                        continue
                    if self._skippable_by_dictionary(group_index, self._static_tests):
                        self.stats.row_groups_skipped_by_dictionary += 1
                        continue
                    if self._skippable_by_stats(
                        group_index, self._dynamic_tests
                    ) or self._skippable_by_dictionary(group_index, self._dynamic_tests):
                        self.stats.row_groups_skipped_by_dynamic_filter += 1
                        continue
                page = self._read_group(group_index, predicate_paths)
            if page is not None:
                yield page

    # -- statistics / dictionary pushdown ---------------------------------------

    def _skippable_by_stats(self, group_index: int, tests: list[ColumnTest]) -> bool:
        group = self.file.metadata.row_groups[group_index]
        for test in tests:
            chunk = group.columns.get(test.column)
            if chunk is None:
                continue
            low, high = chunk.statistics.min_value, chunk.statistics.max_value
            if low is not None and high is not None and test.excludes_range(low, high):
                return True
        return False

    def _skippable_by_dictionary(
        self, group_index: int, tests: list[ColumnTest]
    ) -> bool:
        if not self.options.dictionary_pushdown:
            return False
        group = self.file.metadata.row_groups[group_index]
        for test in tests:
            chunk = group.columns.get(test.column)
            if (
                test.op not in ("equal", "in")
                or chunk is None
                or not chunk.has_dictionary
            ):
                continue
            dictionary = self._read_dictionary(group_index, test.column, chunk)
            entries = set(dictionary.to_list())
            if not any(value in entries for value in test.values):
                return True
        return False

    # -- group reading ----------------------------------------------------------------

    def _read_group(
        self, group_index: int, predicate_paths: list[str]
    ) -> Optional[Page]:
        num_rows = self.file.metadata.row_groups[group_index].num_rows
        decoded: dict[str, _DecodedLeaf] = {}

        # 1. Decode predicate leaves and evaluate the filter on the fly.
        mask: Optional[np.ndarray] = None
        if self._row_predicate is not None and self.options.predicate_pushdown:
            bindings: dict[str, Block] = {}
            for path in predicate_paths:
                leaf_block = self._decode_leaf_cached(group_index, path, decoded)
                bindings[path] = leaf_block.block
            mask = self._evaluator.filter_mask(self._row_predicate, bindings, num_rows)
            if not mask.any():
                # Whole group filtered; projected columns never decoded.
                self.stats.lazy_loads_avoided += len(
                    [c for c in self.columns if c not in predicate_paths]
                )
                return None

        # 2. Build output blocks (lazily where allowed).
        selected = np.nonzero(mask)[0] if mask is not None else None
        blocks: list[Block] = []
        for path in self.columns:
            needed_by_predicate = path in predicate_paths
            lazy_worthwhile = self._row_predicate is not None and not needed_by_predicate
            if self.options.lazy_reads and lazy_worthwhile:
                block = self._lazy_block(group_index, path, num_rows, decoded)
            else:
                block = self._materialize_path(group_index, path, num_rows, decoded)
            if selected is not None:
                block = block.take(selected)
            blocks.append(block)
        position_count = len(selected) if selected is not None else num_rows
        return Page(blocks, position_count)

    # -- leaf decoding ----------------------------------------------------------------

    def _decode_leaf_cached(
        self, group_index: int, path: str, decoded: dict[str, _DecodedLeaf]
    ) -> _DecodedLeaf:
        if path not in decoded:
            if not self.file.schema.has_leaf(path):
                # Schema evolution: the field was added to the table after
                # this file was written — "Presto will return null" (V.A).
                num_rows = self.file.metadata.row_groups[group_index].num_rows
                from repro.core.blocks import constant_block
                from repro.core.types import UNKNOWN

                decoded[path] = _DecodedLeaf(
                    LeafColumn(path, UNKNOWN, 1, 0),
                    np.zeros(num_rows, dtype=np.int32),
                    np.zeros(num_rows, dtype=np.int32),
                    constant_block(None, UNKNOWN, num_rows),
                )
            else:
                decoded[path] = self._decode_leaf(group_index, path)
        return decoded[path]

    def _read_dictionary(
        self, group_index: int, path: str, chunk: ColumnChunkMetadata
    ) -> Block:
        """Read (and cache) a chunk's dictionary page (section V.I)."""
        key = (group_index, path)
        cached = self._dictionary_cache.get(key)
        if cached is not None:
            return cached
        leaf = self.file.schema.leaf(path)
        data = self.file.read_segment(group_index, path, "dict")
        if self.options.vectorized:
            block = decode_dictionary_page(data, leaf.type)
        else:
            values = decode_plain_scalar(data, leaf.type, plain_varchar_count(data))
            block = PrimitiveBlock.from_values(leaf.type, values)
        self._dictionary_cache[key] = block
        return block

    def _decode_leaf(self, group_index: int, path: str) -> _DecodedLeaf:
        chunk = self.file.chunk_metadata(group_index, path)
        leaf = self.file.schema.leaf(path)
        count = chunk.num_values
        defined_count = count - chunk.statistics.null_count
        definition = decode_levels(
            self.file.read_segment(group_index, path, "def"), count
        )
        repetition = decode_levels(
            self.file.read_segment(group_index, path, "rep"), count
        )
        self.stats.values_decoded += count
        max_def = leaf.max_definition_level
        nulls = definition < max_def

        if chunk.encoding == DICTIONARY:
            dictionary = self._read_dictionary(group_index, path, chunk)
            raw = self.file.read_segment(group_index, path, "data")
            if self.options.vectorized:
                indices = decode_dictionary_indices_vectorized(raw, defined_count)
            else:
                indices = np.asarray(
                    decode_dictionary_indices_scalar(raw, defined_count), dtype=np.int32
                )
            # Scatter defined indices into slot positions; null slots get -1.
            ids = np.full(count, -1, dtype=np.int32)
            ids[~nulls] = indices
            block: Block = DictionaryBlock(dictionary, ids)
        else:
            raw = self.file.read_segment(group_index, path, "data")
            if self.options.vectorized and leaf.type is VARCHAR:
                block = _scatter_varchar(leaf.type, raw, nulls, count, defined_count)
            elif self.options.vectorized:
                defined_values = decode_plain_vectorized(raw, leaf.type, defined_count)
                block = _scatter_block(leaf.type, defined_values, nulls, count)
            else:
                defined_values = decode_plain_scalar(raw, leaf.type, defined_count)
                block = _scatter_block(leaf.type, defined_values, nulls, count)
        return _DecodedLeaf(leaf, repetition, definition, block)

    # -- output materialization --------------------------------------------------------

    def _lazy_block(
        self,
        group_index: int,
        path: str,
        num_rows: int,
        decoded: dict[str, _DecodedLeaf],
    ) -> Block:
        output_type = self._output_type(path)

        def load() -> Block:
            # Runs when the engine first touches the block, long after
            # read_pages has moved on: the same boundary, entered again.
            with self.file.decoding():
                return self._materialize_path(group_index, path, num_rows, decoded)

        return LazyBlock(output_type, num_rows, load)

    def _output_type(self, path: str) -> PrestoType:
        return self.file.schema.type_at(path)

    def _effective_leaves(
        self, path: str, allowed: Optional[tuple[str, ...]]
    ) -> list[LeafColumn]:
        leaves = self.file.schema.leaves_under(path)
        if allowed is None:
            return leaves
        return [
            leaf
            for leaf in leaves
            if any(leaf.path == a or leaf.path.startswith(a + ".") for a in allowed)
        ]

    def _materialize_path(
        self,
        group_index: int,
        path: str,
        num_rows: int,
        decoded: dict[str, _DecodedLeaf],
        allowed: Optional[tuple[str, ...]] = None,
    ) -> Block:
        if allowed is None:
            allowed = self._restrict.get(path)
        output_type = self._output_type(path)
        if allowed is not None and isinstance(output_type, RowType):
            return self._build_partial_struct(
                group_index, path, output_type, num_rows, decoded, allowed
            )
        leaves = self._effective_leaves(path, allowed)
        if not leaves:
            raise KeyError(f"no leaf columns under {path!r}")

        has_repeated = any(l.max_repetition_level > 0 for l in leaves)
        if self.options.columnar_reads and not has_repeated:
            return self._build_columnar(group_index, path, output_type, num_rows, decoded)

        # Record-assembly path (figure 5: pruned but still row-based, or any
        # column containing arrays/maps).
        chunks: dict[str, ColumnLevels] = {}
        depth_offset = len(path.split(".")) - 1
        for leaf in leaves:
            decoded_leaf = self._decode_leaf_cached(group_index, leaf.path, decoded)
            values = self._slot_values(decoded_leaf)
            shifted_def = [
                max(int(d) - depth_offset, 0) for d in decoded_leaf.definition
            ]
            chunks[leaf.path] = ColumnLevels(
                [int(r) for r in decoded_leaf.repetition], shifted_def, values
            )
        assembled = assemble_column(path, output_type, chunks, num_rows)
        return block_from_values(output_type, assembled)

    def _slot_values(self, decoded_leaf: _DecodedLeaf) -> list[Any]:
        block = decoded_leaf.block.loaded()
        return block.to_list()

    def _build_partial_struct(
        self,
        group_index: int,
        path: str,
        row_type: RowType,
        num_rows: int,
        decoded: dict[str, _DecodedLeaf],
        allowed: tuple[str, ...],
    ) -> RowBlock:
        """Materialize a struct with only the allowed subfields (section V.D:
        the pruned struct carries just the requested fields)."""
        depth = len(path.split("."))
        field_blocks: dict[str, Block] = {}
        for f in row_type.fields:
            field_path = f"{path}.{f.name}"
            fully_allowed = any(
                field_path == a or field_path.startswith(a + ".") for a in allowed
            )
            partially_allowed = any(a.startswith(field_path + ".") for a in allowed)
            if not fully_allowed and not partially_allowed:
                continue
            field_blocks[f.name] = self._materialize_path(
                group_index,
                field_path,
                num_rows,
                decoded,
                allowed=None if fully_allowed else allowed,
            )
        effective = self._effective_leaves(path, allowed)
        if not effective:
            # Every requested subfield was added after this file was written
            # (schema evolution): dereferences of the missing fields return
            # null regardless of struct presence, so presence is immaterial.
            return RowBlock(row_type, field_blocks, None, num_rows)
        representative = self._decode_leaf_cached(group_index, effective[0].path, decoded)
        if effective[0].max_repetition_level > 0:
            # Level streams under arrays carry multiple slots per row; the
            # slots with repetition 0 are the row starts.
            row_starts = np.nonzero(representative.repetition == 0)[0]
            nulls = representative.definition[row_starts] < depth
        else:
            nulls = representative.definition < depth
        return RowBlock(
            row_type, field_blocks, nulls if nulls.any() else None, num_rows
        )

    def _build_columnar(
        self,
        group_index: int,
        path: str,
        output_type: PrestoType,
        num_rows: int,
        decoded: dict[str, _DecodedLeaf],
    ) -> Block:
        """Directly build blocks for scalar/struct paths (no assembly)."""
        if not isinstance(output_type, RowType):
            decoded_leaf = self._decode_leaf_cached(group_index, path, decoded)
            return decoded_leaf.block
        depth = len(path.split("."))
        field_blocks: dict[str, Block] = {}
        for f in output_type.fields:
            field_path = f"{path}.{f.name}"
            if not self.file.schema.leaves_under(field_path):
                continue
            field_blocks[f.name] = self._build_columnar(
                group_index, field_path, f.type, num_rows, decoded
            )
        # Struct null mask: any descendant leaf has definition < depth.
        first_leaf = self.file.schema.leaves_under(path)[0]
        decoded_leaf = self._decode_leaf_cached(group_index, first_leaf.path, decoded)
        nulls = decoded_leaf.definition < depth
        return RowBlock(
            output_type,
            field_blocks,
            nulls if nulls.any() else None,
            num_rows,
        )


def decode_dictionary_page(data: bytes, presto_type: PrestoType) -> Block:
    """A dictionary page as a flat block, sized by the page's own count
    header: for varchar straight into the offsets layout (the dictionary
    under a ``DictionaryBlock`` is a ``VarcharBlock``), for date and
    timestamp the ``str`` objects those columns keep."""
    count = plain_varchar_count(data)
    if presto_type is VARCHAR:
        return VarcharBlock(presto_type, *decode_plain_varchar(data, count))
    return PrimitiveBlock(presto_type, decode_plain_vectorized(data, presto_type, count))


def _scatter_varchar(
    presto_type: PrestoType, raw: bytes, nulls: np.ndarray, count: int, defined_count: int
) -> VarcharBlock:
    """Decode a PLAIN varchar page into an offsets-based block.

    Null slots own zero bytes, so the defined payload buffer is reused
    as-is — only the offsets are re-spread across the full slot count.
    """
    data, offsets = decode_plain_varchar(raw, defined_count)
    if not nulls.any():
        return VarcharBlock(presto_type, data, offsets)
    lengths_full = np.zeros(count, dtype=np.int64)
    lengths_full[~nulls] = np.diff(offsets)
    full_offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths_full, out=full_offsets[1:])
    return VarcharBlock(presto_type, data, full_offsets, nulls)


def _scatter_block(
    presto_type: PrestoType, defined_values, nulls: np.ndarray, count: int
) -> PrimitiveBlock:
    """Spread defined values into their slots, leaving nulls in between."""
    if isinstance(defined_values, np.ndarray) and defined_values.dtype != object:
        storage = np.zeros(count, dtype=defined_values.dtype)
        storage[~nulls] = defined_values
    else:
        storage = np.empty(count, dtype=object)
        storage[~nulls] = np.asarray(list(defined_values), dtype=object)
    return PrimitiveBlock(presto_type, storage, nulls if nulls.any() else None)


def _column_tests(predicate: Optional[RowExpression]) -> list[ColumnTest]:
    """The conjuncts of ``predicate`` that statistics or dictionaries can test."""
    matched = (match_column_test(conjunct) for conjunct in conjuncts(predicate))
    return [test for test in matched if test is not None]
