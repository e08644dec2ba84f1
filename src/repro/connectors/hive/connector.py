"""The Hive connector implementation.

Pushdown behaviour:

- **partition pruning** — predicate conjuncts over partition keys are
  absorbed and evaluated against partition values at split enumeration;
- **predicate pushdown** — when configured with the new reader, conjuncts
  over scalar (possibly nested) data columns are absorbed and evaluated by
  the reader while scanning (sections V.F/V.G);
- **projection pushdown** — requested (possibly dotted) column paths reach
  the reader as nested column pruning (section V.D).

Split = one data file of one matching partition.  The file-list cache and
footer cache plug in here when provided.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from repro.core.blocks import Block, block_from_values, constant_block
from repro.core.evaluator import Evaluator
from repro.core.expressions import (
    CallExpression,
    ConstantExpression,
    RowExpression,
    SpecialForm,
    SpecialFormExpression,
    VariableReferenceExpression,
    combine_conjuncts,
    conjuncts,
    expression_from_dict,
)
from repro.core.page import Page
from repro.core.types import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    INTEGER,
    PrestoType,
    RowType,
)
from repro.connectors.spi import (
    Connector,
    ConnectorSplit,
    ConnectorTableHandle,
    empty_page,
)
from repro.cache.file_list_cache import FileListCache
from repro.cache.footer_cache import FileHandleAndFooterCache
from repro.formats.parquet.file import ParquetFile
from repro.formats.parquet.options import ReaderOptions
from repro.formats.parquet.reader_new import NewParquetReader, decode_dictionary_page
from repro.formats.parquet.reader_old import OldParquetReader
from repro.metastore.evolution import resolve_read_schema
from repro.metastore.metastore import HiveMetastore, TableInfo
from repro.metastore.statistics import ColumnStatisticsEntry, TableStatistics
from repro.storage.filesystem import FileSystem

OLD_READER = "old"
NEW_READER = "new"


class HiveConnector(Connector):
    """Connector over a Hive metastore and a distributed filesystem."""

    name = "hive"

    def __init__(
        self,
        metastore: HiveMetastore,
        filesystem: FileSystem,
        reader: str = NEW_READER,
        reader_options: Optional[ReaderOptions] = None,
        file_list_cache: Optional[FileListCache] = None,
        footer_cache: Optional[FileHandleAndFooterCache] = None,
        data_cache=None,
    ) -> None:
        if reader not in (OLD_READER, NEW_READER):
            raise ValueError(f"unknown reader kind {reader!r}")
        self.metastore = metastore
        self.filesystem = filesystem
        self.reader = reader
        self.reader_options = reader_options or ReaderOptions()
        self.file_list_cache = file_list_cache
        self.footer_cache = footer_cache
        # Optional worker-local TieredDataCache for raw segment bytes;
        # attached per-file so reads skip storage IO on cache hits.
        self.data_cache = data_cache
        self._evaluator = Evaluator()

    # -- shared internals ---------------------------------------------------

    def _table(self, handle: ConnectorTableHandle) -> TableInfo:
        return self.metastore.get_table(handle.schema_name, handle.table_name)

    def _list_files(self, location: str, sealed: bool):
        if self.file_list_cache is not None:
            return self.file_list_cache.list_files(location, sealed)
        return self.filesystem.list_files(location)

    def _open_parquet(self, path: str) -> ParquetFile:
        if self.footer_cache is not None:
            file = self.footer_cache.open_parquet(path)
        else:
            # A worker checks the file handle (getFileInfo) before reading;
            # the footer cache exists precisely to absorb these calls
            # (VII.B).
            self.filesystem.get_file_info(path)
            file = ParquetFile(self.filesystem.open(path))
        if self.data_cache is not None:
            file.attach_data_cache(self.data_cache, path)
        return file

    # -- metadata ------------------------------------------------------------

    def list_schemas(self) -> list[str]:
        return self.metastore.list_databases()

    def list_tables(self, schema_name: str) -> list[str]:
        return self.metastore.list_tables(schema_name)

    def table_columns(
        self, schema_name: str, table_name: str
    ) -> Optional[list[tuple[str, PrestoType]]]:
        if not self.metastore.has_table(schema_name, table_name):
            return None
        return self.metastore.get_table(schema_name, table_name).all_columns()

    # -- statistics (ANALYZE TABLE) ----------------------------------------

    def collect_table_statistics(
        self, handle: ConnectorTableHandle
    ) -> TableStatistics:
        """Derive table statistics from parquet footers, persist, return.

        Row counts, min/max and null fractions come straight from the
        footer ``ColumnStatistics`` — no data pages are read.  NDV is
        exact for dictionary-encoded columns (the dictionary segments are
        unioned across files) and for partition keys; for plain-encoded
        columns it falls back to a range heuristic for integers and the
        non-null count otherwise.
        """
        table = self._table(handle)
        statistics = self._footer_statistics(table)
        self.metastore.set_table_statistics(
            handle.schema_name, handle.table_name, statistics
        )
        return statistics

    def get_table_statistics(
        self, handle: ConnectorTableHandle
    ) -> Optional[TableStatistics]:
        return self.metastore.get_table_statistics(
            handle.schema_name, handle.table_name
        )

    def _footer_statistics(self, table: TableInfo) -> TableStatistics:
        scalar_columns = [(n, t) for n, t in table.columns if not t.is_nested()]
        accumulators = {name: _ColumnAccumulator(t) for name, t in scalar_columns}
        row_count = 0

        locations: list[tuple[str, tuple[str, ...], bool]] = [
            (p.location, p.values, p.sealed) for p in table.partitions.values()
        ]
        if not table.partition_keys and not table.partitions:
            locations.append((table.location, (), True))
        for location, _, sealed in locations:
            for status in self._list_files(location, sealed):
                file = self._open_parquet(status.path)
                for group_index, group in enumerate(file.metadata.row_groups):
                    row_count += group.num_rows
                    for name, _ in scalar_columns:
                        chunk = group.columns.get(name)
                        if chunk is None:
                            # Schema evolution: the column postdates this
                            # file, so every slot reads as null.
                            accumulators[name].add_missing(group.num_rows)
                            continue
                        dictionary = None
                        if chunk.has_dictionary:
                            with file.decoding():
                                data = file.read_segment(group_index, name, "dict")
                                dictionary = decode_dictionary_page(
                                    data, accumulators[name].presto_type
                                ).to_list()
                        accumulators[name].add_chunk(chunk.statistics, dictionary)

        columns = {
            name: accumulator.finish() for name, accumulator in accumulators.items()
        }
        for index, (key, key_type) in enumerate(table.partition_keys):
            values = [
                _coerce(partition.values[index], key_type)
                for partition in table.partitions.values()
            ]
            columns[key] = ColumnStatisticsEntry(
                ndv=len(set(values)),
                min_value=min(values) if values else None,
                max_value=max(values) if values else None,
                null_fraction=0.0,
            )
        return TableStatistics(row_count=row_count, columns=columns)

    def absorb_conjunct(
        self, handle: ConnectorTableHandle, conjunct: RowExpression
    ) -> Optional[RowExpression]:
        """Partition-key conjuncts as they are; with the new reader's
        predicate pushdown on, conjuncts over scalar data leaves too.

        Both kinds land in the handle's one conjunction; ``get_splits``
        and the reader each take their half of it with
        ``_split_on_partition_keys``.
        """
        table = self._table(handle)
        names = {v.name for v in conjunct.variables()}
        if names and names <= set(table.partition_key_names()):
            return conjunct
        if self.reader != NEW_READER or not self.reader_options.predicate_pushdown:
            return None
        # Nested field access arrives as DEREFERENCE chains; normalize
        # them into dotted-path variables the reader understands.
        normalized = _dereferences_to_paths(conjunct)
        normalized_names = {v.name for v in normalized.variables()}
        if normalized_names and normalized_names <= self._scalar_leaf_paths(table):
            return normalized
        return None

    apply_projection = Connector.absorb_column_paths

    def _scalar_leaf_paths(self, table: TableInfo) -> set[str]:
        """Dotted paths of scalar leaves reachable through structs only."""
        paths: set[str] = set()
        for name, presto_type in table.columns:
            _add_scalar_leaf_paths(name, presto_type, paths)
        return paths

    # -- splits --------------------------------------------------------------

    def get_splits(self, handle: ConnectorTableHandle) -> list[ConnectorSplit]:
        table = self._table(handle)
        partition_predicate, _ = _split_on_partition_keys(handle.constraint, table)
        # Runtime dynamic filters: conjuncts over partition keys prune
        # partitions right here, before any file is even listed.
        dynamic_partition, _ = _split_on_partition_keys(
            handle.dynamic_filter, table
        )
        if dynamic_partition is not None:
            terms = (
                [partition_predicate] if partition_predicate is not None else []
            ) + [dynamic_partition]
            partition_predicate = combine_conjuncts(terms)

        partitions = self.metastore.list_partitions(
            handle.schema_name, handle.table_name
        )
        if partition_predicate is not None:
            partitions = self._prune_partitions(table, partitions, partition_predicate)

        splits: list[ConnectorSplit] = []
        for partition in partitions:
            for status in self._list_files(partition.location, partition.sealed):
                splits.append(
                    ConnectorSplit(
                        split_id=f"hive:{status.path}",
                        info=(
                            ("path", status.path),
                            ("partition_values", partition.values),
                            ("sealed", partition.sealed),
                            # Version for the fragment result cache; a
                            # rewritten file gets a new modification time.
                            ("data_version", status.modification_time_ms),
                        ),
                    )
                )
        if not table.partition_keys and not table.partitions:
            # Unpartitioned table: files live directly at the table location.
            for status in self._list_files(table.location, True):
                splits.append(
                    ConnectorSplit(
                        split_id=f"hive:{status.path}",
                        info=(("path", status.path), ("partition_values", ()), ("sealed", True)),
                    )
                )
        return splits

    def _prune_partitions(
        self,
        table: TableInfo,
        partitions: Sequence,
        predicate: RowExpression,
    ) -> list:
        """Batched partition pruning: one page over all partitions.

        Each partition key becomes one column whose rows are the
        per-partition values, so the predicate is evaluated with a single
        ``filter_mask`` call instead of one position_count=1 evaluation
        per partition.
        """
        partitions = list(partitions)
        if not partitions:
            return partitions
        bindings: dict[str, Block] = {}
        for index, (key, key_type) in enumerate(table.partition_keys):
            bindings[key] = block_from_values(
                key_type,
                [_coerce(partition.values[index], key_type) for partition in partitions],
            )
        mask = self._evaluator.filter_mask(
            predicate, bindings, len(partitions)
        )
        return [partition for partition, keep in zip(partitions, mask) if keep]

    # -- pages ---------------------------------------------------------------

    def pages(
        self,
        handle: ConnectorTableHandle,
        split: ConnectorSplit,
        columns: Sequence[str],
    ) -> Iterator[Page]:
        table = self._table(handle)
        info = split.info_dict()
        path = info["path"]
        partition_values = dict(
            zip(table.partition_key_names(), info["partition_values"])
        )
        partition_types = dict(table.partition_keys)
        file = self._open_parquet(path)
        # Schema evolution (section V.A): columns added to the table after
        # this file was written read as nulls; a type change raises.
        resolution = resolve_read_schema(file.schema.columns, table.columns)
        in_file = {name for name, _, disposition in resolution if disposition == "read"}
        added = {
            name: column_type
            for name, column_type, disposition in resolution
            if disposition == "null"
        }

        if self.reader == OLD_READER:
            # The old reader decodes every column of the file, in file order.
            return self._stream_reader(
                OldParquetReader(file),
                columns,
                file.schema.column_names(),
                partition_values,
                partition_types,
                added,
                table,
            )

        _, predicate = _split_on_partition_keys(handle.constraint, table)
        # Runtime dynamic filters.  Partition-key conjuncts are evaluated
        # against this split's partition values (they must never reach the
        # reader's row mask — a partition key is not a file leaf, so it
        # would decode as all-null and wrongly drop every row); the data
        # conjuncts ride into the reader as its dynamic predicate.
        dynamic_partition, dynamic_data = _split_on_partition_keys(
            handle.dynamic_filter, table
        )
        if dynamic_partition is not None and not self._partition_matches(
            dynamic_partition, partition_values, partition_types
        ):
            return iter([empty_page(table.all_columns(), columns)])
        present = [c for c in columns if c in in_file]
        restrict = self._restriction(handle, present)
        reader = NewParquetReader(
            file,
            present,
            options=self.reader_options,
            predicate=predicate,
            restrict=restrict,
            dynamic_predicate=dynamic_data,
        )
        return _ReaderPages(
            self._stream_reader(
                reader, columns, present, partition_values, partition_types, added, table
            ),
            reader.stats,
        )

    def _stream_reader(
        self,
        reader,  # NewParquetReader or OldParquetReader
        columns: Sequence[str],
        present: list[str],
        partition_values: dict,
        partition_types: dict,
        added: dict[str, PrestoType],
        table: TableInfo,
    ) -> Iterator[Page]:
        produced = False
        for page in reader.read_pages():
            produced = True
            yield self._attach_partition_columns(
                page, columns, present, partition_values, partition_types, added
            )
        if not produced:
            yield empty_page(table.all_columns(), columns)

    def _partition_matches(
        self,
        predicate: RowExpression,
        partition_values: dict,
        partition_types: dict,
    ) -> bool:
        bindings: dict[str, Block] = {
            key: constant_block(
                _coerce(value, partition_types[key]), partition_types[key], 1
            )
            for key, value in partition_values.items()
        }
        mask = self._evaluator.filter_mask(predicate, bindings, 1)
        return bool(mask[0])

    def _restriction(
        self, handle: ConnectorTableHandle, data_columns: list[str]
    ) -> Optional[dict[str, list[str]]]:
        if not handle.projected_columns:
            return None
        restrict: dict[str, list[str]] = {}
        for path in handle.projected_columns:
            top = path.split(".")[0]
            if top in data_columns and "." in path:
                restrict.setdefault(top, []).append(path)
        # A bare top-level request means "whole column": drop restriction.
        for path in handle.projected_columns:
            if "." not in path:
                restrict.pop(path, None)
        return restrict or None

    def _attach_partition_columns(
        self,
        page: Page,
        columns: Sequence[str],
        present_columns: list[str],
        partition_values: dict,
        partition_types: dict,
        added: dict[str, PrestoType],
    ) -> Page:
        blocks: list[Block] = []
        for column in columns:
            if column in partition_values:
                blocks.append(
                    constant_block(
                        _coerce(partition_values[column], partition_types[column]),
                        partition_types[column],
                        page.position_count,
                    )
                )
            elif column in present_columns:
                blocks.append(page.block(present_columns.index(column)))
            else:
                blocks.append(constant_block(None, added[column], page.position_count))
        return Page(blocks, page.position_count)


class _ReaderPages:
    """Page iterator that exposes the backing reader's statistics.

    The scan operator picks up ``reader_stats`` (duck-typed via getattr)
    after draining the split, folding row-group skip counts into the
    query stats; values are final only once iteration completes.
    """

    def __init__(self, pages: Iterator[Page], reader_stats) -> None:
        self._pages = pages
        self.reader_stats = reader_stats

    def __iter__(self) -> "_ReaderPages":
        return self

    def __next__(self) -> Page:
        return next(self._pages)


def _split_on_partition_keys(
    serialized: Optional[dict], table: TableInfo
) -> tuple[Optional[RowExpression], Optional[RowExpression]]:
    """Split a handle's ``constraint`` or ``dynamic_filter`` into
    (partition, data) predicates.

    Conjuncts whose variables are all partition keys go left; everything
    else goes right (``apply_filter`` absorbs no conjunct mixing the two,
    and each dynamic filter conjunct targets one column).
    """
    if not serialized:
        return None, None
    partition_keys = set(table.partition_key_names())
    partition_terms: list[RowExpression] = []
    data_terms: list[RowExpression] = []
    for conjunct in conjuncts(expression_from_dict(serialized)):
        names = {v.name for v in conjunct.variables()}
        if names and names <= partition_keys:
            partition_terms.append(conjunct)
        else:
            data_terms.append(conjunct)
    return combine_conjuncts(partition_terms), combine_conjuncts(data_terms)


class _ColumnAccumulator:
    """Folds per-chunk footer statistics into one column's table stats."""

    def __init__(self, presto_type: PrestoType) -> None:
        self.presto_type = presto_type
        self.min_value: Any = None
        self.max_value: Any = None
        self.null_count = 0
        self.total = 0
        # Exact distinct values while every chunk is dictionary-encoded;
        # None once any chunk forces the heuristic fallback.
        self.dictionary_values: Optional[set] = set()

    def add_missing(self, num_rows: int) -> None:
        self.total += num_rows
        self.null_count += num_rows

    def add_chunk(self, statistics, dictionary: Optional[list]) -> None:
        self.total += statistics.num_values
        self.null_count += statistics.null_count
        low, high = statistics.min_value, statistics.max_value
        if low is not None and low == low:  # skip absent or NaN bounds
            self.min_value = low if self.min_value is None else min(self.min_value, low)
        if high is not None and high == high:
            self.max_value = high if self.max_value is None else max(self.max_value, high)
        if self.dictionary_values is not None:
            if dictionary is None:
                self.dictionary_values = None
            else:
                self.dictionary_values.update(dictionary)

    def finish(self) -> ColumnStatisticsEntry:
        defined = self.total - self.null_count
        if self.dictionary_values is not None:
            ndv = len(self.dictionary_values)
        elif (
            self.presto_type in (BIGINT, INTEGER)
            and self.min_value is not None
            and self.max_value is not None
        ):
            ndv = min(defined, int(self.max_value) - int(self.min_value) + 1)
        elif self.presto_type is BOOLEAN:
            ndv = min(defined, 2)
        else:
            ndv = defined
        return ColumnStatisticsEntry(
            ndv=max(ndv, 0),
            min_value=self.min_value,
            max_value=self.max_value,
            null_fraction=(self.null_count / self.total) if self.total else 0.0,
        )


def _add_scalar_leaf_paths(prefix: str, presto_type: PrestoType, paths: set[str]) -> None:
    if isinstance(presto_type, RowType):
        for f in presto_type.fields:
            _add_scalar_leaf_paths(f"{prefix}.{f.name}", f.type, paths)
    elif not presto_type.is_nested():
        paths.add(prefix)


def _dereferences_to_paths(expression: RowExpression) -> RowExpression:
    """Rewrite DEREFERENCE(var, 'f')... chains as dotted-path variables."""
    if isinstance(expression, SpecialFormExpression) and expression.form is SpecialForm.DEREFERENCE:
        path = _dereference_path(expression)
        if path is not None:
            return VariableReferenceExpression(path, expression.type)
    if isinstance(expression, CallExpression):
        return CallExpression(
            expression.display_name,
            expression.function_handle,
            expression.type,
            tuple(_dereferences_to_paths(a) for a in expression.arguments),
        )
    if isinstance(expression, SpecialFormExpression):
        return SpecialFormExpression(
            expression.form,
            expression.type,
            tuple(_dereferences_to_paths(a) for a in expression.arguments),
        )
    return expression


def _dereference_path(expression: RowExpression) -> Optional[str]:
    """``a.b.c`` for a DEREFERENCE chain over variable ``a``, else ``None``."""
    if isinstance(expression, VariableReferenceExpression):
        return expression.name
    if (
        isinstance(expression, SpecialFormExpression)
        and expression.form is SpecialForm.DEREFERENCE
        and isinstance(expression.arguments[1], ConstantExpression)
    ):
        base = _dereference_path(expression.arguments[0])
        if base is not None:
            return f"{base}.{expression.arguments[1].value}"
    return None


def _coerce(value: str, presto_type: PrestoType) -> Any:
    """Convert a partition value string to its typed representation."""
    if presto_type in (BIGINT, INTEGER):
        return int(value)
    if presto_type is DOUBLE:
        return float(value)
    if presto_type is BOOLEAN:
        return value.lower() in ("true", "1", "t")
    return value
