"""Connector Service Provider Interface.

A catalog registers one :class:`Connector` object.  Its method groups are
the jobs the paper names in section IV, plus the pushdown negotiation
surface of sections IV.A and IV.B:

- metadata — "defines schemas, tables, columns etc.";
- split manager — "defines how Presto divide the underlying data into
  splits, and process them in parallel." (``get_splits``);
- :class:`ConnectorSplit` — "defines one processing unit, or one shard of
  underlying data.";
- record set provider — "defines upon getting data streams from
  underlying systems, how Presto parse and transform them into Presto
  engine" (``pages``).

Pushdown contracts return ``None`` when the connector cannot absorb the
construct, in which case the engine evaluates it itself.  Expressions cross
this boundary as serialized RowExpression dicts — the self-contained
representation of Table I — and are deserialized connector-side, which is
how real Presto keeps connectors decoupled from engine internals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Hashable, Iterator, Optional, Sequence

import numpy as np

from repro.common.errors import ConnectorError
from repro.core.blocks import Block, DictionaryBlock, VarcharBlock, block_from_values
from repro.core.expressions import (
    RowExpression,
    and_,
    combine_conjuncts,
    conjuncts,
    expression_from_dict,
)
from repro.core.functions import FunctionHandle
from repro.core.page import Page
from repro.core.types import VARCHAR, PrestoType
from repro.formats.parquet.encoding import build_dictionary


@dataclass(frozen=True)
class ColumnMetadata:
    """One column of a connector table."""

    name: str
    type: PrestoType
    comment: str = ""


@dataclass(frozen=True)
class TableMetadata:
    """Schema of one connector table."""

    schema_name: str
    table_name: str
    columns: tuple[ColumnMetadata, ...]

    def column(self, name: str) -> ColumnMetadata:
        for column in self.columns:
            if column.name == name:
                return column
        raise ConnectorError(f"column {name!r} not found in {self.schema_name}.{self.table_name}")

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]


@dataclass(frozen=True)
class ConnectorTableHandle:
    """Opaque-to-the-engine handle identifying a table plus absorbed pushdowns.

    ``constraint`` / ``limit`` / ``aggregation`` record what the connector
    has agreed to evaluate natively; ``projected_columns`` records projection
    pushdown.  All pushed expressions are stored in serialized form so the
    handle itself stays self-contained; ``constraint`` is one serialized
    RowExpression (a conjunction) for every connector.
    """

    schema_name: str
    table_name: str
    constraint: Optional[dict] = None  # serialized RowExpression
    limit: Optional[int] = None
    projected_columns: Optional[tuple[str, ...]] = None
    aggregation: Optional[dict] = None  # serialized AggregationPushdown spec
    # Runtime dynamic filter over connector column names (serialized
    # RowExpression), injected by the scheduler after a join's build side
    # completes — never present in planned handles.  Connectors that
    # understand it (hive) prune partitions/row groups with it; everyone
    # else safely ignores it (the scan re-applies the filter to pages).
    dynamic_filter: Optional[dict] = None

    def with_(self, **updates: Any) -> "ConnectorTableHandle":
        return replace(self, **updates)

    def constraint_expression(self) -> Optional[RowExpression]:
        """The absorbed constraint, deserialized; ``None`` when there is none."""
        if self.constraint is None:
            return None
        return expression_from_dict(self.constraint)

    def with_conjunct(self, predicate: RowExpression) -> "ConnectorTableHandle":
        """AND ``predicate`` onto whatever constraint is already absorbed."""
        if self.constraint is not None:
            predicate = and_(self.constraint_expression(), predicate)
        return self.with_(constraint=predicate.to_dict())

    def with_limit(self, limit: int) -> Optional["ConnectorTableHandle"]:
        """Absorb a row limit; ``None`` when one at least as tight is held."""
        if self.limit is not None and self.limit <= limit:
            return None
        return self.with_(limit=limit)

    def with_top_level_columns(self, columns: Sequence[str]) -> "ConnectorTableHandle":
        """Absorb a projection, widening dotted paths to their top-level column."""
        top_level = dict.fromkeys(path.split(".")[0] for path in columns)
        return self.with_(projected_columns=tuple(top_level))

    def pushdown_key(self) -> str:
        """Canonical text of every plan-time pushdown the handle carries.

        Two scans of one table may share cached results only when this
        matches.  ``dynamic_filter`` is runtime state and is left out.
        """
        return json.dumps(
            [self.constraint, self.limit, self.projected_columns, self.aggregation],
            sort_keys=True,
            default=repr,
        )


@dataclass(frozen=True)
class ConnectorSplit:
    """One shard of underlying data, the unit of parallel processing."""

    split_id: str
    # Rows the split holds before any pushdown, when the connector knows
    # the count without I/O; the scheduler sizes source stages by it.
    # ``None``: unknown, and the split's stage runs one task per split.
    rows: Optional[int] = None
    # Connector-specific payload (file path, segment id, row range, ...).
    info: tuple[tuple[str, Any], ...] = ()

    def info_dict(self) -> dict:
        return dict(self.info)


@dataclass(frozen=True)
class AggregationFunction:
    """One aggregate offered for pushdown: resolved handle + input columns."""

    function_handle: FunctionHandle
    inputs: tuple[str, ...]  # column names
    output_name: str

    def to_dict(self) -> dict:
        return {
            "functionHandle": self.function_handle.to_dict(),
            "inputs": list(self.inputs),
            "outputName": self.output_name,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AggregationFunction":
        return cls(
            FunctionHandle.from_dict(data["functionHandle"]),
            tuple(data["inputs"]),
            data["outputName"],
        )


@dataclass(frozen=True)
class FilterPushdownResult:
    """Outcome of offering a filter to a connector.

    ``handle`` has absorbed what the connector can evaluate;
    ``remaining_expression`` (serialized) is what the engine must still
    evaluate itself; ``None`` remaining means fully absorbed.
    """

    handle: ConnectorTableHandle
    remaining_expression: Optional[dict]


@dataclass(frozen=True)
class AggregationPushdownResult:
    """Outcome of offering an aggregation to a connector.

    ``output_columns`` describes the (grouping keys + aggregate results)
    the connector will stream back, in order.
    """

    handle: ConnectorTableHandle
    output_columns: tuple[ColumnMetadata, ...]


def column_blocks(
    presto_type: PrestoType, values: Sequence[Any], page_size: int
) -> list[Block]:
    """One column's values as the blocks a store keeps, one per
    ``page_size`` slice (at least one).

    A VARCHAR column is one :class:`VarcharBlock` dictionary for all the
    slices plus int32 ids (-1 at NULL) when the parquet writer's rule
    accepts the values (``build_dictionary``: at most max(16, n/2)
    distinct values and fewer than 65 536); each slice is a
    :class:`DictionaryBlock` over its ids.  Every other column, and a
    VARCHAR column the rule declines, is built by ``block_from_values``
    slice by slice.
    """
    starts = range(0, max(len(values), 1), page_size)
    if presto_type is VARCHAR:
        encoded = _varchar_dictionary(values)
        if encoded is not None:
            dictionary, ids = encoded
            return [DictionaryBlock(dictionary, ids[s : s + page_size]) for s in starts]
    return [block_from_values(presto_type, values[s : s + page_size]) for s in starts]


def _varchar_dictionary(values: Sequence[Any]) -> Optional[tuple[VarcharBlock, np.ndarray]]:
    """``(dictionary, int32 ids)`` with NULL as id -1, or ``None`` when the
    parquet writer's rule declines or a value is not text."""
    try:
        encoded = build_dictionary(values)
    except TypeError:  # an unhashable payload
        return None
    if encoded is None:
        return None
    entries, ids = encoded
    try:
        dictionary = VarcharBlock.from_values(entries)
    except (AttributeError, TypeError, UnicodeEncodeError):
        return None  # block_from_values' permissive object lane takes it
    if dictionary.nulls is not None:
        slot = entries.index(None)
        del entries[slot]
        if not entries:
            return None  # all NULL: a dictionary of nothing would decode nothing
        dictionary = VarcharBlock.from_values(entries)
        ids = np.where(ids == slot, -1, ids - (ids > slot)).astype(np.int32)
    return dictionary, ids


def stored_page(types: Sequence[PrestoType], rows: Sequence[Sequence[Any]]) -> Page:
    """Row tuples as the one page a store keeps: each column by
    :func:`column_blocks`, so low-cardinality VARCHAR is a dictionary."""
    columns = list(zip(*rows)) if rows else [() for _ in types]
    return Page(
        [column_blocks(t, c, max(len(rows), 1))[0] for t, c in zip(types, columns)],
        len(rows),
    )


def select_columns(
    layout: Sequence[tuple[str, PrestoType]], page: Page, columns: Sequence[str]
) -> Page:
    """``columns`` of a page whose channels are laid out as ``layout``.

    A dotted path selects its top-level column, whole — what
    ``with_top_level_columns`` promised the engine.
    """
    names = [n for n, _ in layout]
    return page.select_channels([names.index(c.split(".")[0]) for c in columns])


def empty_page(layout: Sequence[tuple[str, PrestoType]], columns: Sequence[str]) -> Page:
    """A page of no rows holding ``columns`` of ``layout``, as
    :func:`select_columns` picks them."""
    return select_columns(layout, Page.from_rows([t for _, t in layout], []), columns)


class Connector:
    """One connector, registered under a catalog name.

    Its method groups are the section IV jobs the module docstring quotes:
    metadata (with the pushdown negotiation), :meth:`get_splits` and
    :meth:`pages`.  A connector states two metadata facts,
    :meth:`table_columns` and :meth:`absorb_conjunct`; table lookup and
    the filter negotiation are derived from them here, once, for every
    connector.  The limit and projection answers most connectors give are
    here too, to be opted into by assignment:
    ``apply_limit = Connector.absorb_limit``.
    """

    name: str = "connector"

    # -- metadata: "defines schemas, tables, columns etc." --------------------

    def list_schemas(self) -> list[str]:
        raise NotImplementedError

    def list_tables(self, schema_name: str) -> list[str]:
        raise NotImplementedError

    def table_columns(
        self, schema_name: str, table_name: str
    ) -> Optional[Sequence[tuple[str, PrestoType]]]:
        """The table's ``(name, type)`` columns; ``None`` when
        ``schema_name.table_name`` does not exist.

        Runs at analysis time, so a table name that pins a version
        (snapshot id, watermark) is validated here and raises
        :class:`ConnectorError` before any split is enumerated.
        """
        raise NotImplementedError

    def get_table_handle(self, schema_name: str, table_name: str) -> Optional[ConnectorTableHandle]:
        if self.table_columns(schema_name, table_name) is None:
            return None
        return ConnectorTableHandle(schema_name, table_name)

    def get_table_metadata(self, handle: ConnectorTableHandle) -> TableMetadata:
        columns = self.table_columns(handle.schema_name, handle.table_name)
        if columns is None:
            raise ConnectorError(
                f"table {handle.schema_name}.{handle.table_name} does not exist"
            )
        return TableMetadata(
            handle.schema_name,
            handle.table_name,
            tuple(ColumnMetadata(n, t) for n, t in columns),
        )

    # -- statistics (cost-based planning) ----------------------------------

    def collect_table_statistics(self, handle: ConnectorTableHandle):
        """ANALYZE: compute (and persist) this table's statistics.

        Returns a :class:`repro.metastore.statistics.TableStatistics` or
        ``None`` when the connector cannot produce statistics.  Default:
        decline.
        """
        return None

    def get_table_statistics(self, handle: ConnectorTableHandle):
        """Previously collected statistics, or ``None`` when unanalyzed.

        Statistics are advisory — consumers must plan identically to the
        stats-free engine when this returns ``None``.
        """
        return None

    # -- pushdown negotiation (sections IV.A / IV.B) -----------------------

    def absorb_conjunct(
        self, handle: ConnectorTableHandle, conjunct: RowExpression
    ) -> Optional[RowExpression]:
        """The form of ``conjunct`` this connector will evaluate natively
        for ``handle``'s table, or ``None`` to leave it with the engine.
        Default: decline."""
        return None

    def absorb_over_own_columns(
        self, handle: ConnectorTableHandle, conjunct: RowExpression
    ) -> Optional[RowExpression]:
        """The :meth:`absorb_conjunct` answer of a store that evaluates any
        expression itself: every conjunct naming only the table's columns
        (so never an aggregate output of a handle carrying ``aggregation``)."""
        columns = {n for n, _ in self.table_columns(handle.schema_name, handle.table_name)}
        if all(v.name in columns for v in conjunct.variables()):
            return conjunct
        return None

    def apply_filter(
        self, handle: ConnectorTableHandle, predicate: RowExpression
    ) -> Optional[FilterPushdownResult]:
        """Offer ``predicate`` for native evaluation: each top-level
        conjunct goes to :meth:`absorb_conjunct`; the absorbed forms are
        ANDed onto the handle and the rest is handed back.  ``None`` when
        no conjunct is absorbed."""
        absorbed: list[RowExpression] = []
        remaining: list[RowExpression] = []
        for conjunct in conjuncts(predicate):
            native = self.absorb_conjunct(handle, conjunct)
            if native is None:
                remaining.append(conjunct)
            else:
                absorbed.append(native)
        if not absorbed:
            return None
        remaining_expression = combine_conjuncts(remaining)
        return FilterPushdownResult(
            handle.with_conjunct(and_(*absorbed)),
            None if remaining_expression is None else remaining_expression.to_dict(),
        )

    def apply_limit(
        self, handle: ConnectorTableHandle, limit: int
    ) -> Optional[ConnectorTableHandle]:
        """Offer a row limit.  Default: decline."""
        return None

    def absorb_limit(
        self, handle: ConnectorTableHandle, limit: int
    ) -> Optional[ConnectorTableHandle]:
        """The :meth:`apply_limit` answer of a connector whose pages honour
        ``handle.limit``: take it unless one at least as tight is held."""
        return handle.with_limit(limit)

    def apply_projection(
        self, handle: ConnectorTableHandle, columns: Sequence[str]
    ) -> Optional[ConnectorTableHandle]:
        """Offer a column projection.  Default: decline."""
        return None

    def absorb_top_level_columns(
        self, handle: ConnectorTableHandle, columns: Sequence[str]
    ) -> Optional[ConnectorTableHandle]:
        """The :meth:`apply_projection` answer of a connector that reads
        whole top-level columns: a dotted path widens to its column."""
        return handle.with_top_level_columns(columns)

    def absorb_column_paths(
        self, handle: ConnectorTableHandle, columns: Sequence[str]
    ) -> Optional[ConnectorTableHandle]:
        """The :meth:`apply_projection` answer of a connector that reads
        dotted paths as they are (nested column pruning)."""
        return handle.with_(projected_columns=tuple(columns))

    def apply_aggregation(
        self,
        handle: ConnectorTableHandle,
        aggregations: Sequence[AggregationFunction],
        grouping_columns: Sequence[str],
    ) -> Optional[AggregationPushdownResult]:
        """Offer an aggregation (section IV.B).  Default: decline."""
        return None

    # -- split manager: "how Presto divide the underlying data into splits" --

    def get_splits(self, handle: ConnectorTableHandle) -> list[ConnectorSplit]:
        """Divide a table (as constrained by its handle) into parallel splits."""
        raise NotImplementedError

    # -- record set provider: data streams become pages ----------------------

    def pages(
        self,
        handle: ConnectorTableHandle,
        split: ConnectorSplit,
        columns: Sequence[str],
    ) -> Iterator[Page]:
        """Stream a split's data into the engine as pages."""
        raise NotImplementedError

    def split_manager(self) -> "Connector":
        """The connector itself.  Kept only because the end-to-end ledger
        (``benchmarks/e2e/ledger.py``) calls it; delete with that call."""
        return self

    def record_set_provider(self) -> "Connector":
        """The connector itself.  Kept only because the end-to-end ledger
        (``benchmarks/e2e/ledger.py``) calls it; delete with that call."""
        return self

    def plan_version(self) -> Optional[Hashable]:
        """A value that changes whenever a plan over this connector could.

        The engine reuses a statement's plan only while every connector
        answers the same version.  ``None`` (the default) means plans over
        this connector are never reused: a connector whose tables, files,
        statistics, snapshots or watermarks can move without telling it
        keeps the default.
        """
        return None


class SingleSchemaConnector(Connector):
    """A connector that serves exactly one schema, ``self.schema_name``:
    it states :meth:`table_names` and :meth:`columns_of`, and the schema
    is checked here, once."""

    def table_names(self) -> list[str]:
        raise NotImplementedError

    def columns_of(self, table_name: str) -> Optional[Sequence[tuple[str, PrestoType]]]:
        """:meth:`table_columns` within the connector's own schema."""
        raise NotImplementedError

    def list_schemas(self) -> list[str]:
        return [self.schema_name]

    def list_tables(self, schema_name: str) -> list[str]:
        return self.table_names() if schema_name == self.schema_name else []

    def table_columns(
        self, schema_name: str, table_name: str
    ) -> Optional[Sequence[tuple[str, PrestoType]]]:
        if schema_name != self.schema_name:
            return None
        return self.columns_of(table_name)


class Catalog:
    """Registry of connectors by catalog name.

    ``catalog.schema.table`` naming (section IV) resolves through here:
    the catalog part selects the connector.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, Connector] = {}
        self._registrations = 0

    def register(self, catalog_name: str, connector: Connector) -> None:
        self._by_name[catalog_name.lower()] = connector
        self._registrations += 1

    def plan_version(self) -> Optional[tuple]:
        """The registrations so far and every connector's ``plan_version()``;
        ``None`` when any connector's plans are never reused."""
        versions = []
        for connector in self._by_name.values():
            version = connector.plan_version()
            if version is None:
                return None
            versions.append(version)
        return (self._registrations, tuple(versions))

    def connector(self, catalog_name: str) -> Connector:
        connector = self._by_name.get(catalog_name.lower())
        if connector is None:
            raise ConnectorError(f"catalog {catalog_name!r} not registered")
        return connector

    def catalog_names(self) -> list[str]:
        return sorted(self._by_name)
