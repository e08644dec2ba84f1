"""Presto connectors: unified SQL on heterogeneous storage without data copy.

Section IV: a catalog registers one ``Connector`` object, whose method
groups are the connector's jobs — metadata ("defines schemas, tables,
columns etc."), the split manager (how data divides into parallel
splits, ``get_splits``) and the record set provider (how streams become
Presto pages, ``pages``); a ``ConnectorSplit`` is one processing unit.
Tables are addressed as ``catalog.schema.table`` where the catalog names
the connector instance.

Pushdown (IV.A/IV.B) is negotiated through the metadata methods: the
optimizer offers filters, projections, limits and aggregations as
serialized RowExpressions and the connector absorbs what its storage can
evaluate natively.
"""

from repro.connectors.spi import (
    Catalog,
    ColumnMetadata,
    Connector,
    ConnectorSplit,
    ConnectorTableHandle,
    AggregationFunction,
    AggregationPushdownResult,
    FilterPushdownResult,
    TableMetadata,
)
from repro.connectors.memory import MemoryConnector

__all__ = [
    "Catalog",
    "ColumnMetadata",
    "Connector",
    "ConnectorSplit",
    "ConnectorTableHandle",
    "AggregationFunction",
    "AggregationPushdownResult",
    "FilterPushdownResult",
    "TableMetadata",
    "MemoryConnector",
]
