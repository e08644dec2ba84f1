"""Hive-style metastore: databases, tables, partitions.

Tracks table schemas, partition locations, and whether a partition is
*sealed* or *open* — the distinction the file-list cache keys on (section
VII.A: caching "can only be applied to sealed directories.  For open
partitions, Presto will skip caching those directories to guarantee data
freshness" for near-real-time ingestion).

Every mutation bumps a version counter, which the metastore versioned
cache keys on; a partition keeps the version that added it as its stamp,
which the file-list cache keys on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.common.errors import ConnectorError
from repro.core.types import PrestoType
from repro.metastore.statistics import TableStatistics


@dataclass
class PartitionInfo:
    """One partition: its key values, storage location, and seal state.

    ``stamp`` is the metastore version that added it: a partition added
    again at the same location (a rewrite) is another partition.
    """

    values: tuple[str, ...]
    location: str
    sealed: bool = True
    stamp: int = field(default=0, init=False)


@dataclass
class TableInfo:
    """One table's metadata."""

    database: str
    name: str
    columns: list[tuple[str, PrestoType]]  # data columns (in file)
    partition_keys: list[tuple[str, PrestoType]] = field(default_factory=list)
    location: str = ""
    partitions: dict[tuple[str, ...], PartitionInfo] = field(default_factory=dict)

    def all_columns(self) -> list[tuple[str, PrestoType]]:
        return self.columns + self.partition_keys

    def partition_key_names(self) -> list[str]:
        return [name for name, _ in self.partition_keys]


class HiveMetastore:
    """In-memory metastore with version tracking."""

    def __init__(self) -> None:
        self._tables: dict[tuple[str, str], TableInfo] = {}
        self._statistics: dict[tuple[str, str], TableStatistics] = {}
        self.version = 0

    def _bump(self) -> None:
        self.version += 1

    # -- DDL -----------------------------------------------------------------

    def create_table(
        self,
        database: str,
        name: str,
        columns: Sequence[tuple[str, PrestoType]],
        partition_keys: Sequence[tuple[str, PrestoType]] = (),
        location: str = "",
    ) -> TableInfo:
        key = (database, name)
        if key in self._tables:
            raise ConnectorError(f"table {database}.{name} already exists")
        table = TableInfo(
            database,
            name,
            list(columns),
            list(partition_keys),
            location or f"/warehouse/{database}/{name}",
        )
        self._tables[key] = table
        self._bump()
        return table

    def update_table_columns(
        self, database: str, name: str, columns: Sequence[tuple[str, PrestoType]]
    ) -> None:
        self.get_table(database, name).columns = list(columns)
        self._bump()

    # -- partitions ------------------------------------------------------------

    def add_partition(
        self,
        database: str,
        name: str,
        values: Sequence[str],
        location: Optional[str] = None,
        sealed: bool = True,
    ) -> PartitionInfo:
        table = self.get_table(database, name)
        values = tuple(values)
        if len(values) != len(table.partition_keys):
            raise ConnectorError(
                f"partition values {values} do not match keys {table.partition_key_names()}"
            )
        if location is None:
            parts = "/".join(
                f"{key}={value}"
                for (key, _), value in zip(table.partition_keys, values)
            )
            location = f"{table.location}/{parts}"
        partition = PartitionInfo(values, location, sealed)
        table.partitions[values] = partition
        self._bump()
        partition.stamp = self.version
        return partition

    def seal_partition(self, database: str, name: str, values: Sequence[str]) -> None:
        """Mark a partition sealed: ingestion finished, safe to cache."""
        partition = self.get_partition(database, name, values)
        partition.sealed = True
        self._bump()

    def get_partition(
        self, database: str, name: str, values: Sequence[str]
    ) -> PartitionInfo:
        table = self.get_table(database, name)
        partition = table.partitions.get(tuple(values))
        if partition is None:
            raise ConnectorError(f"no partition {values} in {database}.{name}")
        return partition

    # -- statistics ------------------------------------------------------------

    def set_table_statistics(
        self, database: str, name: str, statistics: TableStatistics
    ) -> None:
        """Store ANALYZE results; bumps the version like any mutation."""
        self.get_table(database, name)  # raises if the table does not exist
        self._statistics[(database, name)] = statistics
        self._bump()

    def get_table_statistics(
        self, database: str, name: str
    ) -> Optional[TableStatistics]:
        return self._statistics.get((database, name))

    # -- lookup ----------------------------------------------------------------

    def get_table(self, database: str, name: str) -> TableInfo:
        table = self._tables.get((database, name))
        if table is None:
            raise ConnectorError(f"table {database}.{name} does not exist")
        return table

    def has_table(self, database: str, name: str) -> bool:
        return (database, name) in self._tables

    def list_databases(self) -> list[str]:
        return sorted({d for d, _ in self._tables})

    def list_tables(self, database: str) -> list[str]:
        return sorted(n for d, n in self._tables if d == database)
