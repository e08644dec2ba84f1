"""Simulated MySQL server and the Presto-MySQL connector.

"MySQL is used widely in all companies with transaction support" (section
IV).  The simulated server is a row store that can evaluate arbitrary
predicates, projections and limits server-side; the connector pushes all
three down so "only filtered, projected, and limited rows" stream into the
engine — tables are addressed as ``mysql.schemaName.tableName``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.common.clock import SimulatedClock
from repro.common.errors import ConnectorError
from repro.connectors.spi import (
    Connector,
    ConnectorSplit,
    ConnectorTableHandle,
)
from repro.core.evaluator import Evaluator
from repro.core.expressions import RowExpression
from repro.core.page import Page
from repro.core.types import PrestoType


@dataclass
class MySqlStats:
    queries: int = 0
    rows_examined: int = 0
    rows_returned: int = 0


class MySqlServer:
    """A toy row-store standing in for MySQL."""

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock or SimulatedClock()
        self.stats = MySqlStats()
        self._tables: dict[tuple[str, str], tuple[list[tuple[str, PrestoType]], list[tuple]]] = {}
        self._evaluator = Evaluator()
        # Latency model: connection overhead plus per-row evaluation/transfer.
        self.query_latency_ms = 2.0
        self.row_eval_ms = 0.0005
        self.row_transfer_ms = 0.002

    def create_table(
        self,
        database: str,
        table: str,
        columns: Sequence[tuple[str, PrestoType]],
        rows: Sequence[tuple] = (),
    ) -> None:
        self._tables[(database, table)] = (list(columns), [tuple(r) for r in rows])

    def insert(self, database: str, table: str, rows: Sequence[tuple]) -> None:
        self._require(database, table)[1].extend(tuple(r) for r in rows)

    def _require(self, database: str, table: str):
        entry = self._tables.get((database, table))
        if entry is None:
            raise ConnectorError(f"mysql: no table {database}.{table}")
        return entry

    def databases(self) -> list[str]:
        return sorted({d for d, _ in self._tables})

    def tables(self, database: str) -> list[str]:
        return sorted(t for d, t in self._tables if d == database)

    def columns(self, database: str, table: str) -> list[tuple[str, PrestoType]]:
        return list(self._require(database, table)[0])

    def execute(
        self,
        database: str,
        table: str,
        projection: Sequence[str],
        predicate: Optional[RowExpression] = None,
        limit: Optional[int] = None,
    ) -> list[tuple]:
        """Run a structured query server-side (WHERE, SELECT list, LIMIT)."""
        columns, rows = self._require(database, table)
        names = [n for n, _ in columns]
        self.stats.queries += 1
        self.stats.rows_examined += len(rows)
        self.clock.advance(self.query_latency_ms + len(rows) * self.row_eval_ms)

        rows = self._evaluator.filter_rows(predicate, columns, rows)
        if limit is not None:
            rows = rows[:limit]
        indexes = [names.index(c) for c in projection]
        result = [tuple(row[i] for i in indexes) for row in rows]
        self.stats.rows_returned += len(result)
        self.clock.advance(len(result) * self.row_transfer_ms)
        return result


class MySqlConnector(Connector):
    """Presto-MySQL connector with filter/projection/limit pushdown."""

    name = "mysql"

    def __init__(self, server: MySqlServer) -> None:
        self.server = server

    def list_schemas(self) -> list[str]:
        return self.server.databases()

    def list_tables(self, schema_name: str) -> list[str]:
        return self.server.tables(schema_name)

    def table_columns(
        self, schema_name: str, table_name: str
    ) -> Optional[list[tuple[str, PrestoType]]]:
        try:
            return self.server.columns(schema_name, table_name)
        except ConnectorError:
            return None

    # The server evaluates arbitrary predicates (WHERE) itself.
    absorb_conjunct = Connector.absorb_over_own_columns

    apply_limit = Connector.absorb_limit
    apply_projection = Connector.absorb_top_level_columns

    def get_splits(self, handle: ConnectorTableHandle) -> list[ConnectorSplit]:
        # MySQL is a single server: one split, no parallel scanning.
        return [
            ConnectorSplit(
                split_id=f"mysql:{handle.schema_name}.{handle.table_name}"
            )
        ]

    def pages(
        self,
        handle: ConnectorTableHandle,
        split: ConnectorSplit,
        columns: Sequence[str],
    ) -> Iterator[Page]:
        server = self.server
        rows = server.execute(
            handle.schema_name,
            handle.table_name,
            projection=list(columns),
            predicate=handle.constraint_expression(),
            limit=handle.limit,
        )
        types = dict(server.columns(handle.schema_name, handle.table_name))
        yield Page.from_rows([types[c] for c in columns], rows)
