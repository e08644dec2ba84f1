"""Simulated MySQL server and the Presto-MySQL connector.

"MySQL is used widely in all companies with transaction support" (section
IV).  The simulated server keeps a table as one page built where its rows
arrive, and evaluates arbitrary predicates, projections and limits on it;
the connector pushes all three down so "only filtered, projected, and
limited rows" stream into the engine — tables are addressed as
``mysql.schemaName.tableName``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.common.clock import SimulatedClock, charge
from repro.common.errors import ConnectorError
from repro.connectors.spi import (
    Connector,
    ConnectorSplit,
    ConnectorTableHandle,
    select_columns,
    stored_page,
)
from repro.core.evaluator import Evaluator
from repro.core.expressions import RowExpression
from repro.core.page import Page, concat_pages
from repro.core.types import PrestoType


@dataclass
class MySqlStats:
    queries: int = 0
    rows_examined: int = 0
    rows_returned: int = 0


class MySqlServer:
    """A toy server standing in for MySQL: one stored page per table."""

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock or SimulatedClock()
        self.stats = MySqlStats()
        self._tables: dict[tuple[str, str], tuple[list[tuple[str, PrestoType]], Page]] = {}
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
        columns = list(columns)
        self._tables[(database, table)] = (columns, stored_page([t for _, t in columns], rows))

    def insert(self, database: str, table: str, rows: Sequence[tuple]) -> None:
        columns, page = self._require(database, table)
        types = [t for _, t in columns]
        added = stored_page(types, rows)
        self._tables[(database, table)] = (columns, concat_pages(types, [page, added]))

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
    ) -> Page:
        """Run a structured query server-side (WHERE, SELECT list, LIMIT):
        the table's page filtered, cut and projected."""
        columns, page = self._require(database, table)
        self.stats.queries += 1
        self.stats.rows_examined += page.position_count
        query_ms = self.query_latency_ms + page.position_count * self.row_eval_ms
        charge(self.clock, "store", query_ms)

        page = self._evaluator.filter_page(predicate, [n for n, _ in columns], page)
        if limit is not None and page.position_count > limit:
            page = page.take(np.arange(limit))
        result = select_columns(columns, page, projection)
        self.stats.rows_returned += result.position_count
        charge(self.clock, "network", result.position_count * self.row_transfer_ms)
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
        yield self.server.execute(
            handle.schema_name,
            handle.table_name,
            projection=list(columns),
            predicate=handle.constraint_expression(),
            limit=handle.limit,
        )
