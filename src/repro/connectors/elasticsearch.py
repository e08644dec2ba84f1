"""Simulated Elasticsearch and the Presto-Elasticsearch connector.

Section IV: "In Presto-Elasticsearch-connector, we map each Elasticsearch
index into a table.  Each Elasticsearch field is mapped into a column."
The simulated cluster stores JSON documents with inverted indexes on
keyword fields; term and range queries are pushed down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

from repro.common.clock import SimulatedClock
from repro.common.errors import ConnectorError
from repro.connectors.spi import (
    Connector,
    ConnectorSplit,
    ConnectorTableHandle,
    SingleSchemaConnector,
)
from repro.core.expressions import (
    ColumnTest,
    RowExpression,
    conjuncts,
    match_column_test,
)
from repro.core.page import Page
from repro.core.types import PrestoType


@dataclass
class EsStats:
    searches: int = 0
    docs_examined: int = 0
    docs_returned: int = 0


class ElasticsearchCluster:
    """Documents in indices, sharded, with keyword inverted indexes."""

    def __init__(
        self, clock: Optional[SimulatedClock] = None, shards_per_index: int = 3
    ) -> None:
        self.clock = clock or SimulatedClock()
        self.shards_per_index = shards_per_index
        self.stats = EsStats()
        self._indices: dict[str, tuple[list[tuple[str, PrestoType]], list[list[dict]]]] = {}
        self.search_latency_ms = 5.0
        self.doc_match_ms = 0.0002
        self.doc_fetch_ms = 0.001

    def create_index(
        self, name: str, fields: Sequence[tuple[str, PrestoType]]
    ) -> None:
        self._indices[name] = (
            list(fields),
            [[] for _ in range(self.shards_per_index)],
        )

    def index_document(self, index: str, document: dict) -> None:
        fields, shards = self._require(index)
        shard = hash(str(sorted(document.items()))) % len(shards)
        shards[shard].append(document)

    def index_documents(self, index: str, documents: Sequence[dict]) -> None:
        for document in documents:
            self.index_document(index, document)

    def _require(self, index: str):
        entry = self._indices.get(index)
        if entry is None:
            raise ConnectorError(f"elasticsearch: no index {index!r}")
        return entry

    def indices(self) -> list[str]:
        return sorted(self._indices)

    def fields(self, index: str) -> list[tuple[str, PrestoType]]:
        return list(self._require(index)[0])

    def search_shard(
        self,
        index: str,
        shard: int,
        term_filters: Sequence[tuple[str, list[Any]]],
        range_filters: dict[str, tuple[Optional[float], Optional[float]]],
        source_fields: Sequence[str],
        size: Optional[int] = None,
    ) -> list[dict]:
        """Execute a bool query on one shard.

        ``term_filters`` is a list of (field, allowed values) requirements,
        all of which must hold (bool/must with terms clauses).
        """
        _, shards = self._require(index)
        documents = shards[shard]
        self.stats.searches += 1
        self.stats.docs_examined += len(documents)
        self.clock.advance(self.search_latency_ms + len(documents) * self.doc_match_ms)

        hits: list[dict] = []
        for document in documents:
            if not all(
                document.get(field) in values for field, values in term_filters
            ):
                continue
            in_range = True
            for field, (low, high) in range_filters.items():
                value = document.get(field)
                if value is None:
                    in_range = False
                    break
                if low is not None and value < low:
                    in_range = False
                    break
                if high is not None and value > high:
                    in_range = False
                    break
            if not in_range:
                continue
            hits.append({f: document.get(f) for f in source_fields})
            if size is not None and len(hits) >= size:
                break
        self.stats.docs_returned += len(hits)
        self.clock.advance(len(hits) * self.doc_fetch_ms)
        return hits


class ElasticsearchConnector(SingleSchemaConnector):
    """Presto-Elasticsearch connector: index → table, field → column."""

    name = "elasticsearch"

    def __init__(self, cluster: ElasticsearchCluster, schema_name: str = "default") -> None:
        self.cluster = cluster
        self.schema_name = schema_name

    def table_names(self) -> list[str]:
        return self.cluster.indices()

    def columns_of(self, table_name: str) -> Optional[list[tuple[str, PrestoType]]]:
        if table_name not in self.cluster.indices():
            return None
        return self.cluster.fields(table_name)

    def absorb_conjunct(
        self, handle: ConnectorTableHandle, conjunct: RowExpression
    ) -> Optional[RowExpression]:
        """Absorb term (equality/IN) and range conjuncts; leave the rest."""
        return conjunct if _as_term_or_range(conjunct) is not None else None

    apply_limit = Connector.absorb_limit
    apply_projection = Connector.absorb_top_level_columns

    def get_splits(self, handle: ConnectorTableHandle) -> list[ConnectorSplit]:
        shards = self.cluster.shards_per_index
        return [
            ConnectorSplit(
                split_id=f"es:{handle.table_name}:{shard}",
                info=(("shard", shard),),
            )
            for shard in range(shards)
        ]

    def pages(
        self,
        handle: ConnectorTableHandle,
        split: ConnectorSplit,
        columns: Sequence[str],
    ) -> Iterator[Page]:
        cluster = self.cluster
        term_filters: list[tuple[str, list[Any]]] = []
        range_filters: dict[str, tuple[Optional[float], Optional[float]]] = {}
        for conjunct in conjuncts(handle.constraint_expression()):
            test = _as_term_or_range(conjunct)
            if test is None:
                continue
            if not test.values or test.op in ("equal", "in"):
                # A terms clause; with no values (a NULL constant) it matches
                # no document, which is what a range against NULL means too.
                term_filters.append((test.column, list(test.values)))
                continue
            low, high = range_filters.get(test.column, (None, None))
            bound = test.values[0]
            if test.op == "greater_than_or_equal":
                low = bound if low is None else max(low, bound)
            else:
                high = bound if high is None else min(high, bound)
            range_filters[test.column] = (low, high)
        hits = cluster.search_shard(
            handle.table_name,
            split.info_dict()["shard"],
            term_filters,
            range_filters,
            source_fields=list(columns),
            size=handle.limit,
        )
        types = dict(cluster.fields(handle.table_name))
        yield Page.from_rows(
            [types[c] for c in columns],
            [tuple(hit.get(c) for c in columns) for hit in hits],
        )


def _as_term_or_range(conjunct: RowExpression) -> Optional[ColumnTest]:
    """The conjunct as a term (``=``/``IN``) or range query, else ``None``.

    Only inclusive bounds map onto the simulated range query; strict
    comparisons stay engine-side to keep semantics exact.
    """
    test = match_column_test(conjunct)
    if test is not None and test.op in (
        "equal",
        "in",
        "greater_than_or_equal",
        "less_than_or_equal",
    ):
        return test
    return None
