"""The figure 16 Druid workload.

"20 druid production queries are used in the experiment.  14 of them have
predicates, 5 of them have limits, and 12 of them are aggregation
queries."  This module builds a synthetic datasource plus exactly that mix,
with each query in two equivalent forms: SQL (executed through the
Presto-Druid connector) and a native query (executed directly on the
simulated Druid cluster).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.connectors.olap.druid import DruidCluster
from repro.connectors.olap.store import NativeQuery
from repro.connectors.spi import AggregationFunction
from repro.core.expressions import (
    CallExpression,
    RowExpression,
    SpecialForm,
    SpecialFormExpression,
    and_,
    constant,
    variable,
)
from repro.core.functions import default_registry
from repro.core.types import BIGINT, DOUBLE, VARCHAR

DATASOURCE = "events"

COLUMNS = [
    ("ts", BIGINT),
    ("city", VARCHAR),
    ("product", VARCHAR),
    ("status", VARCHAR),
    ("value", DOUBLE),
    ("clicks", BIGINT),
]

_CITIES = [f"city{i}" for i in range(12)]
_PRODUCTS = ["rides", "eats", "freight", "ads"]
_STATUSES = ["ok", "error", "timeout"]


@dataclass(frozen=True)
class Fig16Query:
    """One workload query in both execution forms."""

    query_id: str
    sql: str
    native: NativeQuery
    has_predicate: bool
    has_limit: bool
    is_aggregation: bool


@dataclass
class DruidWorkload:
    cluster: DruidCluster
    queries: list[Fig16Query]


def _scalar(name: str, column: str, column_type, value) -> CallExpression:
    handle, _ = default_registry().resolve_scalar(name, [column_type, column_type])
    return CallExpression(
        name,
        handle,
        handle.resolved_return_type(),
        (variable(column, column_type), constant(value, column_type)),
    )


def _in(column: str, column_type, values) -> SpecialFormExpression:
    from repro.core.types import BOOLEAN

    return SpecialFormExpression(
        SpecialForm.IN,
        BOOLEAN,
        tuple([variable(column, column_type)] + [constant(v, column_type) for v in values]),
    )


def _agg(name: str, inputs: tuple, input_types, output: str) -> dict:
    handle, _ = default_registry().resolve_aggregate(name, list(input_types))
    return AggregationFunction(handle, inputs, output).to_dict()


def build_druid_workload(
    segments: int = 20,
    rows_per_segment: int = 20_000,
    nodes: int = 100,
    clock=None,
    seed: int = 41,
) -> DruidWorkload:
    """Load the datasource and build the 20-query mix."""
    cluster = DruidCluster(nodes=nodes, clock=clock)
    cluster.create_datasource(DATASOURCE, COLUMNS)
    rng = np.random.default_rng(seed)
    for s in range(segments):
        rows = []
        for i in range(rows_per_segment):
            rows.append(
                (
                    s * rows_per_segment + i,
                    _CITIES[int(rng.integers(0, len(_CITIES)))],
                    _PRODUCTS[int(rng.integers(0, len(_PRODUCTS)))],
                    _STATUSES[int(rng.choice(3, p=[0.9, 0.07, 0.03]))],
                    round(float(rng.gamma(2.0, 10.0)), 3),
                    int(rng.integers(0, 100)),
                )
            )
        cluster.add_segment(DATASOURCE, rows)

    queries = _build_queries()
    assert len(queries) == 20
    assert sum(q.has_predicate for q in queries) == 14
    assert sum(q.has_limit for q in queries) == 5
    assert sum(q.is_aggregation for q in queries) == 12
    return DruidWorkload(cluster, queries)


def _build_queries() -> list[Fig16Query]:
    queries: list[Fig16Query] = []

    def agg_query(
        index: int,
        group: str,
        aggregations: list[tuple[str, str, Optional[str]]],
        predicate_sql: Optional[str],
        predicate: Optional[RowExpression],
    ) -> None:
        select_aggs = []
        native_aggs = []
        column_types = dict(COLUMNS)
        for name, column, alias in aggregations:
            if column:
                select_aggs.append(f"{name}({column}) AS {alias}")
                native_aggs.append(
                    _agg(name, (column,), (column_types[column],), alias)
                )
            else:
                select_aggs.append(f"count(*) AS {alias}")
                native_aggs.append(_agg("count", (), (), alias))
        where = f" WHERE {predicate_sql}" if predicate_sql else ""
        sql = (
            f"SELECT {group}, {', '.join(select_aggs)} FROM {DATASOURCE}"
            f"{where} GROUP BY {group}"
        )
        native = NativeQuery(
            DATASOURCE,
            grouping=(group,),
            aggregations=tuple(native_aggs),
            filter=predicate.to_dict() if predicate is not None else None,
        )
        queries.append(
            Fig16Query(
                f"Q{index}", sql, native, predicate is not None, False, True
            )
        )

    # -- 12 aggregation queries, 8 with predicates --------------------------
    agg_query(1, "city", [("count", "", "cnt")], None, None)
    agg_query(2, "product", [("sum", "value", "total")], None, None)
    agg_query(
        3, "city", [("count", "", "cnt")],
        "status = 'error'", _scalar("equal", "status", VARCHAR, "error"),
    )
    agg_query(
        4, "product", [("sum", "clicks", "clicks")],
        "status = 'ok'", _scalar("equal", "status", VARCHAR, "ok"),
    )
    agg_query(5, "city", [("max", "value", "peak")], None, None)
    agg_query(
        6, "status", [("count", "", "cnt"), ("sum", "value", "total")],
        "city IN ('city1', 'city2')", _in("city", VARCHAR, ["city1", "city2"]),
    )
    agg_query(7, "product", [("min", "value", "low"), ("max", "value", "high")], None, None)
    agg_query(
        8, "city", [("sum", "value", "total")],
        "product IN ('eats', 'ads')", _in("product", VARCHAR, ["eats", "ads"]),
    )
    agg_query(
        9, "city", [("count", "", "cnt")],
        "status = 'timeout'", _scalar("equal", "status", VARCHAR, "timeout"),
    )
    agg_query(
        10, "product", [("count", "", "cnt")],
        "city = 'city7'", _scalar("equal", "city", VARCHAR, "city7"),
    )
    agg_query(
        11, "status", [("sum", "clicks", "clicks")],
        "city IN ('city0', 'city3', 'city5')",
        _in("city", VARCHAR, ["city0", "city3", "city5"]),
    )
    agg_query(
        12, "city", [("max", "clicks", "peak")],
        "product = 'freight'", _scalar("equal", "product", VARCHAR, "freight"),
    )

    # -- 5 limit queries, 3 with predicates ---------------------------------
    def limit_query(index, columns, limit, predicate_sql, predicate):
        where = f" WHERE {predicate_sql}" if predicate_sql else ""
        sql = f"SELECT {', '.join(columns)} FROM {DATASOURCE}{where} LIMIT {limit}"
        native = NativeQuery(
            DATASOURCE,
            columns=tuple(columns),
            filter=predicate.to_dict() if predicate is not None else None,
            limit=limit,
        )
        queries.append(
            Fig16Query(f"Q{index}", sql, native, predicate is not None, True, False)
        )

    limit_query(13, ["city", "value"], 100, None, None)
    limit_query(
        14, ["ts", "value"], 50,
        "status = 'error'", _scalar("equal", "status", VARCHAR, "error"),
    )
    limit_query(15, ["product", "clicks"], 200, None, None)
    limit_query(
        16, ["city", "status"], 20,
        "product = 'ads'", _scalar("equal", "product", VARCHAR, "ads"),
    )
    limit_query(
        17, ["ts", "city"], 10,
        "city = 'city4'", _scalar("equal", "city", VARCHAR, "city4"),
    )

    # -- 3 filtered scans (predicates, no limit, no aggregation) -------------
    def scan_query(index, columns, predicate_sql, predicate):
        sql = f"SELECT {', '.join(columns)} FROM {DATASOURCE} WHERE {predicate_sql}"
        native = NativeQuery(
            DATASOURCE, columns=tuple(columns), filter=predicate.to_dict()
        )
        queries.append(Fig16Query(f"Q{index}", sql, native, True, False, False))

    scan_query(
        18, ["ts", "value"],
        "status = 'timeout'", _scalar("equal", "status", VARCHAR, "timeout"),
    )
    scan_query(
        19, ["city", "value"],
        "product = 'freight' AND status = 'error'",
        and_(
            _scalar("equal", "product", VARCHAR, "freight"),
            _scalar("equal", "status", VARCHAR, "error"),
        ),
    )
    scan_query(
        20, ["ts", "clicks"],
        "city IN ('city9', 'city10')", _in("city", VARCHAR, ["city9", "city10"]),
    )
    return queries
