"""Simulated real-time OLAP stores (Druid, Pinot) and their connectors.

Section IV.B: "Druid and Pinot are real time systems, which have in memory
bitmap indices, inverted indices, pre-aggregations or dictionaries,
enabling sub-second query latency ... they only have limited support for
joins and subquery.  Presto connectors bridge the gap."
"""

from repro.connectors.olap.store import (
    NativeQuery,
    RealtimeOlapStore,
    Segment,
    StoreCostModel,
)
from repro.connectors.olap.connector import RealtimeOlapConnector
from repro.connectors.olap.druid import DruidCluster, DruidConnector
from repro.connectors.olap.pinot import PinotCluster, PinotConnector

__all__ = [
    "NativeQuery",
    "RealtimeOlapStore",
    "Segment",
    "StoreCostModel",
    "RealtimeOlapConnector",
    "DruidCluster",
    "DruidConnector",
    "PinotCluster",
    "PinotConnector",
]
