"""Simulated Pinot cluster and the Presto-Pinot connector.

Pinot's execution profile differs from Druid's in degree, not kind
(star-tree pre-aggregation makes grouped aggregations slightly cheaper,
broker fan-out slightly leaner); the connector surface is identical.
"""

from __future__ import annotations

from repro.connectors.olap.connector import RealtimeOlapConnector
from repro.connectors.olap.store import RealtimeOlapStore, StoreCostModel


class PinotCluster(RealtimeOlapStore):
    """Pinot: star-tree indexes, low-latency broker."""

    COST_MODEL = StoreCostModel(
        base_latency_ms=10.0,
        index_lookup_ms=0.04,
        scan_ns_per_value=4.5,
        aggregate_ns_per_value=4.0,
    )

    def __init__(self, nodes: int = 100) -> None:
        super().__init__(name="pinot", nodes=nodes, cost_model=self.COST_MODEL)


class PinotConnector(RealtimeOlapConnector):
    """Presto-Pinot connector."""

    def __init__(self, cluster: PinotCluster, schema_name: str = "pinot") -> None:
        super().__init__(cluster, schema_name)
        self.name = "pinot"
