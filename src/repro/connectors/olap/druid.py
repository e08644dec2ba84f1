"""Simulated Druid cluster and the Presto-Druid connector.

Matches the figure 16 testbed shape: a 100-node Druid cluster holding
production-like segments, queried either natively or through Presto with
predicate / limit / aggregation pushdown.
"""

from __future__ import annotations

from typing import Optional

from repro.common.clock import SimulatedClock
from repro.connectors.olap.connector import RealtimeOlapConnector
from repro.connectors.olap.store import RealtimeOlapStore, StoreCostModel


class DruidCluster(RealtimeOlapStore):
    """Druid: bitmap-indexed segments, deep storage on HDFS (not modeled
    beyond ingestion), sub-second brokered queries."""

    COST_MODEL = StoreCostModel(
        base_latency_ms=15.0,
        index_lookup_ms=0.05,
        scan_ns_per_value=4.0,
        aggregate_ns_per_value=6.0,
    )

    def __init__(self, nodes: int = 100, clock: Optional[SimulatedClock] = None) -> None:
        super().__init__(
            name="druid", nodes=nodes, clock=clock, cost_model=self.COST_MODEL
        )


class DruidConnector(RealtimeOlapConnector):
    """Presto-Druid connector."""

    def __init__(self, cluster: DruidCluster, schema_name: str = "druid") -> None:
        super().__init__(cluster, schema_name)
        self.name = "druid"
