"""One-call assembly of the streaming lakehouse.

:class:`StreamingLakehouse` wires the whole vertical slice on one shared
simulated clock: a Kafka topic (durable log) → ingestion pipeline →
hybrid table (its own in-memory tail + Iceberg lake on simulated HDFS) →
compactor, plus a metrics registry and a pipeline trace.  ``make_engine``
returns a :class:`PrestoEngine` whose default namespace is the hybrid
catalog, with the raw lake also mounted (catalog ``lake``) so freshness
experiments can query the sealed-only view of the same data.

Typical use::

    lh = StreamingLakehouse(fields=[("city", VARCHAR), ("amount", DOUBLE)])
    lh.produce([("sf", 1.5)])
    lh.pipeline.run_for(10_000)
    engine = lh.make_engine()
    engine.execute("SELECT city, sum(amount) FROM events GROUP BY city")
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.common.clock import SimulatedClock
from repro.connectors.kafka import HIDDEN_COLUMNS, KafkaBroker, KafkaConnector
from repro.connectors.lakehouse.connector import IcebergConnector
from repro.connectors.lakehouse.table_format import IcebergTable
from repro.connectors.spi import Catalog
from repro.core.types import PrestoType
from repro.execution.engine import PrestoEngine
from repro.execution.faults import FaultInjector
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import QueryTrace
from repro.planner.analyzer import Session
from repro.realtime.connector import HybridTableConnector
from repro.realtime.hybrid import HybridTable
from repro.realtime.mv import MaterializedView, ViewAggregate
from repro.realtime.pipeline import Compactor, IngestionPipeline
from repro.storage.hdfs import HdfsFileSystem, NameNode


class StreamingLakehouse:
    """The composed system: log, tail, lake, pipeline, and connectors."""

    def __init__(
        self,
        fields: Sequence[tuple[str, PrestoType]],
        topic: str = "events",
        partitions: int = 3,
        poll_interval_ms: float = 200.0,
        compaction_interval_ms: float = 5000.0,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.clock = SimulatedClock()
        self.topic = topic
        self.fields = list(fields)
        self.metrics = MetricsRegistry()
        self.fault_injector = fault_injector

        self.broker = KafkaBroker(clock=self.clock)
        self.broker.create_topic(topic, fields, partitions)
        self.filesystem = HdfsFileSystem(namenode=NameNode(clock=self.clock))
        self.lake = IcebergTable(
            self.filesystem,
            f"/lake/{topic}",
            list(fields) + list(HIDDEN_COLUMNS),
        )
        self.table = HybridTable(topic, fields, partitions, self.lake, self.clock)
        self.compactor = Compactor(self.table, fault_injector=fault_injector)
        self.pipeline_trace = QueryTrace(clock=self.clock)
        self.pipeline = IngestionPipeline(
            self.broker,
            topic,
            self.table,
            poll_interval_ms=poll_interval_ms,
            compactor=self.compactor,
            compaction_interval_ms=compaction_interval_ms,
            fault_injector=fault_injector,
            metrics=self.metrics,
            tracer=self.pipeline_trace,
        )
        self.connector = HybridTableConnector()
        self.connector.register_table(self.table)

    # -- producing ------------------------------------------------------------

    def produce(
        self,
        messages: Sequence[Sequence],
        partition: Optional[int] = None,
        timestamps_ms: Optional[Sequence[int]] = None,
    ) -> list[int]:
        """Append a batch of messages to the topic; returns their offsets."""
        return self.broker.produce(
            self.topic, messages, partition=partition, timestamps_ms=timestamps_ms
        )

    # -- views -----------------------------------------------------------------

    def create_materialized_view(
        self,
        name: str,
        group_by: Sequence[str],
        aggregates: Sequence[ViewAggregate],
    ) -> MaterializedView:
        view = MaterializedView(name, self.table, group_by, aggregates)
        self.connector.register_view(view)
        return view

    # -- querying --------------------------------------------------------------

    def catalog(self) -> Catalog:
        catalog = Catalog()
        catalog.register("hybrid", self.connector)
        lake_connector = IcebergConnector()
        lake_connector.register_table(self.topic, self.lake)
        catalog.register("lake", lake_connector)
        catalog.register("kafka", KafkaConnector(self.broker))
        return catalog

    def make_engine(self, **engine_kwargs) -> PrestoEngine:
        """An engine defaulted to ``hybrid.rt`` on the shared clock."""
        engine_kwargs.setdefault("clock", self.clock)
        engine_kwargs.setdefault("metrics", self.metrics)
        session = engine_kwargs.pop(
            "session",
            Session(catalog="hybrid", schema=self.connector.schema_name),
        )
        return PrestoEngine(
            catalog=self.catalog(), session=session, **engine_kwargs
        )
