"""The streaming lakehouse: seconds-fresh hybrid queries (Figs 15–16).

Composes the Kafka connector (durable log), the hybrid table's own
in-memory tail, and the Iceberg table format (the sealed past) into one
exactly-once queryable table; see :mod:`repro.realtime.hybrid` for the
watermark protocol and :mod:`repro.realtime.lakehouse` for one-call
assembly.
"""

from repro.realtime.connector import (
    HybridTableConnector,
    parse_table_name,
    watermark_table_name,
)
from repro.realtime.hybrid import HybridTable, TailSegment
from repro.realtime.lakehouse import StreamingLakehouse
from repro.realtime.mv import MaterializedView, ViewAggregate
from repro.realtime.pipeline import Compactor, IngestionPipeline
from repro.realtime.watermark import Watermark

__all__ = [
    "Compactor",
    "HybridTable",
    "HybridTableConnector",
    "IngestionPipeline",
    "MaterializedView",
    "StreamingLakehouse",
    "TailSegment",
    "ViewAggregate",
    "Watermark",
    "parse_table_name",
    "watermark_table_name",
]
