"""The differential oracle for the streaming lakehouse.

Two independent verification surfaces, both phrased against the durable
Kafka log (the one component no crash schedule can corrupt):

- :func:`oracle_engine` replays the *full* log below a watermark into a
  plain in-memory table; its callers answer SQL over it through
  :func:`tests.reference.pipeline.execute_direct`, the single-pipeline run.
  A hybrid query at watermark ``W`` must return exactly the rows the
  batch oracle returns over the replayed log at ``W``, for scans, time
  travel, and aggregations a materialized view answers alike.
- :func:`visible_log_keys` walks the hybrid connector's own
  ``get_splits`` and ``pages`` (no engine involved) and returns the
  multiset of ``(_partition_id, _offset)`` coordinates a read at ``W``
  makes visible.  The exactly-once property suite compares it against
  the set the log says must be visible: equal as *multisets*, so a
  duplicated row fails as loudly as a dropped one.

Both surfaces deliberately use :meth:`KafkaBroker.log_records`, which is
free of simulated-clock charge — verification must not perturb the run
under test.
"""

from __future__ import annotations

from collections import Counter

from repro.connectors.kafka import HIDDEN_COLUMNS, KafkaBroker
from repro.connectors.memory import MemoryConnector
from repro.connectors.spi import Catalog
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from repro.realtime.connector import HybridTableConnector
from repro.realtime.watermark import Watermark

ORACLE_SCHEMA = "oracle"


def replayed_log_rows(
    broker: KafkaBroker, topic: str, watermark: Watermark
) -> list[tuple]:
    """Full-width rows of every log record below ``watermark``.

    Row layout matches the hybrid table: user fields, then
    ``_partition_id`` / ``_offset`` / ``_timestamp_ms``.  Deterministic
    partition-major order.
    """
    rows: list[tuple] = []
    for partition in range(broker.partition_count(topic)):
        for record in broker.log_records(topic, partition):
            if watermark.covers(partition, record.offset):
                rows.append(
                    tuple(record.values)
                    + (partition, record.offset, record.timestamp_ms)
                )
    return rows


def oracle_engine(
    broker: KafkaBroker, topic: str, watermark: Watermark
) -> PrestoEngine:
    """A batch engine over the replayed log at ``watermark``.

    The returned engine has one memory table ``memory.oracle.<topic>``
    with the hybrid table's exact column layout; compare what
    ``execute_direct`` returns over it against the hybrid engine's.  It owns a
    private clock so oracle work never advances the simulation.
    """
    memory = MemoryConnector()
    memory.create_table(
        ORACLE_SCHEMA,
        topic,
        broker.fields(topic) + HIDDEN_COLUMNS,
        replayed_log_rows(broker, topic, watermark),
    )
    catalog = Catalog()
    catalog.register("memory", memory)
    session = Session(catalog="memory", schema=ORACLE_SCHEMA, user="oracle")
    return PrestoEngine(catalog=catalog, session=session)


def visible_log_keys(
    connector: HybridTableConnector, table_name: str
) -> Counter:
    """Multiset of ``(partition, offset)`` a hybrid read makes visible.

    Drives the connector's real ``get_splits`` and ``pages`` — the same
    code path queries use — so it sees exactly what a query would,
    including pinned tail rows and time-travel cuts.  Returned as a
    Counter: exactly-once means every key maps to 1 and the key set
    equals the log prefix below the read watermark.
    """
    handle = connector.get_table_handle(
        connector.schema_name, table_name
    )
    if handle is None:
        raise ValueError(f"no hybrid table {table_name!r}")
    keys: Counter = Counter()
    for split in connector.get_splits(handle):
        for page in connector.pages(handle, split, ["_partition_id", "_offset"]):
            for partition, offset in page.loaded().rows():
                keys[(partition, offset)] += 1
    return keys


def expected_log_keys(
    broker: KafkaBroker, topic: str, watermark: Watermark
) -> Counter:
    """The multiset the log says must be visible at ``watermark``."""
    return Counter(
        (partition, offset)
        for partition in range(broker.partition_count(topic))
        for offset in range(
            min(watermark.offset(partition), len(broker.log_records(topic, partition)))
        )
    )


def tail_layout(table) -> list[tuple]:
    """A hybrid table's tail segments, for byte-identical replay checks."""
    return [
        (s.segment_id, s.partition, s.base_offset, s.end_offset, s.max_timestamp_ms)
        for s in sorted(table.tail_segments, key=lambda s: s.segment_id)
    ]


def assert_exactly_once(
    connector: HybridTableConnector,
    broker: KafkaBroker,
    topic: str,
    table_name: str | None = None,
) -> Counter:
    """Assert the hybrid read at the committed watermark is exactly-once.

    Returns the visible multiset for further checks.  Raises
    ``AssertionError`` naming the first duplicated or missing key.
    """
    base = table_name or topic
    table = connector.table(base)
    watermark = table.committed
    visible = visible_log_keys(
        connector, base if table_name is None else table_name
    )
    expected = expected_log_keys(broker, topic, watermark)
    duplicated = {k: n for k, n in visible.items() if n > 1}
    assert not duplicated, f"rows visible more than once: {duplicated}"
    missing = expected - visible
    assert not missing, f"rows dropped: {sorted(missing)}"
    extra = visible - expected
    assert not extra, f"rows visible beyond watermark: {sorted(extra)}"
    return visible
