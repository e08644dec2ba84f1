"""One predicate matrix, every pushdown-capable connector, one oracle.

The same rows (NULLs in a varchar and a bigint column) are loaded into
memory, MySQL, Elasticsearch, Druid, Pinot, Iceberg, hive and a hybrid
table; each predicate of the matrix must return, through every
connector's pushdown, exactly what the memory connector (which absorbs
no filter: the engine evaluates it) returns.  The Kafka connector is
held to the same standard on its hidden log columns against a memory
table replayed from the broker's log.
"""

import pytest

from repro.connectors.elasticsearch import ElasticsearchCluster, ElasticsearchConnector
from repro.connectors.hive import HiveConnector, write_hive_partition
from repro.connectors.kafka import HIDDEN_COLUMNS
from repro.connectors.lakehouse import IcebergConnector, IcebergTable
from repro.connectors.memory import MemoryConnector
from repro.connectors.mysql import MySqlConnector, MySqlServer
from repro.connectors.olap import (
    DruidCluster,
    DruidConnector,
    PinotCluster,
    PinotConnector,
)
from repro.core.page import Page
from repro.core.types import BIGINT, VARCHAR
from repro.metastore.metastore import HiveMetastore
from repro.realtime import StreamingLakehouse
from repro.realtime.oracle import replayed_log_rows
from repro.storage.hdfs import HdfsFileSystem

COLUMNS = [("id", BIGINT), ("level", VARCHAR), ("code", BIGINT)]
LEVELS = ["error", "info", None, "warn", "info", "info"]
CODES = [1, 2, None, 5, 7, 3, 2]
ROWS = [(i, LEVELS[i % len(LEVELS)], CODES[i % len(CODES)]) for i in range(24)]
# Two files / segments / partitions per store, so skipping has a choice.
HALVES = [ROWS[:12], ROWS[12:]]

PREDICATES = [
    # NULL constants: a comparison with NULL is never true.
    "level = NULL",
    "level IN ('error', NULL)",
    "level IN (NULL)",
    "code = NULL",
    "code IN (1, NULL)",
    "code >= NULL",
    "code <= NULL",
    # Constant on the left.
    "5 <= code",
    "3 > code",
    "'info' = level",
    # Strict and inclusive bounds.
    "code > 2",
    "code >= 2",
    "code < 5",
    "code <= 5",
    "level >= 'info'",
    "level < 'info'",
    # Two ranges on one column.
    "code >= 2 AND code <= 5",
    "code >= 5 AND code <= 3",
    "code > 7 AND code < 1",
    # Fractional bounds on a bigint column.
    "code >= 1.5",
    "code <= 2.5",
    "code = 1.5",
    "code IN (1.5, 2)",
    # Negation stays with the engine (or the remote evaluator).
    "NOT (code IN (1, 2))",
    "NOT (level IN ('error', 'warn'))",
    "NOT (level = NULL)",
    # Values absent from every dictionary / inverted index.
    "level = 'absent'",
    "level IN ('absent', 'missing')",
    "code = 999",
    "code IN (998, 999)",
    # Mixed with a conjunct no connector index serves.
    "level = 'info' AND id % 2 = 0",
    "code IN (2, 5) AND level IN ('info', NULL)",
]

KAFKA_PREDICATES = [
    "_offset >= NULL",
    "_offset = NULL",
    "_offset >= 1.5",
    "_offset <= 1.5",
    "_offset = 1.5",
    "2 <= _offset",
    "_offset = 1",
    "_offset > 1",
    "_offset < 2",
    "_offset >= 1 AND _offset <= 2",
    "_offset >= 2 AND _offset <= 1",
    "NOT (_offset IN (0, 1))",
    "_timestamp_ms >= 40",
    "_timestamp_ms <= 40.5",
    "_timestamp_ms <= NULL",
    "_timestamp_ms >= 16 AND _timestamp_ms <= 60 AND _offset >= 1",
]


def _hive_connector(halves=HALVES) -> HiveConnector:
    metastore = HiveMetastore()
    filesystem = HdfsFileSystem()
    metastore.create_table("db", "t", COLUMNS, partition_keys=[("ds", VARCHAR)])
    for index, half in enumerate(halves):
        write_hive_partition(
            metastore, filesystem, "db", "t", [f"d{index}"],
            [Page.from_rows([t for _, t in COLUMNS], half)],
            row_group_size=4,
        )
    return HiveConnector(metastore, filesystem)


def _iceberg_connector(halves=HALVES) -> IcebergConnector:
    table = IcebergTable(HdfsFileSystem(), "/lake/t", COLUMNS)
    for half in halves:
        table.append(half)
    connector = IcebergConnector()
    connector.register_table("t", table)
    return connector


def _store_connector(cluster_cls, connector_cls, halves=HALVES):
    cluster = cluster_cls(nodes=2)
    cluster.create_datasource("t", COLUMNS)
    for half in halves:
        cluster.add_segment("t", half)
    return connector_cls(cluster)


def _elasticsearch_connector() -> ElasticsearchConnector:
    cluster = ElasticsearchCluster(shards_per_index=2)
    cluster.create_index("t", COLUMNS)
    names = [name for name, _ in COLUMNS]
    cluster.index_documents("t", [dict(zip(names, row)) for row in ROWS])
    return ElasticsearchConnector(cluster)


@pytest.fixture(scope="module")
def engine():
    """One engine with the same rows behind every catalog."""
    lakehouse = StreamingLakehouse(
        fields=COLUMNS, topic="t", poll_interval_ms=100, compaction_interval_ms=400
    )
    for row in HALVES[0]:
        lakehouse.produce(row, timestamp_ms=row[0] * 4)
    lakehouse.pipeline.run_for(1000)  # sealed into the lake
    for row in HALVES[1]:
        lakehouse.produce(row, timestamp_ms=1100 + row[0])
    lakehouse.pipeline.run_for(150)  # stays in the tail
    assert lakehouse.table.sealed_watermark() != lakehouse.table.committed

    memory = MemoryConnector(split_size=5)
    memory.create_table("db", "t", COLUMNS, ROWS)
    memory.create_table(
        "db",
        "log",
        COLUMNS + HIDDEN_COLUMNS,
        replayed_log_rows(lakehouse.broker, "t", lakehouse.table.committed),
    )
    mysql = MySqlServer()
    mysql.create_table("db", "t", COLUMNS, ROWS)

    engine = lakehouse.make_engine()  # registers hybrid, lake and kafka
    for catalog, connector in [
        ("memory", memory),
        ("mysql", MySqlConnector(mysql)),
        ("es", _elasticsearch_connector()),
        ("druid", _store_connector(DruidCluster, DruidConnector)),
        ("pinot", _store_connector(PinotCluster, PinotConnector)),
        ("iceberg", _iceberg_connector()),
        ("hive", _hive_connector()),
    ]:
        engine.register_connector(catalog, connector)
    return engine


TABLES = {
    "mysql": "mysql.db.t",
    "elasticsearch": "es.default.t",
    "druid": "druid.druid.t",
    "pinot": "pinot.pinot.t",
    "iceberg": "iceberg.lake.t",
    "hive": "hive.db.t",
    "hybrid": "hybrid.rt.t",
}


def _rows(engine, table: str, predicate: str, columns: str = "id, level, code"):
    result = engine.execute(f"SELECT {columns} FROM {table} WHERE {predicate}")
    return sorted(result.rows, key=repr)


def test_every_table_holds_the_same_rows(engine):
    expected = sorted(ROWS, key=repr)
    for table in ["memory.db.t", *TABLES.values()]:
        assert _rows(engine, table, "true") == expected, table


@pytest.mark.parametrize("predicate", PREDICATES)
@pytest.mark.parametrize("connector", sorted(TABLES))
def test_connector_matches_memory(engine, connector, predicate):
    expected = _rows(engine, "memory.db.t", predicate)
    assert _rows(engine, TABLES[connector], predicate) == expected


def test_the_matrix_discriminates(engine):
    """Guard the oracle itself: the matrix has empty, partial and full
    answers, so a connector that ignored or over-applied a predicate
    could not pass by accident."""
    counts = {p: len(_rows(engine, "memory.db.t", p)) for p in PREDICATES}
    assert counts["level = NULL"] == 0
    assert counts["level IN ('error', NULL)"] == 4
    assert counts["code >= NULL"] == 0
    assert counts["code >= 1.5"] == counts["code >= 2"] > 0
    assert counts["code >= 5 AND code <= 3"] == 0
    assert 0 < counts["NOT (code IN (1, 2))"] < len(ROWS)


@pytest.mark.parametrize("predicate", KAFKA_PREDICATES)
def test_kafka_log_seek_matches_memory(engine, predicate):
    columns = "id, _partition_id, _offset, _timestamp_ms"
    expected = _rows(engine, "memory.db.log", predicate, columns)
    assert _rows(engine, "kafka.kafka.t", predicate, columns) == expected
