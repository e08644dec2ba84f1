"""Unified SQL on heterogeneous storage, without data copy (section IV).

The paper's motivating scenario: "it is desirable to join Hadoop batch
data with Pinot real time data to get fresh Uber Eats reports."  This
example stands up four storage systems —

- a Hive warehouse (trips history in the Parquet-like format on HDFS),
- a MySQL server (restaurant dimension data),
- a Pinot cluster (real-time order events, minutes old),
- an Elasticsearch cluster (service health logs),

registers a connector for each, and answers one federated question with a
single SQL query — no copy pipelines.  Watch the EXPLAIN output: the
predicate, projection, and aggregation pushdowns land in each connector's
table handle.  The engine runs with the fragment result cache (section
VII), so the repeated report reads its Hive splits from the cache.

Run:  python examples/federated_analytics.py
"""

from repro import PrestoEngine, Session
from repro.cache import FragmentResultCache
from repro.connectors.elasticsearch import ElasticsearchCluster, ElasticsearchConnector
from repro.connectors.hive import HiveConnector, write_hive_partition
from repro.connectors.mysql import MySqlConnector, MySqlServer
from repro.connectors.olap import PinotCluster, PinotConnector
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.metastore.metastore import HiveMetastore
from repro.storage.hdfs import HdfsFileSystem


def build_hive_warehouse():
    """Batch layer: completed orders, partitioned by day."""
    metastore = HiveMetastore()
    fs = HdfsFileSystem()
    metastore.create_table(
        "eats",
        "completed_orders",
        [("restaurant_id", BIGINT), ("amount", DOUBLE)],
        partition_keys=[("datestr", VARCHAR)],
    )
    for date, orders in {
        "2022-01-01": [(1, 25.0), (2, 14.0), (1, 31.5), (3, 9.0)],
        "2022-01-02": [(2, 22.0), (3, 18.0), (3, 12.5), (1, 40.0)],
    }.items():
        write_hive_partition(
            metastore,
            fs,
            "eats",
            "completed_orders",
            [date],
            [Page.from_rows([BIGINT, DOUBLE], orders)],
        )
    return HiveConnector(metastore, fs)


def build_mysql():
    """Transactional layer: the restaurant dimension."""
    server = MySqlServer()
    server.create_table(
        "eats",
        "restaurants",
        [("restaurant_id", BIGINT), ("name", VARCHAR), ("city", VARCHAR)],
        [
            (1, "Taqueria Uno", "san_francisco"),
            (2, "Pho Palace", "san_francisco"),
            (3, "Bagel Barn", "new_york"),
        ],
    )
    return MySqlConnector(server)


def build_pinot():
    """Real-time layer: order events from the last few minutes."""
    cluster = PinotCluster(nodes=4)
    cluster.create_datasource(
        "live_orders", [("restaurant_id", BIGINT), ("status", VARCHAR), ("amount", DOUBLE)]
    )
    cluster.add_segment(
        "live_orders",
        [
            (1, "placed", 19.0),
            (1, "placed", 27.5),
            (2, "canceled", 11.0),
            (3, "placed", 16.0),
            (3, "placed", 8.5),
        ],
    )
    return PinotConnector(cluster)


def build_elasticsearch():
    """Operational layer: delivery service logs."""
    cluster = ElasticsearchCluster()
    cluster.create_index(
        "delivery_logs", [("restaurant_id", BIGINT), ("level", VARCHAR), ("message", VARCHAR)]
    )
    cluster.index_documents(
        "delivery_logs",
        [
            {"restaurant_id": 1, "level": "info", "message": "courier assigned"},
            {"restaurant_id": 2, "level": "error", "message": "courier timeout"},
            {"restaurant_id": 2, "level": "error", "message": "retry failed"},
            {"restaurant_id": 3, "level": "info", "message": "delivered"},
        ],
    )
    return ElasticsearchConnector(cluster)


def main() -> None:
    fragments = FragmentResultCache()
    engine = PrestoEngine(
        session=Session(catalog="hive", schema="eats"), fragment_result_cache=fragments
    )
    engine.register_connector("hive", build_hive_warehouse())
    engine.register_connector("mysql", build_mysql())
    engine.register_connector("pinot", build_pinot())
    engine.register_connector("es", build_elasticsearch())

    print("-- one endpoint over four storage systems: what each catalog holds --")
    for (catalog,) in engine.execute("SHOW CATALOGS").rows:
        for (schema,) in engine.execute(f"SHOW SCHEMAS FROM {catalog}").rows:
            tables = engine.execute(f"SHOW TABLES FROM {catalog}.{schema}").rows
            print(f"{catalog}.{schema}: {', '.join(table for (table,) in tables)}")

    print("\n-- the fresh Uber Eats report: batch history + live orders + dimension --")
    sql = (
        "SELECT r.name, "
        "       sum(h.amount) AS batch_revenue, "
        "       sum(l.amount) AS live_revenue "
        "FROM mysql.eats.restaurants r "
        "JOIN hive.eats.completed_orders h ON r.restaurant_id = h.restaurant_id "
        "JOIN pinot.pinot.live_orders l ON r.restaurant_id = l.restaurant_id "
        "WHERE l.status = 'placed' "
        "GROUP BY r.name ORDER BY 2 DESC"
    )
    for row in engine.execute(sql).rows:
        print(row)
    engine.execute(sql)
    print(
        f"run again: {fragments.stats.hits} Hive splits served by the fragment "
        f"result cache, {fragments.stats.misses} read"
    )

    print("\n-- which restaurants had delivery errors today? (Elasticsearch join) --")
    sql = (
        "SELECT r.name, count(*) AS errors "
        "FROM es.default.delivery_logs d "
        "JOIN mysql.eats.restaurants r ON d.restaurant_id = r.restaurant_id "
        "WHERE d.level = 'error' GROUP BY r.name"
    )
    for row in engine.execute(sql).rows:
        print(row)

    print("\n-- aggregation pushdown in action (figure 2): EXPLAIN --")
    print(
        engine.explain(
            "SELECT restaurant_id, max(amount) FROM pinot.pinot.live_orders "
            "GROUP BY restaurant_id"
        )
    )


if __name__ == "__main__":
    main()
