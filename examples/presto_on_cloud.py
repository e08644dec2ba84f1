"""Presto on cloud: S3, elasticity, and cluster federation (sections VIII-IX).

Demonstrates the operational side of the paper:

1. PrestoS3FileSystem over a simulated S3 — lazy seek, exponential
   backoff through an injected outage, multipart upload, S3 Select;
2. a Hive warehouse living on S3 instead of HDFS, queried identically;
3. graceful expansion and shrink of a simulated cluster (section IX);
4. a federation gateway routing users to clusters, with a zero-downtime
   maintenance drain (section VIII): a SQL query submitted through the
   gateway during the drain runs on the fallback cluster.

Run:  python examples/presto_on_cloud.py
"""

import itertools

from repro import MemoryConnector, PrestoEngine, Session
from repro.cloud.elasticity import Autoscaler, AutoscalerPolicy
from repro.common.clock import SimulatedClock
from repro.connectors.hive import HiveConnector, write_hive_partition
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.cluster import PrestoClusterSim, WorkerState
from repro.federation.gateway import PrestoGateway
from repro.metastore.metastore import HiveMetastore
from repro.storage.s3 import S3Client
from repro.storage.s3_filesystem import PrestoS3FileSystem


def s3_features() -> None:
    print("== PrestoS3FileSystem optimizations ==")
    clock = SimulatedClock()
    # First three requests fail: exponential backoff rides it out.
    failures = itertools.chain([True, True, True], itertools.repeat(False))
    client = S3Client(clock=clock, failure_injector=lambda op: next(failures))
    fs = PrestoS3FileSystem(client, "warehouse", multipart_threshold=4_000_000)

    fs.create("/bulk/data.bin", b"x" * 20_000_000)  # multipart upload
    print(
        f"  multipart upload of 20MB: {client.stats.multipart_part_uploads} parts, "
        f"{fs.stats.retries} retries absorbed, "
        f"{fs.stats.backoff_ms_total:.0f}ms backoff"
    )

    stream = fs.open("/bulk/data.bin")
    before = client.stats.get_requests
    stream.seek(1_000_000)
    stream.seek(5_000_000)
    stream.seek(9_000_000)  # lazy: no GETs yet
    stream.read(64)
    print(
        f"  lazy seek: 3 seeks + 1 read -> {client.stats.get_requests - before} GET request(s)"
    )

    client.put_object("warehouse", "raw/events.csv", b"1,sf,9\n2,nyc,3\n3,sf,7\n")
    rows = fs.select("/raw/events.csv", projection=[2], predicate=lambda f: f[1] == "sf")
    print(f"  S3 Select pushdown: {rows} (only selected bytes left S3)")


def warehouse_on_s3() -> None:
    print("\n== Hive warehouse on S3 ==")
    client = S3Client(clock=SimulatedClock())
    fs = PrestoS3FileSystem(client, "lakehouse")
    metastore = HiveMetastore()
    metastore.create_table(
        "web", "clicks", [("user_id", BIGINT), ("dwell", DOUBLE)],
        partition_keys=[("ds", VARCHAR)],
    )
    write_hive_partition(
        metastore, fs, "web", "clicks", ["2022-06-01"],
        [Page.from_rows([BIGINT, DOUBLE], [(i % 40, float(i % 9)) for i in range(500)])],
    )
    engine = PrestoEngine(session=Session(catalog="hive", schema="web"))
    engine.register_connector("hive", HiveConnector(metastore, fs))
    result = engine.execute("SELECT count(*), sum(dwell) FROM clicks")
    print(f"  query over S3-resident Parquet: {result.rows[0]}")


def elasticity() -> None:
    print("\n== graceful expansion and shrink (section IX) ==")
    cluster = PrestoClusterSim(workers=2, slots_per_worker=2, clock=SimulatedClock())
    scaler = Autoscaler(
        cluster, AutoscalerPolicy(min_workers=2, max_workers=8), grace_period_ms=1000
    )
    # Busy hours: load arrives, the autoscaler expands.
    cluster.submit_query([400.0] * 16)
    import heapq

    time_ms, _, callback = heapq.heappop(cluster._events)
    cluster.clock.advance(time_ms - cluster.clock.now_ms())
    callback()
    decision = scaler.evaluate()
    print(f"  under load: utilization={scaler.utilization():.0%} -> scale {decision}")
    cluster.run_until_idle()
    # Quiet hours: idle, the autoscaler drains a worker gracefully.
    decision = scaler.evaluate()
    cluster.run_until_idle()
    states = [w.state.value for w in cluster.workers.values()]
    print(f"  when idle: scale {decision}; worker states: {states}")


def federation() -> None:
    print("\n== federation gateway (section VIII) ==")
    gateway = PrestoGateway()
    for name, workers in [("etl", 6), ("interactive", 4), ("shared", 8)]:
        gateway.register_cluster(
            PrestoClusterSim(workers=workers, clock=SimulatedClock(), name=name)
        )
    gateway.routing.assign_group("data-eng", "etl")
    gateway.routing.assign_user("ceo-dashboard", "interactive")
    gateway.routing.set_default("shared")

    for user, groups in [("ceo-dashboard", ()), ("bob", ("data-eng",)), ("carol", ())]:
        redirect = gateway.redirect(user, groups)
        print(f"  {user!r} -> HTTP {redirect.status_code} redirect to {redirect.cluster_name!r}")

    gateway.drain_cluster("interactive", fallback="shared")
    redirect = gateway.redirect("ceo-dashboard")
    print(f"  during maintenance drain: 'ceo-dashboard' -> {redirect.cluster_name!r} (no downtime)")

    connector = MemoryConnector()
    connector.create_table("kpi", "daily", [("day", VARCHAR), ("trips", BIGINT)],
                           [("mon", 120), ("tue", 135)])
    engine = PrestoEngine(session=Session(catalog="memory", schema="kpi"))
    engine.register_connector("memory", connector)
    submission = gateway.submit_sql("ceo-dashboard", engine, "SELECT sum(trips) FROM daily")
    gateway.run_until_idle()
    print(
        f"  the dashboard's query ran on {submission.cluster_name!r}: "
        f"{submission.handle.result().rows}"
    )
    gateway.undrain_cluster("interactive")
    redirect = gateway.redirect("ceo-dashboard")
    print(f"  maintenance over: 'ceo-dashboard' -> {redirect.cluster_name!r}")


def main() -> None:
    s3_features()
    warehouse_on_s3()
    elasticity()
    federation()


if __name__ == "__main__":
    main()
