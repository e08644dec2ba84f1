"""The four workloads: inputs from one seed, engines with default knobs.

A workload makes its inputs (``generate``), loads the same rows into the
SQLite oracle (``build_oracle``) and then, once per pass, builds the system
under test from them (``build``) and runs rounds on it.  A round is a
fixed list of operations, identical on every commit; how many rounds make
a pass is fixed by ``--seconds`` through the workload's ``rate``, never by
how fast the code under test happens to be.

Why each workload exists is in README.md and in BENCHMARK.json.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.cache.file_list_cache import FileListCache
from repro.cache.footer_cache import FileHandleAndFooterCache
from repro.common.errors import PrestoError
from repro.connectors.hive import HiveConnector, write_hive_partition
from repro.connectors.memory import MemoryConnector
from repro.core.page import Page
from repro.core.types import BIGINT, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.metastore.metastore import HiveMetastore
from repro.obs.metrics import MetricsRegistry
from repro.planner.analyzer import Session
from repro.realtime import StreamingLakehouse
from repro.storage.hdfs import HdfsFileSystem
from repro.workloads.streaming_events import EVENT_FIELDS, produce_events
from repro.workloads.tpch import LINEITEM_COLUMNS, generate_lineitem
from repro.workloads.traffic_storm import (
    QUERY_TEMPLATES,
    build_traffic_storm,
    make_storm_engine,
)
from repro.workloads.trips import generate_trips_rows, load_trips_table

# ``replay_storm`` lives outside this directory on purpose: the change that
# collapses the cluster's submission entry points ports that one function
# and this benchmark follows.
from bench_traffic_storm import replay_storm

from ledger import EngineUnderTest, Ledger, execute_plain, query_layer_metrics
from oracle import SqliteOracle
from robust import SpeedProbe, percentile


@dataclass(frozen=True)
class Template:
    name: str
    sql: str
    target: str = "main"
    oracle_sql: Optional[str] = None
    # Expected rows move with the committed watermark (hybrid reads).
    live: bool = False

    @property
    def ordered(self) -> bool:
        return "ORDER BY" in self.sql.upper()


_JOIN_AGG = (
    "SELECT s.nation, count(*), sum(l.extendedprice) "
    "FROM lineitem l JOIN {supplier} s ON l.suppkey = s.suppkey "
    "WHERE s.segment = 'seg2' GROUP BY s.nation ORDER BY s.nation"
)

Q1 = Template(
    "q1_pricing_summary",
    "SELECT returnflag, linestatus, sum(quantity), sum(extendedprice), "
    "avg(discount), count(*) FROM lineitem WHERE shipdate <= '1998-09-01' "
    "GROUP BY returnflag, linestatus ORDER BY returnflag, linestatus",
)
Q6 = Template(
    "q6_revenue",
    "SELECT sum(extendedprice * discount) FROM lineitem "
    "WHERE shipdate >= '1994-01-01' AND shipdate < '1995-01-01' "
    "AND discount BETWEEN 0.05 AND 0.07 AND quantity < 24",
)
JOIN_AGG = Template(
    "join_agg",
    _JOIN_AGG.format(supplier="dim.db.supplier"),
    oracle_sql=_JOIN_AGG.format(supplier="supplier"),
)

# The dashboard mix: the same seven SQL texts on dash_small and scan_mem.
MIX = [
    Q1,
    Q6,
    Template("quick_count", "SELECT count(*) FROM lineitem WHERE quantity < 24"),
    Template(
        "varchar_filter",
        "SELECT count(*), min(comment) FROM lineitem "
        "WHERE shipinstruct = 'COLLECT COD' AND comment LIKE 'carefully%'",
    ),
    JOIN_AGG,
    Template(
        "topn_wide",
        "SELECT orderkey, linenumber, extendedprice, shipmode, comment FROM lineitem "
        "ORDER BY extendedprice DESC, orderkey, linenumber LIMIT 100",
    ),
    Template(
        "highcard_groupby",
        "SELECT partkey, count(*) FROM lineitem GROUP BY partkey "
        "ORDER BY 2 DESC, 1 LIMIT 20",
    ),
]

DS_PARTITIONS = ["2024-01-01", "2024-01-02", "2024-01-03", "2024-01-04"]
TRIP_DATES = ["2017-03-01", "2017-03-02", "2017-03-03", "2017-03-04"]

LAKE_READS = [
    Q6,
    Q1,
    Template(
        "part_pruned",
        f"SELECT shipmode, count(*) FROM lineitem WHERE ds = '{DS_PARTITIONS[1]}' "
        "AND shipdate >= '1995-01-01' GROUP BY shipmode ORDER BY shipmode",
    ),
    JOIN_AGG,
    Template(
        "trips_nested_agg",
        "SELECT base.city_id, count(*), sum(fare_usd) FROM trips "
        "WHERE base.status = 'completed' GROUP BY base.city_id",
        oracle_sql="SELECT city_id, count(*), sum(fare_usd) FROM trips "
        "WHERE status = 'completed' GROUP BY city_id",
    ),
    Template(
        "trips_point",
        f"SELECT count(*) FROM trips WHERE datestr = '{TRIP_DATES[1]}' AND base.city_id = 12",
        oracle_sql=f"SELECT count(*) FROM trips WHERE datestr = '{TRIP_DATES[1]}' AND city_id = 12",
    ),
    # The hybrid-table query set of bench_lakehouse_freshness.py.
    Template(
        "hybrid_city_rollup",
        "SELECT city, count(*), sum(amount) FROM events GROUP BY city ORDER BY city",
        target="hybrid", live=True,
    ),
    Template(
        "hybrid_big_orders",
        "SELECT count(*) FROM events WHERE amount > 100.0",
        target="hybrid", live=True,
    ),
    Template(
        "hybrid_city_point",
        "SELECT max(order_id), count(*) FROM events WHERE city = 'sf'",
        target="hybrid", live=True,
    ),
]

STORM_TEMPLATES = [Template(name, sql) for name, sql in QUERY_TEMPLATES]

SUPPLIER_COLUMNS = [("suppkey", BIGINT), ("name", VARCHAR), ("nation", VARCHAR), ("segment", VARCHAR)]
SUPPLIERS = 10_000  # generate_lineitem draws suppkey from [1, 10 000]


def generate_supplier(seed: int) -> list[tuple]:
    rng = np.random.default_rng(seed)
    nations = rng.integers(0, 25, SUPPLIERS)
    segments = rng.integers(0, 5, SUPPLIERS)
    return [
        (key, f"Supplier#{key:05d}", f"nation{int(nations[key - 1]):02d}", f"seg{int(segments[key - 1])}")
        for key in range(1, SUPPLIERS + 1)
    ]


PASSES = 3


@dataclass(frozen=True)
class Size:
    """How big one workload is; ``rate`` turns ``--seconds`` into a count.

    ``rate`` is rounds per pass (storm: queries of the pass's one replay)
    per second of ``--seconds``.  At the default 15 seconds a pass is 50
    rounds of dash_small, 2 of scan_mem, 10 of lake_rw and one replay of
    500 storm queries; at the commit that introduced the benchmark the
    three passes together last 10 to 20 s on the undisturbed machine.
    """

    rows: int
    rate: float
    split_size: int = 0
    # 0: the supplier table sits in a default-split MemoryConnector().
    dim_split_size: int = 0
    trips_rows: int = 0
    events_per_write: int = 0
    warmup_queries: int = 0

    def units(self, seconds: float) -> int:
        return max(1, round(self.rate * seconds))


FULL = {
    "dash_small": Size(rows=250, rate=10 / 3, split_size=31, dim_split_size=31),
    "scan_mem": Size(rows=100_000, rate=2 / 15, split_size=12_500),
    "lake_rw": Size(rows=100_000, rate=2 / 3, trips_rows=10_000, events_per_write=2_000),
    "storm_cluster": Size(rows=250, rate=100 / 3, warmup_queries=100),
}
# Toy sizes for --smoke and the self-test, run with --seconds 1.
SMOKE = {
    "dash_small": Size(rows=250, rate=2.0, split_size=31, dim_split_size=31),
    "scan_mem": Size(rows=2_000, rate=2.0, split_size=250),
    "lake_rw": Size(rows=2_000, rate=5.0, trips_rows=400, events_per_write=400),
    "storm_cluster": Size(rows=120, rate=20.0, warmup_queries=12),
}


def from_rows_ms_per_krow(rows: list[tuple]) -> float:
    """``Page.from_rows`` over LINEITEM rows, in host ms per thousand rows."""
    types = [column_type for _, column_type in LINEITEM_COLUMNS]
    with SpeedProbe() as probe:
        start = time.perf_counter()
        Page.from_rows(types, rows)
        elapsed = time.perf_counter() - start
    return elapsed * 1000.0 / (len(rows) / 1000.0) / probe.slowdown()


@dataclass
class Tally:
    """What one pass did; verified afterwards, outside the timed wall."""

    # The machine's speed while the pass ran.
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    # Reads (storm: queries) that returned, and the host ms the one client
    # spent inside operations, write ops included.
    completed: int = 0
    busy_ms: float = 0.0
    # Host ms of every read as measured, in order; the storm's queries run
    # inside the cluster's event loop and have no host latency of their own.
    reads: list[float] = field(default_factory=list)
    writes: int = 0
    attempted: int = 0
    failed: int = 0
    # (template, rows, committed watermark at read time or None)
    samples: list[tuple] = field(default_factory=list)
    # Per-layer numbers a workload collects beside its operations.
    layer: dict = field(default_factory=dict)
    # Reads behind the traced run's latency percentiles.
    percentile_samples: int = 0

    def queries_per_s(self) -> float:
        """Completed reads per second the closed loop's one client was busy."""
        return self.completed / (self.busy_ms / 1000.0) * self.probe.slowdown()

    def detail(self) -> dict:
        """Counts, and the figures before the machine's speed is divided out."""
        raw = {
            "reads": self.completed,
            "writes": self.writes,
            "slowdown": self.probe.slowdown(),
            "speed_samples": len(self.probe.job_ms),
            "raw_busy_s": self.busy_ms / 1000.0,
            "raw_queries_per_s": self.completed / (self.busy_ms / 1000.0),
        }
        if self.percentile_samples:
            raw["percentile_samples"] = self.percentile_samples
        if self.reads:
            raw["raw_query_p50_ms"] = percentile(self.reads, 50)
            raw["raw_query_p90_ms"] = percentile(self.reads, 90)
        return raw


class Workload:
    """What the four workloads share: one set-up of the system under test."""

    def build(self) -> dict[str, float]:
        """Load the system, then warm it; host times at reference speed.

        Warming is the cold first query plus one untimed round, because
        users keep engines alive and the timed rounds should see filled
        caches.  GC stays enabled, with one collection before each set-up.
        """
        gc.collect()
        with SpeedProbe() as probe:
            start = time.perf_counter()
            self.load()
            loaded = time.perf_counter()
            first_query_ms = self.cold_query()
            self.warm_up()
            end = time.perf_counter()
        # How slow the machine ran during this set-up, for what load() timed.
        self.setup_slowdown = probe.slowdown()
        return {
            "setup.load_s": (loaded - start) / self.setup_slowdown,
            "setup.warmup_s": (end - loaded) / self.setup_slowdown,
            "execution.first_query_ms": first_query_ms / self.setup_slowdown,
        }


class QueryWorkload(Workload):
    """Rounds of SQL templates against engines the workload builds."""

    templates: list[Template] = MIX

    def __init__(self, name: str, seed: int, size: Size, seconds: float) -> None:
        self.name = name
        self.seed = seed
        self.size = size
        self.rounds = size.units(seconds)
        self.targets: dict[str, EngineUnderTest] = {}
        self.oracle = SqliteOracle()

    # -- set-up ------------------------------------------------------------

    def generate(self) -> None:
        self.lineitem = generate_lineitem(self.size.rows, seed=self.seed)
        self.supplier = generate_supplier(self.seed + 1)

    def load(self) -> None:
        """Both tables in memory connectors: ``scan_mem``, and ``dash_small`` below."""
        fact = MemoryConnector(split_size=self.size.split_size)
        fact.create_table("db", "lineitem", LINEITEM_COLUMNS, self.lineitem)
        engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
        engine.register_connector("memory", fact)
        engine.register_connector("dim", self._dim_connector())
        self.targets = {"main": EngineUnderTest(engine)}

    def _dim_connector(self) -> MemoryConnector:
        size = self.size.dim_split_size
        dim = MemoryConnector(split_size=size) if size else MemoryConnector()
        dim.create_table("db", "supplier", SUPPLIER_COLUMNS, self.supplier)
        return dim

    def build_oracle(self) -> None:
        # ``ds`` is the hive partition column of lake_rw; it rides along
        # unused on the memory workloads so one loader serves all three.
        per_partition = -(-len(self.lineitem) // len(DS_PARTITIONS))
        self.oracle.load(
            "lineitem",
            [name for name, _ in LINEITEM_COLUMNS] + ["ds"],
            (row + (DS_PARTITIONS[i // per_partition],) for i, row in enumerate(self.lineitem)),
        )
        self.oracle.load("supplier", [name for name, _ in SUPPLIER_COLUMNS], self.supplier)
        self.oracle.prepare(self.templates)

    def from_rows_ms_per_krow(self) -> float:
        """``Page.from_rows`` over the workload's own fact rows."""
        return from_rows_ms_per_krow(self.lineitem)

    def cold_query(self) -> float:
        """The first query on a fresh engine, before any warm-up."""
        template = self.templates[0]
        ms, _ = execute_plain(self.targets[template.target], template.sql)
        return ms

    def warm_up(self) -> None:
        self.run_round(execute_plain, Tally())

    # -- rounds ------------------------------------------------------------

    def run_round(self, execute: Callable, tally: Tally) -> None:
        for template in self.templates:
            self.read(execute, template, tally)

    def read(self, execute: Callable, template: Template, tally: Tally, watermark=None) -> None:
        tally.attempted += 1
        try:
            ms, rows = execute(self.targets[template.target], template.sql, template.name)
        except PrestoError:
            tally.failed += 1
            return
        tally.completed += 1
        tally.reads.append(ms)
        tally.samples.append((template, rows, watermark))
        tally.busy_ms += ms

    def verify(self, tally: Tally) -> None:
        """Compare every kept result with the oracle; wrong rows count as failed."""
        for template, rows, watermark in tally.samples:
            if watermark is not None:
                self.advance_oracle(watermark)
            tally.failed += not self.oracle.check(template, rows)
        tally.samples.clear()

    def advance_oracle(self, watermark) -> None:
        raise NotImplementedError

    def timed_pass(self) -> Tally:
        """One pass of the end-to-end run: every round plain, tracing off."""
        tally = Tally()
        with tally.probe:
            for _ in range(self.rounds):
                self.run_round(execute_plain, tally)
        self.verify(tally)
        return tally

    # -- the traced run ----------------------------------------------------

    def traced_run(self, ledger: Ledger) -> tuple[Tally, dict[str, float]]:
        """Two passes' worth of rounds: even rounds plain, odd rounds traced.

        Alternating keeps the two sides on the same data, cache state and
        machine noise, so their per-query difference is the tracing
        overhead and nothing else.  The plain half also gives the latency
        percentiles, over every read as measured.
        """
        tally, plain, traced = Tally(), [], []
        with tally.probe:
            for index in range(2 * self.rounds):
                done = len(tally.reads)
                self.run_round(ledger.execute if index % 2 else execute_plain, tally)
                (traced if index % 2 else plain).extend(tally.reads[done:])
        slowdown = tally.probe.slowdown()
        metrics = query_layer_metrics(ledger.records, slowdown)
        metrics["execution.query_p50_ms"] = percentile(plain, 50) / slowdown
        metrics["execution.query_p90_ms"] = percentile(plain, 90) / slowdown
        metrics["trace.overhead_share"] = overhead_share(plain, traced)
        metrics.update(self.layer_metrics(ledger, tally))
        tally.percentile_samples = len(plain)
        self.verify(tally)
        return tally, metrics

    def layer_metrics(self, ledger: Ledger, tally: Tally) -> dict[str, float]:
        """What this workload adds to the per-query layer metrics."""
        return {}


def overhead_share(plain_ms: list[float], traced_ms: list[float]) -> float:
    """Mean traced query wall over mean plain query wall, minus one."""
    return (sum(traced_ms) / len(traced_ms)) / (sum(plain_ms) / len(plain_ms)) - 1.0


class DashSmall(QueryWorkload):
    def generate(self) -> None:
        super().generate()
        # Only the suppliers the 250 fact rows reference, so the join's
        # build side is as small as its probe side.
        referenced = {row[2] for row in self.lineitem}
        self.supplier = [row for row in self.supplier if row[0] in referenced]


class LakeRw(QueryWorkload):
    templates = LAKE_READS
    WRITE_WINDOW_MS = 2_000

    def generate(self) -> None:
        super().generate()
        # load_trips_table generates partition i from seed + i.
        self.trips_seed = self.seed + 2
        self.event_seed = self.seed + 2 + len(TRIP_DATES)
        self.trips_per_date = self.size.trips_rows // len(TRIP_DATES)

    def load(self) -> None:
        metastore, fs = HiveMetastore(), HdfsFileSystem()
        metastore.create_table(
            "tpch", "lineitem", LINEITEM_COLUMNS, partition_keys=[("ds", VARCHAR)]
        )
        types = [column_type for _, column_type in LINEITEM_COLUMNS]
        per_partition = -(-len(self.lineitem) // len(DS_PARTITIONS))
        self.parquet_write_s = self.from_rows_s = 0.0
        for index, ds in enumerate(DS_PARTITIONS):
            start = time.perf_counter()
            page = Page.from_rows(
                types, self.lineitem[index * per_partition : (index + 1) * per_partition]
            )
            shredded = time.perf_counter()
            write_hive_partition(
                metastore, fs, "tpch", "lineitem", [ds], [page], files=2, row_group_size=5_000
            )
            self.from_rows_s += shredded - start
            self.parquet_write_s += time.perf_counter() - shredded
        load_trips_table(
            metastore, fs, TRIP_DATES, rows_per_date=self.trips_per_date,
            database="tpch", table="trips", seed=self.trips_seed,
        )
        file_lists, footers = FileListCache(fs), FileHandleAndFooterCache(fs)
        engine = PrestoEngine(session=Session(catalog="hive", schema="tpch"))
        engine.register_connector(
            "hive",
            HiveConnector(metastore, fs, reader="new", file_list_cache=file_lists, footer_cache=footers),
        )
        engine.register_connector("dim", self._dim_connector())
        fs.namenode.bind_metrics(engine.metrics)

        # Every pass starts from an empty hybrid table and an empty log.
        self.lakehouse = StreamingLakehouse(fields=EVENT_FIELDS, compaction_interval_ms=10_000)
        self.produced = 0
        self.oracle.reset_events()
        hybrid = self.lakehouse.make_engine()
        self.lakehouse.filesystem.namenode.bind_metrics(hybrid.metrics)

        def storage_ms(registry: MetricsRegistry) -> Callable[[], float]:
            return lambda: registry.total("storage_simulated_ms_total")

        self.targets = {
            "main": EngineUnderTest(
                engine,
                counters={
                    "footer_hits": lambda: footers.footer_stats.hits,
                    "footer_misses": lambda: footers.footer_stats.misses,
                    "file_list_hits": lambda: file_lists.stats.hits,
                    "file_list_misses": lambda: file_lists.stats.misses,
                    "storage_sim_ms": storage_ms(engine.metrics),
                },
            ),
            "hybrid": EngineUnderTest(
                hybrid, counters={"storage_sim_ms": storage_ms(hybrid.metrics)}, replay_scans=False
            ),
        }

    def build_oracle(self) -> None:
        # Flattened trips: the nested fields the templates touch, by name.
        trips = [
            (date, base["city_id"], base["status"], fare_usd)
            for index, date in enumerate(TRIP_DATES)
            for base, fare_usd, _ in generate_trips_rows(
                self.trips_per_date, seed=self.trips_seed + index
            )
        ]
        self.oracle.load("trips", ["datestr", "city_id", "status", "fare_usd"], trips)
        super().build_oracle()

    def from_rows_ms_per_krow(self) -> float:
        """As ``load`` shredded the rows, at the set-up's machine speed."""
        return self.from_rows_s * 1000.0 / (len(self.lineitem) / 1000.0) / self.setup_slowdown

    def run_round(self, execute: Callable, tally: Tally) -> None:
        self.write(tally)
        watermark = self.lakehouse.table.committed
        for template in self.templates:
            self.read(execute, template, tally, watermark if template.live else None)

    def write(self, tally: Tally) -> None:
        """One write op: a burst of events, then the pipeline ingests them."""
        lakehouse = self.lakehouse
        events = self.size.events_per_write
        tally.attempted += 1
        committed = lakehouse.table.committed.total()
        start = time.perf_counter()
        try:
            self.produced += produce_events(
                lakehouse, events, seed=self.event_seed,
                events_per_second=events * 1000.0 / self.WRITE_WINDOW_MS,
                start_ms=int(lakehouse.clock.now_ms()), start_id=self.produced,
            )
            produced = time.perf_counter()
            lakehouse.pipeline.run_for(self.WRITE_WINDOW_MS)
        except PrestoError:
            tally.failed += 1
            return
        end = time.perf_counter()
        tally.writes += 1
        tally.layer.setdefault("write_spans", []).append(
            (start, produced, end, lakehouse.table.committed.total() - committed)
        )
        tally.busy_ms += (end - start) * 1000.0

    def advance_oracle(self, watermark) -> None:
        self.oracle.advance_events(self.lakehouse.broker, self.lakehouse.topic, watermark)

    def layer_metrics(self, ledger: Ledger, tally: Tally) -> dict[str, float]:
        spans = tally.layer["write_spans"]
        for start, produced, end, events in spans:
            ledger.span("realtime.produce_events", start, produced, None, events=self.size.events_per_write)
            ledger.span("realtime.pipeline.run_for", produced, end, None, committed=events)
        slowdown = tally.probe.slowdown()
        produce_ms = sum(p - s for s, p, _, _ in spans) * 1000.0 / slowdown
        pipeline_ms = sum(e - p for _, p, e, _ in spans) * 1000.0 / slowdown
        kevents = len(spans) * self.size.events_per_write / 1000.0
        # Over every hybrid read as measured: their work grows with the
        # tail and the lake's file count, and this number should show it.
        hybrid = [r["query_ms"] for r in ledger.records if r["label"].startswith("hybrid_")]
        lakehouse = self.lakehouse
        return {
            "formats.parquet.write_ms_per_krow": self.parquet_write_s * 1000.0
            / (len(self.lineitem) / 1000.0) / self.setup_slowdown,
            "realtime.ingest_events_per_s": sum(events for *_, events in spans)
            / ((produce_ms + pipeline_ms) / 1000.0),
            "realtime.produce_ms_per_kevent": produce_ms / kevents,
            "realtime.pipeline_ms_per_kevent": pipeline_ms / kevents,
            "realtime.hybrid_query_ms": percentile(hybrid, 50) / slowdown,
            "realtime.snapshots_committed": lakehouse.compactor.snapshots_committed,
            "realtime.lake_files": len(lakehouse.lake.current_snapshot().files),
            "realtime.tail_rows": lakehouse.table.tail_row_count(),
        }


class StormCluster(Workload):
    """Host cost of replaying a traffic storm through the cluster simulator."""

    MAX_RUNNING = 8
    USERS = 40

    def __init__(self, name: str, seed: int, size: Size, seconds: float) -> None:
        self.name = name
        self.seed = seed
        self.size = size
        self.queries = size.units(seconds)
        self.oracle = SqliteOracle()
        self.bad_templates: set[str] = set()
        # The simulated report of the process's first replay.
        self.first_report: Optional[dict] = None

    def generate(self) -> None:
        self.storm = build_traffic_storm(queries=self.queries, users=self.USERS, seed=self.seed)
        self.warm_storm = build_traffic_storm(
            queries=self.size.warmup_queries, users=self.USERS, seed=self.seed + 1
        )
        # replay_storm builds its engine with make_storm_engine's default
        # data seed; the storm (arrivals, users, SQL sequence) is what
        # varies with --seed.
        self.lineitem = generate_lineitem(self.size.rows, seed=7)

    def load(self) -> None:
        # The bare engine, built exactly as replay_storm builds its own.
        self.target = EngineUnderTest(
            make_storm_engine(rows=self.size.rows, tracing=False, metrics=MetricsRegistry())
        )

    def build_oracle(self) -> None:
        self.oracle.load("lineitem", [name for name, _ in LINEITEM_COLUMNS], self.lineitem)
        self.oracle.prepare(STORM_TEMPLATES)

    def from_rows_ms_per_krow(self) -> float:
        return from_rows_ms_per_krow(self.lineitem)

    def cold_query(self) -> float:
        ms, _ = execute_plain(self.target, self.storm.queries[0].sql)
        return ms

    def warm_up(self) -> None:
        """Check every template's rows on the bare engine, then a short replay.

        ``replay_storm`` keeps its query handles to itself, so rows are
        checked here, on an engine built the same way over the same data.
        """
        self.bad_templates.clear()
        for template in STORM_TEMPLATES:
            _, rows = execute_plain(self.target, template.sql)
            if not self.oracle.check(template, rows):
                self.bad_templates.add(template.name)
        replay_storm(self.warm_storm, max_running=self.MAX_RUNNING, rows=self.size.rows)

    def timed_pass(self, replays: int = 1) -> Tally:
        """One replay of the storm, the pass's one operation (the traced run: two)."""
        queries = len(self.storm)
        tally = Tally()
        wrong = sum(1 for query in self.storm.queries if query.template in self.bad_templates)
        with tally.probe:
            for _ in range(replays):
                start = time.perf_counter()
                report, cluster = replay_storm(self.storm, max_running=self.MAX_RUNNING, rows=self.size.rows)
                tally.busy_ms += (time.perf_counter() - start) * 1000.0
                tally.attempted += queries
                tally.completed += report["completed"]
                self.first_report = self.first_report or report
                # The same storm must replay to the same simulated report;
                # if it does not, no result of this replay can be trusted.
                same = report == self.first_report
                tally.failed += min(queries, queries - report["completed"] + wrong) if same else queries
        registry = cluster.metrics
        tally.layer = {
            "execution.cluster.tasks_per_query": registry.total("scheduler_tasks_run_total") / queries,
            "execution.cluster.splits_per_query": registry.total("cluster_splits_completed_total") / queries,
            "execution.cluster.queued_share": registry.total("cluster_queries_queued_total") / queries,
            "execution.cluster.max_in_flight": report["max_in_flight"],
            "execution.cluster.sim_goodput_qps": report["goodput_qps"],
            "execution.cluster.sim_latency_p95_ms": report["p95_ms"],
        }
        return tally

    def traced_run(self, ledger: Ledger) -> tuple[Tally, dict[str, float]]:
        """Two plain replays, then the storm's SQL sequence on the bare engine.

        The bare-engine sequence alternates plain and traced queries: the
        plain half prices the engine alone (the base of ``overhead_share``),
        the traced half feeds the per-query layer metrics.
        """
        start = time.perf_counter()
        tally = self.timed_pass(replays=2)
        ledger.span(
            "execution.cluster.replay_storm", start, time.perf_counter(), None,
            queries=len(self.storm), replays=2,
        )
        plain, traced = [], []
        with SpeedProbe() as engine_probe:
            for index, query in enumerate(self.storm.queries):
                if index % 2:
                    ms, _ = ledger.execute(self.target, query.sql, query.template)
                else:
                    ms, _ = execute_plain(self.target, query.sql)
                (traced if index % 2 else plain).append(ms)
        engine_only_ms = sum(plain) / len(plain) / engine_probe.slowdown()
        replay_ms = 1000.0 / tally.queries_per_s()
        metrics = query_layer_metrics(ledger.records, engine_probe.slowdown())
        metrics.update(tally.layer)
        metrics.update(
            {
                "trace.overhead_share": overhead_share(plain, traced),
                "execution.cluster.engine_only_ms_per_query": engine_only_ms,
                "execution.cluster.replay_ms_per_query": replay_ms,
                "execution.cluster.overhead_share": 1.0 - engine_only_ms / replay_ms,
            }
        )
        return tally, metrics


WORKLOADS = {
    "dash_small": DashSmall,
    "scan_mem": QueryWorkload,
    "lake_rw": LakeRw,
    "storm_cluster": StormCluster,
}
