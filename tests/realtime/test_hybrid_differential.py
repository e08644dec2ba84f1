"""Differential oracle: hybrid queries vs batch replay of the full log.

Every read surface of the streaming lakehouse — hybrid scans, pinned
time travel, materialized views answering an aggregation — must return exactly what a
batch engine returns over the *fully replayed* Kafka log cut at the same
watermark (``execute_direct`` over a memory table: the repo's standing
oracle).  And it must keep doing so under 10% task/split fault rates,
after seeded pipeline crash schedules, and with queries running through
the concurrent cluster event loop while ingestion and compaction keep
stepping underneath them.
"""

import pytest

from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.cluster import PrestoClusterSim
from repro.execution.faults import FaultInjector
from repro.planner.optimizer import Optimizer
from repro.realtime import (
    StreamingLakehouse,
    ViewAggregate,
    Watermark,
    watermark_table_name,
)
from tests.reference.lakehouse import oracle_engine
from tests.reference.pipeline import execute_direct

FIELDS = [("order_id", BIGINT), ("city", VARCHAR), ("amount", DOUBLE)]

# Each template is formatted with the table name to query; the oracle
# runs the same template against the replayed log.
TEMPLATES = [
    'SELECT order_id, city, amount FROM "{table}" ORDER BY order_id',
    'SELECT city, count(*), sum(amount) FROM "{table}" GROUP BY city ORDER BY city',
    'SELECT count(*) FROM "{table}" WHERE amount > 5.0',
    'SELECT order_id, amount FROM "{table}" WHERE city = \'c1\' ORDER BY order_id',
    'SELECT max(_offset), count(*) FROM "{table}" WHERE _partition_id = 0',
]


def normalize(row):
    # Partial aggregates merge in a different order than the oracle's
    # sequential fold; compare floats at 10 significant digits (the
    # differential suites' standing convention).
    return tuple(
        float(f"{value:.10g}") if isinstance(value, float) else value for value in row
    )


def normalized(rows):
    return [normalize(row) for row in rows]


def build_lakehouse(fault_injector=None, produce=320):
    lh = StreamingLakehouse(
        fields=FIELDS,
        poll_interval_ms=150,
        compaction_interval_ms=900,
        fault_injector=fault_injector,
    )
    lh.produce(
        [(i, f"c{i % 4}", i / 7) for i in range(produce)],
        timestamps_ms=[i * 4 for i in range(produce)],
    )
    lh.pipeline.run_for(2000)
    # A second wave that stays (at least partly) in the tail.
    wave = range(produce, produce + 60)
    lh.produce(
        [(i, f"c{i % 4}", i / 7) for i in wave], timestamps_ms=[2100 + i for i in wave]
    )
    lh.pipeline.run_for(300)
    return lh


def assert_matches_oracle(lh, engine, watermark, table_name):
    oracle = oracle_engine(lh.broker, lh.topic, watermark)
    for template in TEMPLATES:
        hybrid = engine.execute(template.format(table=table_name))
        expected = execute_direct(oracle, template.format(table=lh.topic))
        assert normalized(hybrid.rows) == normalized(expected.rows), template


class TestHybridScan:
    def test_fresh_scan_matches_oracle(self):
        lh = build_lakehouse()
        assert lh.table.tail_row_count() > 0, "tail empty; hybrid path untested"
        assert lh.table.sealed_watermark().total() > 0, "lake empty"
        assert_matches_oracle(lh, lh.make_engine(), lh.table.committed, lh.topic)

    def test_pinned_scan_matches_oracle(self):
        lh = build_lakehouse()
        pinned = watermark_table_name(lh.topic, lh.table.committed)
        assert_matches_oracle(lh, lh.make_engine(), lh.table.committed, pinned)


class TestTimeTravel:
    def test_read_at_sealed_watermark(self):
        lh = build_lakehouse()
        sealed = lh.table.sealed_watermark()
        name = watermark_table_name(lh.topic, sealed)
        assert_matches_oracle(lh, lh.make_engine(), sealed, name)

    def test_read_below_sealed_uses_lake_cut(self):
        lh = build_lakehouse()
        sealed = lh.table.sealed_watermark()
        halfway = Watermark.of(*(offset // 2 for offset in sealed.offsets))
        assert sealed.dominates(halfway) and halfway != sealed
        name = watermark_table_name(lh.topic, halfway)
        assert_matches_oracle(lh, lh.make_engine(), halfway, name)

    def test_future_watermark_rejected(self):
        lh = build_lakehouse()
        future = lh.table.committed.with_offset(
            0, lh.table.committed.offset(0) + 10
        )
        engine = lh.make_engine()
        with pytest.raises(Exception, match="future watermark"):
            engine.execute(
                f'SELECT * FROM "{watermark_table_name(lh.topic, future)}"'
            )


def explain(engine, sql):
    return "\n".join(row[0] for row in engine.execute("EXPLAIN " + sql).rows)


def city_stats_lakehouse():
    """``build_lakehouse`` plus a ``count(*)``/``sum(amount)`` view by city."""
    lh = build_lakehouse()
    view = lh.create_materialized_view(
        "city_stats",
        ["city"],
        [
            ViewAggregate("count", None, "n"),
            ViewAggregate("sum", "amount", "total"),
        ],
    )
    view.refresh()
    return lh, view


# The query city_stats answers, when nothing stops it.
CITY_STATS_SQL = (
    'SELECT city, count(*), sum(amount) FROM "{table}" GROUP BY city ORDER BY city'
)


class TestMaterializedViews:
    """A view is the hybrid connector's answer to aggregation pushdown."""

    def test_substituted_view_matches_oracle(self):
        lh, view = city_stats_lakehouse()
        engine = lh.make_engine()
        sql = 'SELECT city, count(*), sum(amount) FROM "{table}" GROUP BY city ORDER BY city'
        plan = explain(engine, sql.format(table=lh.topic))
        assert "city_stats" in plan, f"view not substituted:\n{plan}"
        # The engine keeps the FINAL merge directly above the view's rows.
        lines = [line.strip() for line in plan.splitlines()]
        final = next(i for i, line in enumerate(lines) if line.startswith("Aggregation["))
        assert lines[final].startswith("Aggregation[FINAL]"), plan
        assert lines[final + 1] == "TableScan[hybrid.rt.city_stats](city, n, total)", plan
        oracle = oracle_engine(lh.broker, lh.topic, view.watermark)
        assert normalized(engine.execute(sql.format(table=lh.topic)).rows) == normalized(
            execute_direct(oracle, sql.format(table=lh.topic)).rows
        )

    def test_empty_view_answers_global_aggregate(self):
        # No group keys over an empty table: one row, like any aggregate
        # without GROUP BY, not the view's zero rows.
        lh = StreamingLakehouse(fields=FIELDS)
        view = lh.create_materialized_view(
            "totals",
            [],
            [
                ViewAggregate("count", None, "n"),
                ViewAggregate("sum", "amount", "total"),
            ],
        )
        view.refresh()
        engine = lh.make_engine()
        sql = f'SELECT count(*), sum(amount) FROM "{lh.topic}"'
        assert "TableScan[hybrid.rt.totals]" in explain(engine, sql)
        assert engine.execute(sql).rows == [(0, None)]
        oracle = oracle_engine(lh.broker, lh.topic, view.watermark)
        assert execute_direct(oracle, sql).rows == [(0, None)]

    @pytest.mark.parametrize(
        "sql, pinned, pushdown",
        [
            (  # a pushed WHERE: the view folds the whole table
                CITY_STATS_SQL.replace("GROUP BY", "WHERE amount > 5.0 GROUP BY"),
                False,
                True,
            ),
            (  # count(amount) is not the view's count(*)
                CITY_STATS_SQL.replace("count(*)", "count(amount)"),
                False,
                True,
            ),
            (  # avg is not mergeable, so it is never offered
                CITY_STATS_SQL.replace("count(*), sum(amount)", "avg(amount)"),
                False,
                True,
            ),
            # The view was refreshed past the pinned read watermark.
            (CITY_STATS_SQL, True, True),
            # Figure 16's ablation: no aggregation pushdown, no view.
            (CITY_STATS_SQL, False, False),
        ],
        ids=["where", "count-column", "avg", "past-pin", "no-pushdown"],
    )
    def test_declined_view_matches_oracle(self, sql, pinned, pushdown):
        lh, view = city_stats_lakehouse()
        watermark = lh.table.sealed_watermark() if pinned else view.watermark
        assert not pinned or watermark != view.watermark
        table = watermark_table_name(lh.topic, watermark) if pinned else lh.topic
        engine = lh.make_engine()
        engine._optimizer = Optimizer(engine.catalog, pushdown=pushdown)
        plan = explain(engine, sql.format(table=table))
        assert "city_stats" not in plan, plan
        assert f"TableScan[hybrid.rt.{table}]" in plan, plan
        oracle = oracle_engine(lh.broker, lh.topic, watermark)
        assert normalized(engine.execute(sql.format(table=table)).rows) == normalized(
            execute_direct(oracle, sql.format(table=lh.topic)).rows
        )

    @pytest.mark.parametrize("refreshes", [1, 2], ids=["one-refresh", "two-refreshes"])
    def test_view_answers_nan_as_the_scan_does(self, refreshes):
        # A NaN after a number in a group: min, max and sum are NaN, in
        # the view's answer as in a scan of the table.
        lh = StreamingLakehouse(fields=FIELDS)
        view = lh.create_materialized_view(
            "nan_stats",
            ["city"],
            [
                ViewAggregate("count", None, "n"),
                ViewAggregate("sum", "amount", "total"),
                ViewAggregate("min", "amount", "low"),
                ViewAggregate("max", "amount", "high"),
            ],
        )
        for i, row in enumerate([(0, "sf", 1.0), (1, "sf", float("nan")), (2, "la", 2.0)]):
            lh.produce([row], partition=0, timestamps_ms=[i])
            if refreshes == 2:
                lh.pipeline.run_for(200)
                view.refresh()
        lh.pipeline.run_for(200)
        view.refresh()
        sql = (
            f'SELECT city, count(*), sum(amount), min(amount), max(amount) '
            f'FROM "{lh.topic}" GROUP BY city'
        )
        engine = lh.make_engine()
        assert "TableScan[hybrid.rt.nan_stats]" in explain(engine, sql)
        answered = engine.execute(sql).rows
        engine._optimizer = Optimizer(engine.catalog, pushdown=False)
        assert "nan_stats" not in explain(engine, sql)
        scanned = engine.execute(sql).rows
        assert sorted(map(repr, answered)) == sorted(map(repr, scanned))
        assert sorted(map(repr, answered)) == [
            "('la', 1, 2.0, 2.0, 2.0)", "('sf', 2, nan, nan, nan)"
        ]

    def test_incremental_refresh_spans_compactions(self):
        # Refresh deltas straddle seal boundaries: fold some rows from the
        # tail, compact them into the lake, fold the next delta, repeat.
        lh = StreamingLakehouse(
            fields=FIELDS, poll_interval_ms=150, compaction_interval_ms=900
        )
        view = lh.create_materialized_view(
            "city_stats", ["city"], [ViewAggregate("count", None, "n")]
        )
        for wave in range(4):
            ids = range(wave * 50, (wave + 1) * 50)
            lh.produce(
                [(i, f"c{i % 4}", i / 7) for i in ids], timestamps_ms=[i * 4 for i in ids]
            )
            lh.pipeline.run_for(700 if wave % 2 == 0 else 1100)
            view.refresh()
        sql = 'SELECT city, count(*) FROM "{table}" GROUP BY city ORDER BY city'
        oracle = oracle_engine(lh.broker, lh.topic, view.watermark)
        expected = execute_direct(oracle, sql.format(table=lh.topic)).rows
        pinned = watermark_table_name(lh.topic, view.watermark)
        engine = lh.make_engine()
        plan = "\n".join(
            r[0] for r in engine.execute("EXPLAIN " + sql.format(table=pinned)).rows
        )
        assert "city_stats" in plan
        assert normalized(engine.execute(sql.format(table=pinned)).rows) == normalized(
            expected
        )


class TestUnderEngineFaults:
    def test_scan_matches_oracle_at_ten_percent_fault_rates(self):
        lh = build_lakehouse()
        # One source task reads all four splits; a split rate of
        # 1 - 0.9 ** (1 / 4) fails 10 % of its attempts, as the task rate does.
        injector = FaultInjector(
            seed=11, task_failure_rate=0.1, split_failure_rate=1 - 0.9 ** (1 / 4)
        )
        engine = lh.make_engine(fault_injector=injector)
        pinned = watermark_table_name(lh.topic, lh.table.committed)
        oracle = oracle_engine(lh.broker, lh.topic, lh.table.committed)
        retried = 0
        for template in TEMPLATES:
            result = engine.execute(template.format(table=pinned))
            retried += result.stats.tasks_retried
            assert normalized(result.rows) == normalized(
                execute_direct(oracle, template.format(table=lh.topic)).rows
            ), template
        assert retried > 0, "no retries happened; fault test is vacuous"

    def test_scan_matches_oracle_after_pipeline_crash_schedule(self):
        injector = FaultInjector(seed=3, pipeline_failure_rate=0.3)
        lh = build_lakehouse(fault_injector=injector)
        assert lh.pipeline.crashes > 0, "no crashes injected; test is vacuous"
        assert_matches_oracle(lh, lh.make_engine(), lh.table.committed, lh.topic)


class TestConcurrentWithLivePipeline:
    def test_pinned_queries_stable_while_pipeline_advances(self):
        """Queries run through the cluster loop *while* the pipeline steps.

        Tail splits pin their rows at split-generation time, so even with
        compaction sealing and pruning the very segments a query reads,
        every pinned-watermark query returns exactly the oracle's answer
        at its watermark.
        """
        lh = build_lakehouse()
        watermark = lh.table.committed
        pinned = watermark_table_name(lh.topic, watermark)
        engine = lh.make_engine()
        cluster = PrestoClusterSim(workers=4, slots_per_worker=2, clock=lh.clock)

        # Keep producing so the pipeline has real work mid-flight.
        ids = range(1000, 1120)
        lh.produce(
            [(i, f"c{i % 4}", i / 7) for i in ids], timestamps_ms=[4000 + i for i in ids]
        )

        deadline = lh.clock.now_ms() + 3000

        def drive_pipeline():
            due = lh.pipeline.next_due_ms()
            if due > deadline:
                return
            def fire():
                lh.pipeline.step()
                drive_pipeline()
            cluster.call_at(due, fire)

        drive_pipeline()
        handles = []
        for template in TEMPLATES:
            handles.append(engine.submit(template.format(table=pinned)))
            cluster.submit_handle(handles[-1])
        sealed_before = lh.table.sealed_watermark()
        cluster.run_until_idle()

        assert cluster.max_concurrent_running() > 1, "nothing overlapped"
        assert lh.table.committed.total() > watermark.total(), (
            "pipeline did not advance during the queries"
        )
        assert lh.table.sealed_watermark() != sealed_before or (
            lh.compactor.snapshots_committed > 0
        )
        oracle = oracle_engine(lh.broker, lh.topic, watermark)
        for handle, template in zip(handles, TEMPLATES):
            assert normalized(handle.result().rows) == normalized(
                execute_direct(oracle, template.format(table=lh.topic)).rows
            ), template
