"""Stage fan-out tests.

The exchange buffer partitions lazily — producer pages accumulate in
arrival order and are routed only at the first partitioned read — which
opens the window where the scheduler sizes the consuming stage from the
rows it observed: ``ceil(rows / TARGET_PARTITION_ROWS)`` tasks, at least
one, at most ``hash_partitions``.  A source stage follows the same rule
over the rows its splits report, at most one task per split.  These
tests cover the buffer's laziness contract and the rule's boundaries,
with rows equal to the direct pipeline's.
"""

import pytest

from repro.common.errors import ExecutionError
from repro.core.page import Page
from repro.core.types import BIGINT, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.execution.exchange import ExchangeBuffer
from repro.connectors.spi import ConnectorSplit
from repro.execution.scheduler import TARGET_PARTITION_ROWS, _split_runs
from repro.planner.analyzer import Session
from repro.planner.fragmenter import Exchange, ExchangeKind
from repro.workloads.tpch import LINEITEM_COLUMNS, generate_lineitem

from repro.connectors.memory import MemoryConnector


def page_of(keys):
    return Page.from_rows([BIGINT], [(k,) for k in keys])


def partitioned_buffer(count=None):
    exchange = Exchange(
        kind=ExchangeKind.REPARTITION,
        source_fragment=1,
        partition_keys=("k",),
        partitioned=True,
    )
    buffer = ExchangeBuffer(exchange, key_channels=[0])
    if count is not None:
        buffer.set_partition_count(count)
    return buffer


class TestLazyExchangeBuffer:
    def test_rows_added_counts_before_any_read(self):
        buffer = partitioned_buffer()
        buffer.add(page_of(range(10)))
        buffer.add(page_of(range(7)))
        assert buffer.rows_added == 17

    def test_one_partition_wide_until_told_otherwise(self):
        buffer = partitioned_buffer()
        buffer.add(page_of(range(20)))
        assert buffer.partition_count == 1
        assert sum(p.position_count for p in buffer.pages_for_partition(0)) == 20

    def test_set_partition_count_before_read_routes_accordingly(self):
        buffer = partitioned_buffer(count=4)
        buffer.add(page_of(range(100)))
        buffer.set_partition_count(2)
        rows = [
            page.position_count
            for p in range(2)
            for page in buffer.pages_for_partition(p)
        ]
        assert sum(rows) == 100
        with pytest.raises(IndexError):
            buffer.pages_for_partition(2)

    def test_all_partitions_cover_all_rows(self):
        buffer = partitioned_buffer(count=3)
        buffer.add(page_of(range(50)))
        seen = sorted(
            row[0]
            for p in range(3)
            for page in buffer.pages_for_partition(p)
            for row in page.to_rows()
        )
        assert seen == list(range(50))

    def test_partition_placement_is_deterministic(self):
        a = partitioned_buffer(count=4)
        b = partitioned_buffer(count=4)
        for buf in (a, b):
            buf.add(page_of(range(64)))
        for p in range(4):
            rows_a = [r for page in a.pages_for_partition(p) for r in page.to_rows()]
            rows_b = [r for page in b.pages_for_partition(p) for r in page.to_rows()]
            assert rows_a == rows_b

    def test_all_pages_sees_late_adds(self):
        buffer = partitioned_buffer(count=2)
        buffer.add(page_of(range(10)))
        assert sum(p.position_count for p in buffer.all_pages()) == 10
        buffer.add(page_of(range(5)))
        assert sum(p.position_count for p in buffer.all_pages()) == 15

    def test_non_partitioned_buffer_ignores_count(self):
        buffer = ExchangeBuffer(
            Exchange(kind=ExchangeKind.GATHER, source_fragment=1)
        )
        buffer.add(page_of(range(9)))
        buffer.set_partition_count(5)  # no-op for GATHER
        assert buffer.partition_count == 1
        assert sum(p.position_count for p in buffer.pages_for_partition(0)) == 9

    def test_invalid_partition_count_rejected(self):
        with pytest.raises(ExecutionError):
            partitioned_buffer().set_partition_count(0)


def make_engine(rows=200, **engine_kwargs):
    connector = MemoryConnector(split_size=47)
    connector.create_table("db", "lineitem", LINEITEM_COLUMNS, generate_lineitem(rows))
    connector.create_table(
        "db",
        "dim",
        [("orderkey", BIGINT), ("label", VARCHAR)],
        [(i, f"order-{i}") for i in range(1, 60)],
    )
    engine = PrestoEngine(
        session=Session(catalog="memory", schema="db"), hash_partitions=8, **engine_kwargs
    )
    engine.register_connector("memory", connector)
    return engine


GROUP_BY_SQL = (
    "SELECT d.label, sum(l.quantity) FROM lineitem l "
    "JOIN dim d ON l.orderkey = d.orderkey GROUP BY d.label"
)


def hash_stages(result):
    """(rows observed, tasks run) of every hash stage, in plan order."""
    return [
        (stage["rows_in"], stage["tasks"])
        for stage in result.stats.stage_summaries
        if stage["distribution"] == "hash"
    ]


def distinct_keys_engine(rows, hash_partitions):
    """GROUP BY a unique key: the hash stage observes exactly ``rows`` rows."""
    connector = MemoryConnector()
    connector.create_table("db", "t", [("k", BIGINT)], [(i,) for i in range(rows)])
    engine = PrestoEngine(
        session=Session(catalog="memory", schema="db"), hash_partitions=hash_partitions
    )
    engine.register_connector("memory", connector)
    return engine


class TestAdaptivePartitioning:
    CAP = 2

    @pytest.mark.parametrize(
        "rows, tasks",
        [
            (0, 1),
            (1, 1),
            (TARGET_PARTITION_ROWS, 1),
            (TARGET_PARTITION_ROWS + 1, 2),
            (CAP * TARGET_PARTITION_ROWS + 1, CAP),
        ],
    )
    def test_width_from_rows(self, rows, tasks):
        engine = distinct_keys_engine(rows, hash_partitions=self.CAP)
        sql = "SELECT k, count(*) FROM t GROUP BY k"
        staged = engine.execute(sql)
        assert hash_stages(staged) == [(rows, tasks)]
        assert sorted(staged.rows) == sorted(engine.execute_direct(sql).rows)

    def test_small_volume_runs_fewer_tasks(self):
        engine = make_engine()
        result = engine.execute(GROUP_BY_SQL)
        assert [tasks for _, tasks in hash_stages(result)] == [1]
        assert 1 < engine.hash_partitions

    def test_join_inside_a_hash_stage_shares_the_stage_width(self):
        # The probe side is a hash stage (a grouped subquery); the join's
        # build side is read whole by each of its tasks, so every key meets
        # its match whatever width the partitioned input chose.
        rows = TARGET_PARTITION_ROWS + 1
        engine = distinct_keys_engine(rows, hash_partitions=4)
        engine.catalog.connector("memory").create_table(
            "db", "dim", [("k", BIGINT), ("label", VARCHAR)], [(7, "seven"), (rows, "none")]
        )
        sql = (
            "SELECT g.k, g.n, d.label FROM "
            "(SELECT k, count(*) AS n FROM t GROUP BY k) g JOIN dim d ON g.k = d.k"
        )
        staged = engine.execute(sql)
        assert [tasks for _, tasks in hash_stages(staged)] == [2]
        assert staged.rows == engine.execute_direct(sql).rows == [(7, 1, "seven")]

    def test_agrees_with_direct_oracle(self):
        engine = make_engine()
        staged = engine.execute(GROUP_BY_SQL)
        direct = engine.execute_direct(GROUP_BY_SQL)
        assert sorted(staged.rows) == sorted(direct.rows)

    def test_deterministic_across_runs(self):
        runs = [make_engine().execute(GROUP_BY_SQL) for _ in range(2)]
        assert runs[0].rows == runs[1].rows
        a, b = (r.stats.as_dict() for r in runs)
        a.pop("query_id"), b.pop("query_id")
        assert a == b


def split_rows(*rows):
    return [ConnectorSplit(f"s{i}", rows=count) for i, count in enumerate(rows)]


class TestSourceStageRuns:
    """The same rule sizes a source stage by the rows its splits hold."""

    @pytest.mark.parametrize(
        "rows, widths",
        [
            ((5, 5, 5, 5, 4), [5]),  # every split in one task
            ((TARGET_PARTITION_ROWS - 1, 1), [2]),
            ((TARGET_PARTITION_ROWS, 1), [1, 1]),
            ((TARGET_PARTITION_ROWS,) * 3, [1, 1, 1]),
            ((1, 1, 2 * TARGET_PARTITION_ROWS, 1), [2, 1, 1]),  # balanced by rows
            ((3 * TARGET_PARTITION_ROWS, 0, 0), [1, 1, 1]),  # at most one task per split
            ((0, 0), [2]),
        ],
    )
    def test_contiguous_runs_balanced_by_rows(self, rows, widths):
        splits = split_rows(*rows)
        runs = _split_runs(splits)
        assert [len(run) for run in runs] == widths
        assert [split for run in runs for split in run] == splits

    def test_a_split_that_cannot_count_keeps_one_task_per_split(self):
        splits = split_rows(1, 2) + [ConnectorSplit("unknown")]
        assert _split_runs(splits) == [[split] for split in splits]
