"""What the scan's page coalescing must not change.

The scan joins a task's small split pages into one page before any
operator sees them.  These tests pin what stays as it was: every split it
reads leaves a span, a LIMIT still reads split by split, the rows and
their order are the connector's, lazy blocks stay unloaded, and the
operators above run once per task rather than once per split.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.connectors.memory import MemoryConnector
from repro.connectors.spi import ConnectorSplit
from repro.core.blocks import DictionaryBlock, LazyBlock
from repro.core.evaluator import Evaluator
from repro.core.page import concat_pages
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution import driver, kernels
from repro.execution.context import ExecutionContext
from repro.execution.engine import PrestoEngine
from repro.execution.operators.scan import execute_table_scan
from repro.planner.analyzer import Session
from repro.planner.plan import TableScanNode
from repro.realtime import StreamingLakehouse
from repro.workloads.traffic_storm import make_storm_engine
from tests.connectors.test_hive_connector import make_environment


def _split_spans(result):
    return len(result.trace.find("split"))


class TestSplitSpansMatchStats:
    def test_every_split_read_leaves_one_span(self):
        engine = make_storm_engine()
        for sql in [
            "SELECT orderkey FROM lineitem LIMIT 5",
            "SELECT orderkey FROM lineitem WHERE quantity < 5 LIMIT 5",
            "SELECT orderkey FROM lineitem LIMIT 40",
            "SELECT count(*) FROM lineitem",
            "SELECT count(*) FROM lineitem a JOIN lineitem b ON a.orderkey = b.orderkey",
        ]:
            result = engine.execute(sql)
            assert result.stats.splits_scanned > 0, sql
            assert _split_spans(result) == result.stats.splits_scanned, sql

    def test_hybrid_read(self):
        lakehouse = StreamingLakehouse(
            fields=[("order_id", BIGINT), ("city", VARCHAR), ("amount", DOUBLE)],
            poll_interval_ms=150,
            compaction_interval_ms=900,
        )
        lakehouse.produce(
            [(i, f"c{i % 4}", i / 7) for i in range(200)],
            timestamps_ms=[i * 4 for i in range(200)],
        )
        lakehouse.pipeline.run_for(2000)
        lakehouse.produce(
            [(i, f"c{i % 4}", i / 7) for i in range(200, 240)],
            timestamps_ms=[2100 + i for i in range(200, 240)],
        )
        lakehouse.pipeline.run_for(300)
        assert lakehouse.table.tail_row_count() > 0
        engine = lakehouse.make_engine()
        for sql in [
            f'SELECT count(*), sum(amount) FROM "{lakehouse.topic}"',
            f'SELECT order_id FROM "{lakehouse.topic}" LIMIT 3',
        ]:
            result = engine.execute(sql)
            assert _split_spans(result) == result.stats.splits_scanned, sql


class TestLimitStreams:
    def test_limit_reads_only_the_splits_it_needs(self):
        engine = make_storm_engine(split_size=31)
        result = engine.execute("SELECT orderkey FROM lineitem LIMIT 5")
        assert len(result.rows) == 5
        assert result.stats.splits_scanned == 1
        assert result.stats.rows_scanned == 31

    def test_limit_over_a_join_probe_streams(self):
        engine = make_storm_engine(split_size=31)
        result = engine.execute(
            "SELECT a.orderkey FROM lineitem a JOIN lineitem b "
            "ON a.orderkey = b.orderkey AND a.linenumber = b.linenumber LIMIT 5"
        )
        assert len(result.rows) == 5
        # The whole build side (9 splits) and one probe split.
        assert result.stats.splits_scanned == 10

    def test_limit_zero_reads_nothing(self):
        engine = make_storm_engine(split_size=31)
        result = engine.execute("SELECT orderkey FROM lineitem LIMIT 0")
        assert result.rows == []
        assert result.stats.splits_scanned == 0


class TestOperatorsRunPerTask:
    def test_filter_runs_once_per_source_task(self):
        for split_size in (1, 31, 250):
            engine = make_storm_engine(rows=250, split_size=split_size)
            calls = []
            original = Evaluator.filter_mask

            def counted(self, *args, **kwargs):
                calls.append(1)
                return original(self, *args, **kwargs)

            with mock.patch.object(Evaluator, "filter_mask", counted):
                result = engine.execute(
                    "SELECT count(*) FROM lineitem WHERE quantity < 24"
                )
            source_tasks = [r for r in result.stats.task_records if r["splits"]]
            assert result.stats.splits_scanned == -(-250 // split_size)
            assert len(calls) == len(source_tasks), split_size


class _EmptySplitConnector(MemoryConnector):
    """A memory connector that lists one extra, empty split at ``at``."""

    def __init__(self, split_size, at):
        super().__init__(split_size=split_size)
        self.at = at

    def get_splits(self, handle):
        splits = super().get_splits(handle)
        index = min(self.at, len(splits))
        start = splits[index - 1].info_dict()["end"] if index else 0
        empty = ConnectorSplit(
            split_id=f"empty:{start}",
            rows=0,
            info=(("start", start), ("end", start), ("data_version", 0)),
        )
        return splits[:index] + [empty] + splits[index:]


TYPES = [BIGINT, VARCHAR]


@st.composite
def tables(draw):
    count = draw(st.integers(min_value=0, max_value=90))
    # Few distinct strings give dictionary splits, many give flat ones.
    strings = draw(
        st.sampled_from([["a", "b"], [f"s{i}" for i in range(200)]])
    )
    rows = [
        (
            draw(st.one_of(st.none(), st.integers(-5, 5))),
            draw(st.one_of(st.none(), st.sampled_from(strings))),
        )
        for _ in range(count)
    ]
    return rows


class TestCoalescedPagesKeepRowsAndOrder:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=tables(),
        split_size=st.sampled_from([1, 3, 31, 4096]),
        empty_at=st.integers(min_value=0, max_value=100),
        target=st.sampled_from([4, 64, kernels.TARGET_PARTITION_ROWS]),
    )
    def test_scan_pages_are_the_split_pages_end_to_end(
        self, rows, split_size, empty_at, target
    ):
        connector = _EmptySplitConnector(split_size, empty_at)
        connector.create_table("db", "t", [("k", BIGINT), ("s", VARCHAR)], rows)
        engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
        engine.register_connector("memory", connector)
        scan = next(
            n for n in engine.plan("SELECT k, s FROM t").walk()
            if isinstance(n, TableScanNode)
        )
        columns = [column for _, column in scan.assignments]
        source = [
            page
            for split in connector.get_splits(scan.handle)
            for page in connector.pages(scan.handle, split, columns)
        ]
        with mock.patch.object(kernels, "TARGET_PARTITION_ROWS", target):
            ctx = ExecutionContext(catalog=engine.catalog)
            scanned = list(execute_table_scan(scan, ctx))
        assert ctx.stats.pages_produced == len(source)
        assert concat_pages(TYPES, scanned).to_rows() == rows
        assert concat_pages(TYPES, source).to_rows() == rows
        largest_source = max(page.position_count for page in source)
        for page in scanned:
            assert page.position_count <= max(target, largest_source)
        if all(isinstance(page.block(1), DictionaryBlock) for page in source):
            assert all(isinstance(page.block(1), DictionaryBlock) for page in scanned)


class TestLazyBlocksStayUnloaded:
    def test_filtered_parquet_scan_hands_over_unloaded_lazy_blocks(self):
        engine, *_ = make_environment(reader="new")
        arrived = []
        execute_project = driver.execute_project

        def recording(node, ctx, source):
            def pages():
                for page in source:
                    arrived.append(
                        [
                            block.is_loaded
                            for block in page.blocks
                            if isinstance(block, LazyBlock)
                        ]
                    )
                    yield page

            return execute_project(node, ctx, pages())

        with mock.patch.object(driver, "execute_project", recording):
            result = engine.execute(
                "SELECT base.driver_uuid FROM trips WHERE base.city_id = 12"
            )
        assert len(result.rows) == 10
        assert result.stats.splits_scanned > 1
        # The reader's lazy columns reach the project still unloaded.
        lazy = [loaded for page in arrived for loaded in page]
        assert len(lazy) > 1 and not any(lazy)


class TestPageRuns:
    def test_runs_are_greedy_and_alone_pages_cut_them(self):
        class P:
            def __init__(self, n, lazy=False):
                self.position_count, self.lazy = n, lazy

        pages = [P(3), P(4), P(2, lazy=True), P(1), P(9), P(20), P(1)]
        with mock.patch.object(kernels, "TARGET_PARTITION_ROWS", 10):
            plain = [
                [p.position_count for p in run] for run in kernels.page_runs(pages)
            ]
            cut = [
                [p.position_count for p in run]
                for run in kernels.page_runs(pages, alone=lambda p: p.lazy)
            ]
            regrouped = [
                [p.position_count for r in run for p in r]
                for run in kernels.page_runs(
                    [_Run(r) for r in kernels.page_runs(pages, alone=lambda p: p.lazy)]
                )
            ]
        assert plain == [[3, 4, 2, 1], [9], [20], [1]]
        assert cut == [[3, 4], [2], [1], [9], [20], [1]]
        assert regrouped == plain


class _Run:
    """A run of pages standing in for the one page the scan makes of it."""

    def __init__(self, pages):
        self.pages = pages
        self.position_count = sum(p.position_count for p in pages)

    def __iter__(self):
        return iter(self.pages)
