"""The memory connector's columnar store.

A (split, column) pair becomes blocks on the first scan that reads it and
stays blocks: later scans hand out the same objects, ``insert`` rebuilds
only the split it grows, and the pages equal what ``project_rows`` builds
from the row tuples, row for row.  A dropped engine frees its memory
connector by reference counting, and so does every other connector.
"""

import contextlib
import gc
import sys
import weakref
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectors import memory
from repro.connectors.kafka import KafkaBroker, KafkaConnector
from repro.connectors.memory import MemoryConnector
from repro.connectors.mysql import MySqlConnector, MySqlServer
from repro.connectors.olap import DruidCluster, DruidConnector, PinotCluster, PinotConnector
from repro.connectors.spi import ConnectorSplit, ConnectorTableHandle, project_rows
from repro.core.blocks import DictionaryBlock, VarcharBlock, block_from_values
from repro.core.types import BIGINT, DOUBLE, VARCHAR, ArrayType, MapType, RowType
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from repro.realtime import StreamingLakehouse
from tests.connectors.test_pushdown_differential import (
    COLUMNS,
    HALVES,
    ROWS,
    _elasticsearch_connector,
    _hive_connector,
    _iceberg_connector,
    _store_connector,
)

HANDLE = ConnectorTableHandle("db", "t")


def scan(connector, columns, handle=HANDLE):
    """Every split's pages, in split order."""
    provider = connector.record_set_provider()
    return [
        list(provider.pages(handle, split, columns))
        for split in connector.split_manager().get_splits(handle)
    ]


def stored_keys(connector, table="t"):
    return set(connector._tables[("db", table)].blocks)


def make_connector(rows, split_size=4):
    connector = MemoryConnector(split_size=split_size)
    connector.create_table("db", "t", [("k", BIGINT), ("s", VARCHAR)], rows)
    return connector


class TestBuiltOnce:
    def test_second_scan_returns_the_identical_blocks(self):
        connector = make_connector([(i, f"v{i % 3}") for i in range(10)])
        first, second = scan(connector, ["k", "s"]), scan(connector, ["s", "k"])
        for split_first, split_second in zip(first, second):
            for page_first, page_second in zip(split_first, split_second):
                assert page_first.block(0) is page_second.block(1)
                assert page_first.block(1) is page_second.block(0)

    def test_a_column_no_query_reads_is_never_built(self):
        connector = make_connector([(i, f"v{i}") for i in range(10)])
        scan(connector, ["k"])
        assert {channel for _, _, channel in stored_keys(connector)} == {0}

    def test_low_cardinality_varchar_is_one_dictionary_per_split(self):
        connector = make_connector([(i, None if i == 5 else "ab"[i % 2]) for i in range(8)])
        for pages in scan(connector, ["s"]):
            (page,) = pages
            block = page.block(0)
            assert isinstance(block, DictionaryBlock)
            assert isinstance(block.dictionary, VarcharBlock)
            # NULL is an id, never a dictionary entry.
            assert block.dictionary.nulls is None
        assert [p.block(0).to_list() for s in scan(connector, ["s"]) for p in s] == [
            ["a", "b", "a", "b"],
            ["a", None, "a", "b"],
        ]

    def test_pages_of_a_split_share_its_dictionary(self):
        with mock.patch.object(memory, "PAGE_SIZE", 3):
            connector = make_connector([(i, "xy"[i % 2]) for i in range(40)], split_size=40)
            (pages,) = scan(connector, ["s"])
        assert [p.position_count for p in pages] == [3] * 13 + [1]
        assert len({id(p.block(0).dictionary) for p in pages}) == 1

    def test_high_cardinality_varchar_is_stored_flat(self):
        # 40 distinct values in a 40-row split: more than max(16, 40 / 2).
        connector = make_connector([(i, f"v{i}") for i in range(40)], split_size=40)
        blocks = [p.block(0) for pages in scan(connector, ["s"]) for p in pages]
        assert all(isinstance(b, VarcharBlock) for b in blocks)


class TestInsert:
    def test_insert_keeps_unchanged_splits_and_rebuilds_the_grown_one(self):
        connector = make_connector([(i, f"v{i}") for i in range(10)])
        before = scan(connector, ["k", "s"])
        connector.insert("db", "t", [(10, "v10")])
        after = scan(connector, ["k", "s"])
        for split in (0, 1):
            assert after[split][0].blocks[0] is before[split][0].blocks[0]
            assert after[split][0].blocks[1] is before[split][0].blocks[1]
        assert after[2][0].blocks[0] is not before[2][0].blocks[0]
        assert after[2][0].to_rows() == [(8, "v8"), (9, "v9"), (10, "v10")]
        assert {(s, e) for s, e, _ in stored_keys(connector)} == {(0, 4), (4, 8), (8, 11)}

    def test_insert_after_a_full_last_split_keeps_every_block(self):
        connector = make_connector([(i, f"v{i}") for i in range(8)])
        before = scan(connector, ["k"])
        connector.insert("db", "t", [(8, "v8")])
        after = scan(connector, ["k"])
        assert [a[0].blocks[0] for a in after[:2]] == [b[0].blocks[0] for b in before]
        assert after[2][0].to_rows() == [(8,)]

    def test_create_table_drops_the_blocks(self):
        connector = make_connector([(i, f"v{i}") for i in range(4)])
        scan(connector, ["k"])
        connector.create_table("db", "t", [("k", BIGINT), ("s", VARCHAR)], [(7, "x")] * 4)
        assert stored_keys(connector) == set()
        assert scan(connector, ["k"])[0][0].to_rows() == [(7,)] * 4


class TestNoPerScanBuild:
    """A repeat scan of a split calls no block builder at all."""

    BUILDERS = {block_from_values.__code__, project_rows.__code__}

    def _builder_calls(self, fn) -> Counter:
        calls: Counter = Counter()

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code in self.BUILDERS:
                calls[frame.f_code.co_name] += 1

        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return calls

    def test_repeat_scan_builds_nothing(self):
        rows = [(i, f"v{i % 5}" if i % 7 else f"w{i}") for i in range(12)]
        connector = make_connector(rows)
        first = self._builder_calls(lambda: scan(connector, ["k", "s"]))
        assert first["block_from_values"] > 0  # the counter sees the first build
        assert first["project_rows"] == 0
        assert self._builder_calls(lambda: scan(connector, ["k", "s"])) == Counter()


# -- stored pages equal project_rows' pages ---------------------------------

ROW = RowType.of(("x", BIGINT), ("y", VARCHAR))
ARRAY = ArrayType(VARCHAR)
MAP = MapType(VARCHAR, BIGINT)
LAYOUT = [
    ("i", BIGINT), ("d", DOUBLE), ("s", VARCHAR), ("o", VARCHAR), ("r", ROW), ("a", ARRAY), ("m", MAP)
]
PATHS = ["i", "d", "s", "o", "r", "r.x", "r.y", "a", "m"]

text = st.one_of(st.none(), st.sampled_from(["", "a", "é", "漢字", "a\x00b"]), st.text(max_size=4))
rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)),
        st.one_of(st.none(), st.floats(allow_nan=False)),
        text,
        # The permissive fallback: non-str payloads under a VARCHAR column.
        st.one_of(text, st.integers(-5, 5), st.booleans()),
        st.one_of(
            st.none(),
            st.fixed_dictionaries({"x": st.one_of(st.none(), st.integers(0, 9)), "y": text}),
        ),
        st.one_of(st.none(), st.lists(text, max_size=3)),
        st.one_of(st.none(), st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2)),
    ),
    max_size=14,
)


@settings(max_examples=120, deadline=None)
@given(
    rows=rows_strategy,
    split_size=st.integers(1, 8),
    page_size=st.integers(1, 5),
    columns=st.lists(st.sampled_from(PATHS), min_size=1, max_size=4),
)
def test_stored_pages_equal_project_rows(rows, split_size, page_size, columns):
    with mock.patch.object(memory, "PAGE_SIZE", page_size):
        connector = MemoryConnector(split_size=split_size)
        connector.create_table("db", "t", LAYOUT, rows)
        splits = connector.split_manager().get_splits(HANDLE)
        # An empty table has no splits; its empty range still reads as one empty page.
        splits.append(ConnectorSplit("empty", 0, (("start", len(rows)), ("end", len(rows)))))
        provider = connector.record_set_provider()
        for split in splits:
            info = split.info_dict()
            split_rows = rows[info["start"] : info["end"]]
            expected = [
                project_rows(LAYOUT, split_rows[s : s + page_size], columns)
                for s in range(0, max(len(split_rows), 1), page_size)
            ]
            for _ in range(2):  # the first scan builds, the second reads the store
                pages = list(provider.pages(HANDLE, split, columns))
                assert [p.to_rows() for p in pages] == [e.to_rows() for e in expected]
                for page, reference in zip(pages, expected):
                    for block, flat in zip(page.blocks, reference.blocks):
                        if not isinstance(block, DictionaryBlock):
                            # Flat columns are built exactly as before.
                            assert type(block) is type(flat)
                            assert block.size_in_bytes() == flat.size_in_bytes()


# -- a dropped connector is freed by reference counting ---------------------


def test_dropping_an_engine_frees_its_memory_connector():
    gc.collect()
    gc.disable()
    try:
        connector = MemoryConnector(split_size=3)
        connector.create_table(
            "db", "t", [("k", BIGINT), ("s", VARCHAR)], [(i, "ab"[i % 2]) for i in range(10)]
        )
        connector.create_table("db", "u", [("k", BIGINT)], [(i,) for i in range(5)])
        engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
        engine.register_connector("memory", connector)
        for sql in (
            "SELECT t.s, count(*) FROM t JOIN u ON t.k = u.k GROUP BY t.s ORDER BY 1",
            "SELECT k, s FROM t ORDER BY k DESC LIMIT 3",
            "ANALYZE t",
            "SELECT count(*) FROM t WHERE s = 'a'",
        ):
            engine.execute(sql)
        alive = weakref.ref(connector)
        del connector, engine
        assert alive() is None
    finally:
        gc.enable()


def _mysql_connector():
    server = MySqlServer()
    server.create_table("db", "t", COLUMNS, ROWS)
    return MySqlConnector(server)


def _kafka_connector():
    broker = KafkaBroker()
    broker.create_topic("t", COLUMNS)
    for row in ROWS:
        broker.produce("t", row)
    return KafkaConnector(broker)


# One loaded connector of every other module, built as the pushdown
# differential suite builds them: kind -> (schema.table, build).
OTHER_CONNECTORS = {
    "mysql": ("db.t", _mysql_connector),
    "elasticsearch": ("default.t", _elasticsearch_connector),
    "druid": ("druid.t", lambda: _store_connector(DruidCluster, DruidConnector)),
    "pinot": ("pinot.t", lambda: _store_connector(PinotCluster, PinotConnector)),
    "iceberg": ("lake.t", _iceberg_connector),
    "hive": ("db.t", _hive_connector),
    "kafka": ("kafka.t", _kafka_connector),
}


@contextlib.contextmanager
def cyclic_collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def count_rows(engine, table):
    [(count,)] = engine.execute(f"SELECT count(*) FROM {table}").rows
    assert count > 0


@pytest.mark.parametrize("kind", sorted(OTHER_CONNECTORS))
def test_dropping_an_engine_frees_its_connector(kind):
    """Every other connector module, as the memory connector above."""
    table, build = OTHER_CONNECTORS[kind]
    with cyclic_collector_off():
        connector = build()
        engine = PrestoEngine()
        engine.register_connector(kind, connector)
        count_rows(engine, f"{kind}.{table}")
        alive = weakref.ref(connector)
        del connector, engine
        assert alive() is None


@pytest.mark.parametrize(
    "catalog, table", [("hybrid", "rt.t"), ("kafka", "kafka.t"), ("lake", "lake.t")]
)
def test_dropping_a_lakehouse_frees_its_catalogs(catalog, table):
    with cyclic_collector_off():
        lakehouse = StreamingLakehouse(
            fields=COLUMNS, topic="t", poll_interval_ms=100, compaction_interval_ms=400
        )
        for row in HALVES[0]:
            lakehouse.produce(row, timestamp_ms=row[0] * 4)
        lakehouse.pipeline.run_for(1000)  # sealed into the lake
        for row in HALVES[1]:
            lakehouse.produce(row, timestamp_ms=1100 + row[0])
        lakehouse.pipeline.run_for(150)  # stays in the tail
        engine = lakehouse.make_engine()
        count_rows(engine, f"{catalog}.{table}")
        alive = weakref.ref(engine.catalog.connector(catalog))
        del lakehouse, engine
        assert alive() is None
