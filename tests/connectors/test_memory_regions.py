"""The memory store keeps each column once, and a scan's pages view it.

A split's pages are regions of the stored column, so the scan joins a
task's splits by taking one wider region: no byte is copied, and the
stored arrays are read-only, so a write into a scanned page raises
instead of changing the table.  Inserts keep the regions of the splits
they do not grow, and every scan still reads the table's rows.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectors import memory
from repro.connectors.memory import MemoryConnector
from repro.connectors.spi import ConnectorTableHandle
from repro.core import page as page_module
from repro.core.blocks import DictionaryBlock, PrimitiveBlock, VarcharBlock
from repro.core.page import concat_blocks
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.context import ExecutionContext
from repro.execution.engine import PrestoEngine
from repro.execution.operators.scan import execute_table_scan
from repro.planner.analyzer import Session
from repro.planner.plan import TableScanNode

COLUMNS = [("k", BIGINT), ("x", DOUBLE), ("s", VARCHAR), ("flag", VARCHAR)]
HANDLE = ConnectorTableHandle("db", "t")


def _rows(count, start=0):
    return [
        (
            None if i % 11 == 0 else i,
            i / 4,
            f"row-{i}-é" if i % 13 else None,  # high cardinality: stored flat
            "ab"[i % 2],  # low cardinality: stored as a dictionary
        )
        for i in range(start, start + count)
    ]


def _engine(rows, split_size):
    connector = MemoryConnector(split_size=split_size)
    connector.create_table("db", "t", COLUMNS, rows)
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    return engine, connector


def _scan(engine):
    """The scan's coalesced pages, straight from ``execute_table_scan``."""
    node = next(
        n for n in engine.plan("SELECT k, x, s, flag FROM t").walk()
        if isinstance(n, TableScanNode)
    )
    ctx = ExecutionContext(catalog=engine.catalog)
    return list(execute_table_scan(node, ctx)), ctx


class TestCoalescedPagesViewTheStore:
    def test_a_multi_split_scan_is_one_region_per_column(self):
        rows = _rows(100)
        engine, _ = _engine(rows, split_size=7)
        (page,), ctx = _scan(engine)
        assert ctx.stats.pages_produced == 15
        assert page.to_rows() == rows
        for block in page.blocks:
            assert block.region_of is not None and block.region_of[1] == 0
        assert isinstance(page.block(2), VarcharBlock)
        assert isinstance(page.block(3), DictionaryBlock)

    @pytest.mark.parametrize(
        "channel, array",
        [(0, "values"), (1, "values"), (2, "data"), (2, "offsets"), (3, "ids")],
    )
    def test_a_write_into_a_coalesced_page_raises(self, channel, array):
        engine, _ = _engine(_rows(100), split_size=7)
        (page,), _ = _scan(engine)
        with pytest.raises(ValueError, match="read-only"):
            getattr(page.block(channel), array)[1] = 0
        (again,), _ = _scan(engine)
        assert again.to_rows() == _rows(100)

    def test_a_write_into_a_single_split_page_raises(self):
        engine, _ = _engine(_rows(5), split_size=7)
        (page,), _ = _scan(engine)
        with pytest.raises(ValueError, match="read-only"):
            page.block(1).values[0] = 1.0


class TestTheJoinCopiesNothing:
    """A work-count guard: joining a task's split pages calls neither
    ``np.concatenate`` nor ``concat_varchar_blocks``."""

    def test_multi_split_scan(self):
        engine, _ = _engine(_rows(300), split_size=16)
        _scan(engine)  # the first scan stores the columns
        calls = []
        concatenate = np.concatenate
        concat_varchar = page_module.concat_varchar_blocks

        def counting_concatenate(*args, **kwargs):
            calls.append("np.concatenate")
            return concatenate(*args, **kwargs)

        def counting_concat_varchar(*args, **kwargs):
            calls.append("concat_varchar_blocks")
            return concat_varchar(*args, **kwargs)

        with mock.patch.object(np, "concatenate", counting_concatenate), mock.patch.object(
            page_module, "concat_varchar_blocks", counting_concat_varchar
        ):
            (page,), ctx = _scan(engine)
        assert ctx.stats.pages_produced == 19
        assert page.to_rows() == _rows(300)
        assert calls == []


class TestInsert:
    def test_unchanged_splits_stay_regions_of_the_first_stored_column(self):
        engine, connector = _engine(_rows(10), split_size=4)
        _scan(engine)
        table = connector._tables[("db", "t")]
        before = table.blocks[(0, 4, 0)][0]
        connector.insert("db", "t", _rows(3, start=10))
        (page,), _ = _scan(engine)
        assert page.to_rows() == _rows(13)
        # Splits [0, 4) and [4, 8) keep their regions of the first stored
        # column, and still join as one; the grown split [8, 12) and the
        # new [12, 13) are regions of the segment the insert started.
        assert table.blocks[(0, 4, 0)][0] is before
        first = before.region_of[0]
        unchanged = [table.blocks[(0, 4, 0)][0], table.blocks[(4, 8, 0)][0]]
        assert concat_blocks(BIGINT, unchanged).region_of == (first, 0)
        grown = table.blocks[(8, 12, 0)][0].region_of[0]
        assert grown is not first and table.blocks[(12, 13, 0)][0].region_of[0] is grown

    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(st.integers(0, 9), min_size=1, max_size=5),
        split_size=st.integers(1, 6),
        page_size=st.integers(1, 4),
        scans=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    def test_scans_between_inserts_read_the_rows(self, batches, split_size, page_size, scans):
        with mock.patch.object(memory, "PAGE_SIZE", page_size):
            rows = _rows(batches[0])
            engine, connector = _engine(rows, split_size)
            for batch, scan_now in zip(batches[1:] + [0], scans):
                if scan_now:
                    pages, _ = _scan(engine)
                    assert [r for p in pages for r in p.to_rows()] == rows
                    for split, split_pages in _split_pages(connector):
                        info = split.info_dict()
                        split_rows = rows[info["start"] : info["end"]]
                        assert [r for p in split_pages for r in p.to_rows()] == split_rows
                        assert all(p.position_count <= page_size for p in split_pages)
                new_rows = _rows(batch, start=len(rows))
                connector.insert("db", "t", new_rows)
                rows = rows + new_rows
            pages, _ = _scan(engine)
            assert [r for p in pages for r in p.to_rows()] == rows


def _split_pages(connector):
    """``(split, its pages)`` for every split, read from the connector."""
    return [
        (split, list(connector.pages(HANDLE, split, [n for n, _ in COLUMNS])))
        for split in connector.get_splits(HANDLE)
    ]


def test_stored_arrays_are_read_only():
    _, connector = _engine(_rows(20), split_size=7)
    _split_pages(connector)
    table = connector._tables[("db", "t")]
    for channel in range(len(COLUMNS)):
        ((_, _, stored),) = table.stored[channel]
        if isinstance(stored, DictionaryBlock):
            assert not stored.ids.flags.writeable
            assert not stored.dictionary.data.flags.writeable
        elif isinstance(stored, VarcharBlock):
            assert not stored.data.flags.writeable and not stored.offsets.flags.writeable
        else:
            assert isinstance(stored, PrimitiveBlock)
            assert not stored.values.flags.writeable
