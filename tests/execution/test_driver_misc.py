"""Driver and block edge cases not covered elsewhere."""

import numpy as np
import pytest

from repro.common.errors import ExecutionError
from repro.core.blocks import DictionaryBlock, LazyBlock, PrimitiveBlock
from repro.core.page import Page, concat_pages
from repro.core.types import BIGINT, VARCHAR
from repro.execution.context import ExecutionContext
from repro.execution.driver import execute_plan
from repro.connectors.spi import Catalog


class TestDriverErrors:
    def test_unknown_plan_node_rejected(self):
        from repro.planner.plan import PlanNode

        class WeirdNode(PlanNode):
            id = "weird"

            @property
            def outputs(self):
                return ()

            def sources(self):
                return ()

        ctx = ExecutionContext(catalog=Catalog())
        with pytest.raises(ExecutionError, match="no operator"):
            list(execute_plan(WeirdNode(), ctx))


class TestDictionaryBlockEdges:
    def test_null_dictionary_entry(self):
        dictionary = PrimitiveBlock.from_values(VARCHAR, ["x", None])
        block = DictionaryBlock(dictionary, np.array([0, 1, 0]))
        assert block.to_list() == ["x", None, "x"]
        assert list(block.null_mask()) == [False, True, False]

    def test_decode_with_null_entry(self):
        dictionary = PrimitiveBlock.from_values(VARCHAR, ["x", None])
        block = DictionaryBlock(dictionary, np.array([1, 0, -1]))
        decoded = block.decode()
        assert decoded.to_list() == [None, "x", None]


class TestConcatWithLazy:
    def test_concat_forces_lazy_blocks(self):
        loads = []

        def loader():
            loads.append(1)
            return PrimitiveBlock.from_values(BIGINT, [1, 2])

        lazy_page = Page([LazyBlock(BIGINT, 2, loader)])
        eager_page = Page.from_rows([BIGINT], [(3,)])
        merged = concat_pages([BIGINT], [lazy_page, eager_page])
        assert merged.to_rows() == [(1,), (2,), (3,)]
        assert loads == [1]


class TestPageErrors:
    def test_from_columns_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Page.from_columns([BIGINT, BIGINT], [[1, 2], [1]])

    def test_empty_page_without_count_rejected(self):
        with pytest.raises(ValueError):
            Page([])
