"""Tests for the connector SPI primitives."""

import pytest

from repro.common.errors import ConnectorError
from repro.connectors.memory import MemoryConnector
from repro.connectors.spi import (
    AggregationFunction,
    Catalog,
    ConnectorSplit,
    ConnectorTableHandle,
)
from repro.core.functions import default_registry
from repro.core.types import BIGINT


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        connector = MemoryConnector()
        catalog.register("Mem", connector)
        assert catalog.connector("mem") is connector  # case-insensitive
        assert catalog.catalog_names() == ["mem"]

    def test_unknown_catalog(self):
        with pytest.raises(ConnectorError):
            Catalog().connector("nope")


class TestTableHandle:
    def test_with_updates_immutably(self):
        handle = ConnectorTableHandle("s", "t")
        limited = handle.with_(limit=10)
        assert handle.limit is None
        assert limited.limit == 10
        assert limited.schema_name == "s"

    def test_stacked_pushdowns(self):
        handle = (
            ConnectorTableHandle("s", "t")
            .with_(limit=5)
            .with_(projected_columns=("a", "b.c"))
            .with_(constraint={"@type": "constant", "value": True, "type": "boolean"})
        )
        assert handle.limit == 5
        assert handle.projected_columns == ("a", "b.c")
        assert handle.constraint is not None


class TestConnectorSplit:
    def test_info_dict(self):
        split = ConnectorSplit("id-1", info=(("path", "/x"), ("n", 3)))
        assert split.info_dict() == {"path": "/x", "n": 3}

    def test_rows_default_unknown(self):
        assert ConnectorSplit("id-2").rows is None


class TestAggregationFunction:
    def test_serialization_round_trip(self):
        handle, _ = default_registry().resolve_aggregate("sum", [BIGINT])
        fn = AggregationFunction(handle, ("v",), "total")
        restored = AggregationFunction.from_dict(fn.to_dict())
        assert restored == fn
        assert restored.function_handle.name == "sum"


class TestDefaultPushdownDeclines:
    def test_base_metadata_declines_everything(self):
        from repro.connectors.spi import Connector
        from repro.core.expressions import constant

        metadata = Connector()
        handle = ConnectorTableHandle("s", "t")
        from repro.core.types import BOOLEAN

        assert metadata.apply_filter(handle, constant(True, BOOLEAN)) is None
        assert metadata.apply_limit(handle, 10) is None
        assert metadata.apply_projection(handle, ["a"]) is None
        assert metadata.apply_aggregation(handle, [], []) is None
