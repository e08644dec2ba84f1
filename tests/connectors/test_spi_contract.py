"""One SPI contract, every connector.

``Connector`` derives table lookup and the filter negotiation
from two facts each connector states (``table_columns`` and
``absorb_conjunct``).  These tests hold all eight connector modules —
nine catalogs, Druid and Pinot sharing one — to what the engine relies
on, over the tables and the predicate matrix of the pushdown
differential suite.
"""

import json

import pytest

from repro.common.errors import ConnectorError, SemanticError
from repro.connectors.hive.connector import _dereferences_to_paths
from repro.connectors.memory import MemoryConnector
from repro.connectors.olap import (
    DruidCluster,
    DruidConnector,
    PinotCluster,
    PinotConnector,
)
from repro.connectors.spi import AggregationFunction
from repro.core.expressions import (
    VariableReferenceExpression,
    conjuncts,
    expression_from_dict,
    substitute,
)
from repro.core.types import BIGINT
from repro.planner.analyzer import Analyzer
from repro.planner.plan import FilterNode, TableScanNode
from repro.realtime import StreamingLakehouse
from repro.sql.parser import parse_sql
from tests.connectors.test_pushdown_differential import (  # noqa: F401 (engine is a fixture)
    COLUMNS,
    KAFKA_PREDICATES,
    PREDICATES,
    TABLES,
    _hive_connector,
    _iceberg_connector,
    _store_connector,
    engine,
)

ALL_TABLES = {**TABLES, "memory": "memory.db.t", "kafka": "kafka.kafka.t"}
# The six connectors that serve exactly one schema, ``connector.schema_name``.
SINGLE_SCHEMA = ["elasticsearch", "kafka", "druid", "pinot", "iceberg", "hybrid"]


def _spi(engine, connector: str):
    """(metadata, schema name, table name) behind one catalog of the fixture."""
    catalog, schema_name, table_name = ALL_TABLES[connector].split(".")
    return engine.catalog.connector(catalog), schema_name, table_name


def _offered(engine, sql: str):
    """(scan handle, WHERE predicate over connector column names), as the
    predicate-pushdown rule offers them, from the unoptimized plan."""
    analyzer = Analyzer(engine.catalog, engine.session, engine.registry)
    node = analyzer.analyze(parse_sql(sql))
    while not isinstance(node, FilterNode):
        (node,) = node.sources()
    scan = node.source
    assert isinstance(scan, TableScanNode)
    types = {v.name: v.type for v in scan.output_variables}
    to_columns = {
        name: VariableReferenceExpression(column, types[name])
        for name, column in scan.assignments
    }
    return scan.handle, substitute(node.predicate, to_columns)


def _conjunct_multiset(*expressions) -> list[str]:
    """Canonical text of every top-level conjunct, after hive's
    dereference → dotted-path normalization (the identity elsewhere)."""
    return sorted(
        json.dumps(_dereferences_to_paths(conjunct).to_dict(), sort_keys=True)
        for expression in expressions
        for conjunct in conjuncts(expression)
    )


def _assert_nothing_lost_or_duplicated(metadata, handle, offered) -> bool:
    """The ``apply_filter`` contract; returns whether anything was absorbed."""
    result = metadata.apply_filter(handle, offered)
    if result is None:
        return False
    assert result.handle.constraint is not None
    remaining = (
        None
        if result.remaining_expression is None
        else expression_from_dict(result.remaining_expression)
    )
    assert _conjunct_multiset(
        result.handle.constraint_expression(), remaining
    ) == _conjunct_multiset(offered)
    return True


@pytest.mark.parametrize("predicate", PREDICATES)
@pytest.mark.parametrize("connector", sorted(ALL_TABLES))
def test_apply_filter_partitions_the_offered_conjuncts(engine, connector, predicate):
    metadata, _, _ = _spi(engine, connector)
    handle, offered = _offered(
        engine, f"SELECT id FROM {ALL_TABLES[connector]} WHERE {predicate}"
    )
    absorbed = _assert_nothing_lost_or_duplicated(metadata, handle, offered)
    if connector == "memory":
        assert not absorbed


@pytest.mark.parametrize("predicate", KAFKA_PREDICATES)
def test_kafka_log_seeks_partition_the_offered_conjuncts(engine, predicate):
    metadata, _, _ = _spi(engine, "kafka")
    handle, offered = _offered(engine, f"SELECT id FROM kafka.kafka.t WHERE {predicate}")
    _assert_nothing_lost_or_duplicated(metadata, handle, offered)


def test_hive_absorbs_a_nested_leaf_as_its_dotted_path():
    from repro.cli import build_demo_engine

    demo = build_demo_engine()
    metadata = demo.catalog.connector("hive")
    handle, offered = _offered(
        demo, "SELECT fare_usd FROM trips WHERE base.city_id = 12 AND fare_usd % 2 = 0"
    )
    assert _assert_nothing_lost_or_duplicated(metadata, handle, offered)
    absorbed = metadata.apply_filter(handle, offered).handle.constraint_expression()
    assert "base.city_id" in {v.name for v in absorbed.variables()}


@pytest.mark.parametrize("connector", sorted(ALL_TABLES))
def test_metadata_is_table_columns(engine, connector):
    metadata, schema_name, table_name = _spi(engine, connector)
    columns = list(metadata.table_columns(schema_name, table_name))
    assert columns[: len(COLUMNS)] == COLUMNS
    handle = metadata.get_table_handle(schema_name, table_name)
    assert (handle.schema_name, handle.table_name) == (schema_name, table_name)
    table_metadata = metadata.get_table_metadata(handle)
    assert [(c.name, c.type) for c in table_metadata.columns] == columns


@pytest.mark.parametrize("connector", sorted(ALL_TABLES))
def test_unknown_table_and_unknown_schema_are_none(engine, connector):
    metadata, schema_name, table_name = _spi(engine, connector)
    for schema, table in [(schema_name, "nosuch"), ("nosuch", table_name)]:
        assert metadata.table_columns(schema, table) is None
        assert metadata.get_table_handle(schema, table) is None


@pytest.mark.parametrize("connector", SINGLE_SCHEMA)
def test_a_table_resolves_under_its_own_schema_only(engine, connector):
    catalog, schema_name, table_name = ALL_TABLES[connector].split(".")
    with pytest.raises(SemanticError, match="does not exist"):
        engine.execute(f"SELECT count(*) FROM {catalog}.nosuch.{table_name}")
    assert engine.execute(f"SHOW TABLES FROM {catalog}.nosuch").rows == []
    assert (table_name,) in engine.execute(f"SHOW TABLES FROM {catalog}.{schema_name}").rows
    assert engine.execute(f"SHOW SCHEMAS FROM {catalog}").rows == [(schema_name,)]


@pytest.mark.parametrize("connector", sorted(ALL_TABLES))
def test_a_looser_limit_is_declined(engine, connector):
    metadata, schema_name, table_name = _spi(engine, connector)
    limited = metadata.apply_limit(metadata.get_table_handle(schema_name, table_name), 5)
    if limited is None:
        assert connector in ("memory", "hive", "iceberg", "hybrid")
        return
    assert limited.limit == 5
    assert metadata.apply_limit(limited, 5) is None
    assert metadata.apply_limit(limited, 10) is None
    assert metadata.apply_limit(limited, 3).limit == 3


@pytest.mark.parametrize("connector", ["druid", "pinot"])
def test_an_aggregate_output_is_never_absorbed(engine, connector):
    metadata, schema_name, table_name = _spi(engine, connector)
    count, _ = engine.registry.resolve_aggregate("count", [BIGINT])
    pushed = metadata.apply_aggregation(
        metadata.get_table_handle(schema_name, table_name),
        [AggregationFunction(count, ("code",), "n")],
        ["level"],
    ).handle
    _, over_output = _offered(engine, "SELECT id FROM memory.db.t WHERE id > 1")
    over_output = substitute(
        over_output, {"id": VariableReferenceExpression("n", BIGINT)}
    )
    assert metadata.absorb_conjunct(pushed, over_output) is None
    assert metadata.apply_filter(pushed, over_output) is None


def test_pinned_versions_are_validated_at_analysis(engine):
    with pytest.raises(ConnectorError, match="no snapshot 99"):
        engine.plan('SELECT count(*) FROM iceberg.lake."t$snapshot=99"')
    with pytest.raises(ConnectorError, match="future watermark"):
        engine.plan('SELECT count(*) FROM hybrid.rt."t$watermark=999-999-999"')


# -- ``ConnectorSplit.rows``: what a source stage is sized by -------------------

# The connectors that count a split's rows without I/O; hive would need a
# footer read, and the rest do not know before they ask their store.
COUNTING = {"memory", "druid", "pinot", "iceberg", "hybrid"}


@pytest.mark.parametrize("connector", sorted(ALL_TABLES))
def test_a_split_holds_the_rows_it_reports(engine, connector):
    catalog, schema_name, table_name = ALL_TABLES[connector].split(".")
    spi = engine.catalog.connector(catalog)
    handle = spi.get_table_handle(schema_name, table_name)
    columns = [name for name, _ in spi.table_columns(schema_name, table_name)]
    splits = spi.split_manager().get_splits(handle)
    assert splits
    if connector not in COUNTING:
        assert all(split.rows is None for split in splits)
        return
    for split in splits:
        pages = spi.record_set_provider().pages(handle, split, columns)
        assert split.rows == sum(page.position_count for page in pages), split.split_id


# -- an empty table: ``get_splits`` may answer ``[]`` ---------------------------

EMPTY_TABLES = {
    "memory": "memory.db.t",
    "druid": "druid.druid.t",
    "pinot": "pinot.pinot.t",
    "iceberg": "iceberg.lake.t",
    "hive": "hive.db.t",
    "hybrid": "hybrid.rt.t",
}
# (query over {t} beside the three-row memory.db.dim, rows, dim splits it may read)
EMPTY_TABLE_QUERIES = {
    "select": ("SELECT * FROM {t}", [], 0),
    "count": ("SELECT count(*) FROM {t}", [(0,)], 0),
    "group_by": ("SELECT level, count(*) FROM {t} GROUP BY level", [], 0),
    "probe": ("SELECT e.id FROM {t} e JOIN memory.db.dim d ON e.id = d.id", [], 1),
    "build": ("SELECT d.id FROM memory.db.dim d JOIN {t} e ON d.id = e.id", [], 1),
}


@pytest.fixture(scope="module")
def empty_engine():
    """The fixture's tables with zero rows behind each catalog that used
    to forge a split for them (and hive, which never did)."""
    lakehouse = StreamingLakehouse(
        fields=COLUMNS, topic="t", poll_interval_ms=100, compaction_interval_ms=400
    )
    lakehouse.pipeline.run_for(1000)  # nothing was produced
    engine = lakehouse.make_engine()
    memory = MemoryConnector()
    memory.create_table("db", "t", COLUMNS, [])
    memory.create_table("db", "dim", [("id", BIGINT)], [(1,), (2,), (3,)])
    for catalog, connector in [
        ("memory", memory),
        ("druid", _store_connector(DruidCluster, DruidConnector, halves=[])),
        ("pinot", _store_connector(PinotCluster, PinotConnector, halves=[])),
        ("iceberg", _iceberg_connector(halves=[])),
        ("hive", _hive_connector(halves=[])),
    ]:
        engine.register_connector(catalog, connector)
    return engine


@pytest.mark.parametrize("query", sorted(EMPTY_TABLE_QUERIES))
@pytest.mark.parametrize("connector", sorted(EMPTY_TABLES))
def test_an_empty_table_has_no_splits_and_still_answers(empty_engine, connector, query):
    sql, rows, dim_splits = EMPTY_TABLE_QUERIES[query]
    sql = sql.format(t=EMPTY_TABLES[connector])
    for run in (empty_engine.execute, empty_engine.execute_direct):
        result = run(sql)
        assert result.rows == rows
        assert result.stats.splits_scanned <= dim_splits
