"""Tests for the update-able data lake (Iceberg-style) connector."""

import pytest

from repro.common.errors import ConnectorError, SemanticError
from repro.connectors.lakehouse import IcebergConnector, IcebergTable
from repro.core.expressions import CallExpression, constant, variable
from repro.core.functions import default_registry
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from repro.storage.hdfs import HdfsFileSystem


def eq(column, value, presto_type=VARCHAR):
    handle, _ = default_registry().resolve_scalar("equal", [presto_type, presto_type])
    return CallExpression(
        "equal",
        handle,
        handle.resolved_return_type(),
        (variable(column, presto_type), constant(value, presto_type)),
    )


@pytest.fixture
def table():
    fs = HdfsFileSystem()
    table = IcebergTable(
        fs,
        "/lake/orders",
        [("order_id", BIGINT), ("status", VARCHAR), ("amount", DOUBLE)],
    )
    table.append([(1, "open", 10.0), (2, "open", 20.0)])
    table.append([(3, "shipped", 30.0)])
    return table


@pytest.fixture
def engine(table):
    connector = IcebergConnector()
    connector.register_table("orders", table)
    engine = PrestoEngine(session=Session(catalog="iceberg", schema="lake"))
    engine.register_connector("iceberg", connector)
    return engine


class TestTableFormat:
    def test_append_creates_snapshots(self, table):
        assert table.current_snapshot().snapshot_id == 2
        assert table.current_snapshot().row_count == 3
        assert [s.operation for s in table.history()] == ["create", "append", "append"]

    def test_append_does_not_rewrite_existing_files(self, table):
        files_before = set(f.path for f in table.snapshot(1).files)
        assert files_before <= set(f.path for f in table.current_snapshot().files)

    def test_delete_where_rewrites_only_affected_files(self, table):
        untouched = table.snapshot(2).files[1]  # the shipped-order file
        table.delete_where(eq("status", "open"))
        current = table.current_snapshot()
        assert current.row_count == 1
        assert untouched in current.files  # copy-on-write spared it

    def test_update_where(self, table):
        table.update_where(
            eq("order_id", 2, BIGINT),
            lambda row: (row[0], "cancelled", row[2]),
        )
        rows = [
            r
            for f in table.current_snapshot().files
            for r in table.read_file_page(f).to_rows()
        ]
        assert (2, "cancelled", 20.0) in rows
        assert (1, "open", 10.0) in rows  # unmatched rows preserved

    def test_old_snapshots_remain_readable(self, table):
        table.delete_where(eq("status", "open"))
        old_snapshot, old_files = table.scan_files(snapshot_id=2)
        assert old_snapshot.row_count == 3  # time travel sees deleted rows

    def test_unknown_snapshot(self, table):
        with pytest.raises(ConnectorError):
            table.snapshot(99)


class TestIcebergQueries:
    def test_basic_scan(self, engine):
        assert engine.execute("SELECT count(*) FROM orders").rows == [(3,)]

    def test_filter_pushdown(self, engine):
        result = engine.execute("SELECT order_id FROM orders WHERE status = 'open'")
        assert sorted(r[0] for r in result.rows) == [1, 2]
        assert result.stats.rows_scanned == 2  # filtered in the reader

    def test_query_after_delete(self, engine, table):
        table.delete_where(eq("status", "open"))
        assert engine.execute("SELECT count(*) FROM orders").rows == [(1,)]

    def test_query_after_update(self, engine, table):
        table.update_where(
            eq("status", "open"), lambda row: (row[0], row[1], row[2] + 5.0)
        )
        result = engine.execute("SELECT sum(amount) FROM orders")
        assert result.rows == [(70.0,)]

    def test_time_travel_via_snapshot_suffix(self, engine, table):
        table.delete_where(eq("status", "open"))
        current = engine.execute("SELECT count(*) FROM orders")
        historical = engine.execute('SELECT count(*) FROM "orders$snapshot=2"')
        assert current.rows == [(1,)]
        assert historical.rows == [(3,)]

    def test_snapshot_isolation_for_repeat_queries(self, engine, table):
        # A dashboard pinned to snapshot 2 keeps its results stable while
        # the table evolves underneath.
        pinned_sql = 'SELECT sum(amount) FROM "orders$snapshot=2"'
        before = engine.execute(pinned_sql)
        table.append([(4, "open", 100.0)])
        table.delete_where(eq("order_id", 1, BIGINT))
        after = engine.execute(pinned_sql)
        assert before.rows == after.rows == [(60.0,)]

    def test_bad_snapshot_fails_at_analysis(self, engine):
        with pytest.raises((SemanticError, ConnectorError)):
            engine.execute('SELECT count(*) FROM "orders$snapshot=42"')

    def test_join_current_with_history(self, engine, table):
        table.update_where(
            eq("status", "open"), lambda row: (row[0], "closed", row[2])
        )
        result = engine.execute(
            "SELECT count(*) FROM orders o "
            'JOIN "orders$snapshot=2" h ON o.order_id = h.order_id '
            "WHERE o.status <> h.status"
        )
        assert result.rows == [(2,)]  # the two rows the update touched
