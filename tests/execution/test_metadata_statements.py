"""EXPLAIN / SHOW / DESCRIBE / ANALYZE statement tests, and the one front
door every statement enters through (``parse_statement`` + one dispatcher)."""

from functools import partial

import pytest

from repro.common.errors import PrestoError, SemanticError, SyntaxError_
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, RowType, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from tests.reference.pipeline import execute_direct


def make_engine():
    connector = MemoryConnector()
    connector.create_table(
        "db",
        "trips",
        [("base", RowType.of(("city_id", BIGINT))), ("datestr", VARCHAR)],
        [({"city_id": 1}, "2020-01-01")],
    )
    connector.create_table("db", "cities", [("city_id", BIGINT)], [(1,)])
    connector.create_table("other", "misc", [("x", BIGINT)], [])
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    return engine


@pytest.fixture
def engine():
    return make_engine()


class TestExplain:
    def test_explain_returns_plan_rows(self, engine):
        result = engine.execute("EXPLAIN SELECT count(*) FROM trips")
        assert result.column_names == ["Query Plan"]
        text = "\n".join(r[0] for r in result.rows)
        assert "TableScan" in text and "Aggregation" in text

    def test_explain_distributed(self, engine):
        result = engine.execute(
            "EXPLAIN (TYPE DISTRIBUTED) SELECT datestr, count(*) FROM trips GROUP BY datestr"
        )
        text = "\n".join(r[0] for r in result.rows)
        assert "Fragment 0" in text
        assert "REPARTITION" in text

    def test_explain_multiline_query(self, engine):
        result = engine.execute("EXPLAIN\nSELECT *\nFROM trips")
        assert result.rows


class TestShow:
    def test_show_catalogs(self, engine):
        assert engine.execute("SHOW CATALOGS").rows == [("memory",)]

    def test_show_schemas(self, engine):
        result = engine.execute("SHOW SCHEMAS")
        assert sorted(r[0] for r in result.rows) == ["db", "other"]

    def test_show_schemas_from(self, engine):
        result = engine.execute("SHOW SCHEMAS FROM memory")
        assert ("db",) in result.rows

    def test_show_tables_default_schema(self, engine):
        result = engine.execute("SHOW TABLES")
        assert sorted(r[0] for r in result.rows) == ["cities", "trips"]

    def test_show_tables_qualified(self, engine):
        result = engine.execute("SHOW TABLES FROM memory.other")
        assert result.rows == [("misc",)]

    def test_show_tables_without_session_defaults(self):
        engine = PrestoEngine()
        with pytest.raises(SemanticError):
            engine.execute("SHOW TABLES")

    def test_show_preserves_identifier_case(self):
        # Regression: SHOW matched on the lowercased SQL, so a catalog or
        # schema registered with uppercase letters could never be listed.
        connector = MemoryConnector()
        connector.create_table("Sales", "Orders", [("x", BIGINT)], [])
        engine = PrestoEngine()
        engine.register_connector("MyCatalog", connector)
        schemas = engine.execute("SHOW SCHEMAS FROM MyCatalog")
        assert schemas.rows == [("Sales",)]
        tables = engine.execute("show tables from MyCatalog.Sales")
        assert tables.rows == [("Orders",)]


class TestDescribe:
    def test_describe_table(self, engine):
        result = engine.execute("DESCRIBE trips")
        assert result.column_names == ["Column", "Type"]
        assert ("base", "row(city_id bigint)") in result.rows
        assert ("datestr", "varchar") in result.rows

    def test_desc_shorthand_and_qualified_name(self, engine):
        result = engine.execute("DESC memory.other.misc")
        assert result.rows == [("x", "bigint")]

    def test_describe_missing_table(self, engine):
        with pytest.raises(SemanticError):
            engine.execute("DESCRIBE nope")

    def test_trailing_semicolon_tolerated(self, engine):
        assert engine.execute("SHOW CATALOGS;").rows == [("memory",)]

    def test_describe_uses_public_qualify(self, engine):
        # DESCRIBE resolves names through Analyzer.qualify(), the public
        # spelling of the SELECT name-resolution rules.
        from repro.planner.analyzer import Analyzer

        analyzer = Analyzer(engine.catalog, engine.session, engine.registry)
        assert analyzer.qualify(("trips",)) == ("memory", "db", "trips")
        assert analyzer.qualify(("other", "misc")) == ("memory", "other", "misc")
        with pytest.raises(SemanticError):
            analyzer.qualify(())


# One statement of every kind the grammar has.
STATEMENTS = [
    "SELECT datestr FROM trips",
    "EXPLAIN SELECT count(*) FROM trips",
    "EXPLAIN (TYPE DISTRIBUTED) SELECT datestr, count(*) FROM trips GROUP BY datestr",
    "EXPLAIN ANALYZE SELECT count(*) FROM trips",
    "SHOW CATALOGS",
    "SHOW SCHEMAS",
    "SHOW SCHEMAS FROM memory",
    "SHOW TABLES",
    "SHOW TABLES FROM other",
    "SHOW TABLES FROM memory.other",
    "DESCRIBE trips",
    "DESC memory.other.misc",
    "ANALYZE trips",
    "ANALYZE TABLE memory.db.cities",
]


def answer(sql, path="execute"):
    """(column names, rows) of ``sql`` on a fresh engine, so query ids and
    ANALYZE side effects cannot differ between the runs being compared."""
    engine = make_engine()
    if path == "submit":
        result = engine.submit(sql).run_to_completion()
    else:
        result = run_on(engine, path)(sql)
    return result.column_names, result.rows


def run_on(engine, path):
    """``engine``'s method named ``path``, or the single-pipeline reference."""
    if path == "execute_direct":
        return partial(execute_direct, engine)
    return getattr(engine, path)


class TestOneFrontDoor:
    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_one_trailing_semicolon_is_accepted(self, sql):
        assert answer(sql + ";") == answer(sql)
        assert answer(sql + " ;\n") == answer(sql)
        with pytest.raises(SyntaxError_, match=r"unexpected trailing input ';'"):
            make_engine().execute(sql + ";;")

    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_leading_comments_are_skipped(self, sql):
        assert answer("-- hi\n" + sql) == answer(sql)
        assert answer("/* c */ " + sql + " -- bye") == answer(sql)

    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_every_path_gives_the_same_result(self, sql):
        assert answer(sql, "execute_direct") == answer(sql)
        assert answer(sql, "submit") == answer(sql)

    def test_a_metadata_statement_submitted_is_finished_at_once(self, engine):
        handle = engine.submit("SHOW TABLES")
        assert handle.done and handle.state == "finished"
        assert handle.step() is None and handle.peek_stage() is None
        assert handle.result().rows == engine.execute("SHOW TABLES").rows
        assert handle.stats is handle.result().stats and handle.trace is None

    @pytest.mark.parametrize(
        "sql, line, column",
        [
            ("DESCRIBE trips$x=1", 1, 17),
            ("EXPLAIN ANALYZE", 1, 16),
            ("EXPLAIN (TYPE LOGICAL) SELECT 1", 1, 15),
            ("SHOW TABLES FROM a.b.c", 1, 21),
            ("DESCRIBE", 1, 9),
            ("-- a comment line\nEXPLAIN\n  SELECT FROM trips", 3, 10),
            ("SHOW\nGRANTS", 2, 1),
            ("ANALYZE TABLE", 1, 14),
            ("DESCRIBE trips t", 1, 16),
            ("SELECT 1 1e", 1, 10),
        ],
    )
    def test_errors_point_into_the_text_that_was_sent(self, engine, sql, line, column):
        with pytest.raises(SyntaxError_) as raised:
            engine.execute(sql)
        assert (raised.value.line, raised.value.column) == (line, column)
        assert f"at line {line}:{column}" in str(raised.value)
        lines = sql.split("\n")
        assert line <= len(lines) and column <= len(lines[line - 1]) + 1

    def test_describe_reads_names_as_a_from_clause_does(self, engine):
        described = engine.execute('DESC "memory"."db".\n"trips"')
        assert described.rows == engine.execute("DESCRIBE TRIPS").rows
        with pytest.raises(SemanticError, match=r"table memory\.db\.trips\$x does not exist"):
            engine.execute('DESCRIBE "trips$x"')

    def test_analyze_needs_a_connector_that_collects_statistics(self, engine):
        from repro.connectors.kafka import KafkaBroker, KafkaConnector

        broker = KafkaBroker()
        broker.create_topic("t", [("x", BIGINT)])
        engine.register_connector("kafka", KafkaConnector(broker))
        with pytest.raises(SemanticError, match="'kafka' does not support ANALYZE"):
            engine.execute("ANALYZE kafka.kafka.t")

    def test_statement_words_are_not_reserved(self):
        connector = MemoryConnector()
        connector.create_table(
            "db", "tables", [("type", BIGINT), ("explain", BIGINT), ("show", BIGINT)], [(1, 2, 3)]
        )
        engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
        engine.register_connector("memory", connector)
        assert engine.execute("SELECT type, explain, show FROM tables").rows == [(1, 2, 3)]
        assert engine.execute("DESCRIBE tables").rows[0] == ("type", "bigint")

    @pytest.mark.parametrize("path", ["execute", "execute_direct", "submit", "plan"])
    def test_a_select_is_tokenized_exactly_once(self, engine, monkeypatch, path):
        import repro.sql.parser as parser_module

        calls = []
        tokenize = parser_module.tokenize

        def counting(sql):
            calls.append(sql)
            return tokenize(sql)

        monkeypatch.setattr(parser_module, "tokenize", counting)
        sql = "SELECT count(*) FROM trips;"
        run_on(engine, path)(sql)
        assert calls == [sql]
        del calls[:]
        engine.execute("DESCRIBE trips")
        engine.execute("EXPLAIN ANALYZE SELECT count(*) FROM trips")
        assert calls == ["DESCRIBE trips", "EXPLAIN ANALYZE SELECT count(*) FROM trips"]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT " + "(" * 400 + "1" + ")" * 400,
            "SELECT " + "1+" * 3000 + "1",
            "SELECT " + "NOT " * 2000 + "true",
            "EXPLAIN SELECT " + "- " * 2000 + "1",
        ],
        ids=["parentheses", "sum", "not", "minus"],
    )
    def test_runaway_nesting_is_a_user_error(self, engine, sql):
        with pytest.raises(PrestoError) as raised:
            engine.execute(sql)
        assert raised.value.category.value == "USER_ERROR"
        assert engine.execute("SELECT 1").rows == [(1,)]
