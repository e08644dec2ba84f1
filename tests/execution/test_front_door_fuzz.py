"""Hostile input at the front door: whatever text reaches
``PrestoEngine.execute``, rows or a categorized ``PrestoError`` come out —
never another exception type, a ``RecursionError``, a warning, or a wrapped
engine defect.  Token soups exercise the lexer and the parser's error paths;
grammar-shaped statements get far enough to be analyzed, planned and run.

Derandomized, so tier-1 sees the same texts every run; the ``@example``
texts are the raw exceptions longer randomized runs of these strategies found
(``ValueError`` from ``int('²')``, ``float('1e')`` and an unknown CAST type,
``RecursionError`` from the parser and from the analyzer).
"""

import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import EngineDefectError, PrestoError
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.engine import PrestoEngine, QueryResult
from repro.planner.analyzer import Session
from repro.sql.lexer import KEYWORDS


def make_engine():
    connector = MemoryConnector(split_size=2)
    connector.create_table(
        "db",
        "trips",
        [("x", BIGINT), ("d", DOUBLE), ("s", VARCHAR)],
        [(1, 1.5, "a"), (2, None, "é"), (None, float("nan"), None), (4, -0.0, "")],
    )
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    return engine


ENGINE = make_engine()

STATEMENT_WORDS = [
    "explain", "analyze", "type", "distributed", "show", "catalogs",
    "schemas", "tables", "describe", "desc", "table",
]
NAMES = ["trips", "x", "d", "s", "t", "memory", "db", "memory.db.trips", "nosuch", "count", "sum"]
LITERALS = [
    "0", "1", "42", "99999999999999999999", "1.5", "1e3", "1e999", "1e", "2.",
    "'a'", "'it''s'", "'é'", "'\x00'", "''", "true", "false", "null",
]
OPERATORS = [
    "<>", "<=", ">=", "!=", "->", "||", "=", "<", ">", "+", "-", "*", "/",
    "%", ".", ",", "(", ")", "[", "]", ";",
]
HOSTILE = [
    "-- comment\n", "/* comment */", "/* open", "'open", '"open', "`open",
    '"trips$x=1"', '""', "é", "²", "٣", "\x00", "​", "😀", "@", "#", "\\", "?",
]

words = st.sampled_from(sorted(KEYWORDS) + STATEMENT_WORDS).flatmap(
    lambda word: st.sampled_from([word, word.upper(), word.capitalize()])
)
tokens = st.one_of(
    words,
    st.sampled_from(NAMES),
    st.sampled_from(LITERALS),
    st.sampled_from(OPERATORS),
    st.sampled_from(HOSTILE),
)
soups = st.builds(
    lambda parts, separator: separator.join(parts),
    st.lists(tokens, min_size=0, max_size=25),
    st.sampled_from([" ", " ", "\n", ""]),
)

columns = st.sampled_from(["x", "d", "s", "trips.x", "t.d", "nosuch", "*"])
atoms = st.one_of(columns, st.sampled_from(LITERALS))
binary = st.sampled_from(["+", "-", "*", "/", "%", "||", "=", "<>", "<", ">=", "AND", "OR", "LIKE"])


def _expressions(children):
    return st.one_of(
        st.builds("({} {} {})".format, children, binary, children),
        st.builds("{}({})".format, st.sampled_from(["count", "sum", "min", "max", "avg", "abs", "lower", "nosuch"]), children),
        st.builds("CAST({} AS {})".format, children, st.sampled_from(["bigint", "double", "varchar", "nosuch", "²"])),
        st.builds("(- {})".format, children),
        st.builds("({} IS NULL)".format, children),
        st.builds("({} IN ({}, {}))".format, children, children, children),
        st.builds("({} BETWEEN {} AND {})".format, children, children, children),
        st.builds("(CASE WHEN {} THEN {} ELSE {} END)".format, children, children, children),
    )


expressions = st.recursive(atoms, _expressions, max_leaves=6)
relations = st.sampled_from(
    ["trips", "trips t", "memory.db.trips", "nosuch", "trips a JOIN trips t ON a.x = t.x",
     "(SELECT x, d, s FROM trips) t", '"trips"']
)
optional = lambda strategy: st.one_of(st.just(""), strategy)  # noqa: E731
queries = st.builds(
    "SELECT {}{} FROM {}{}{}{}{}".format,
    optional(st.just("DISTINCT ")),
    st.lists(expressions, min_size=1, max_size=3).map(", ".join),
    relations,
    optional(expressions.map(" WHERE {}".format)),
    optional(st.lists(st.one_of(columns, st.sampled_from(["1", "7"])), min_size=1, max_size=2).map(
        lambda keys: " GROUP BY " + ", ".join(keys)
    )),
    optional(st.builds(" ORDER BY {}{}".format, expressions, st.sampled_from(["", " DESC"]))),
    optional(st.sampled_from([" LIMIT 0", " LIMIT 2", " LIMIT 99999999999999999999", " LIMIT x"])),
)
table_names = st.sampled_from(
    ["trips", "db.trips", "memory.db.trips", "a.b.c.d", "nosuch", '"trips$x=1"', "trips$x=1", ""]
)
statements = st.one_of(
    queries,
    st.builds("EXPLAIN {}{}".format, st.sampled_from(["", "ANALYZE ", "(TYPE DISTRIBUTED) ", "(TYPE LOGICAL) "]), queries),
    st.builds("SHOW {}{}".format, st.sampled_from(["CATALOGS", "SCHEMAS", "TABLES", "GRANTS"]),
              optional(table_names.map(" FROM {}".format))),
    st.builds("{} {}".format, st.sampled_from(["DESCRIBE", "DESC", "ANALYZE", "ANALYZE TABLE"]), table_names),
)
def _damage(text, position, token, cut):
    """``text`` with one soup token put in, or put in place of a word."""
    parts = text.split(" ")
    at = position % (len(parts) + 1)
    return " ".join(parts[:at] + [token] + parts[at + cut :])


damaged = st.builds(
    _damage, statements, st.integers(min_value=0, max_value=1000), tokens, st.sampled_from([0, 1])
)
wrapped = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "-- c\n", "/* c */ ", "\n\t "]),
    st.one_of(statements, damaged),
    st.sampled_from(["", ";", " ;", ";;", " -- c"]),
)


def rows_or_a_categorized_error(sql):
    # Every warning is an error here, except numpy's floating-point ones:
    # NaN and infinity arithmetic (``min`` over a NaN, ``1e999 % 1e999``, an
    # infinite double cast to bigint) is the execution half's audit, listed
    # in ROADMAP.md, not the front door's.
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        try:
            result = ENGINE.execute(sql)
        except EngineDefectError as defect:
            raise AssertionError(f"engine defect for {sql!r}: {defect!r}") from defect
        except PrestoError as error:
            assert error.category is not None
            assert str(error)
            return
    assert isinstance(result, QueryResult)
    assert all(len(row) == len(result.column_names) for row in result.rows)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(soups)
@example("SELECT ²")
@example("SELECT 1e")
@example("SELECT 1e+ FROM trips")
@example("SELECT " + "(" * 400 + "1" + ")" * 400)
@example("SELECT " + "1+" * 3000 + "1")
def test_token_soup_ends_in_rows_or_a_categorized_error(sql):
    rows_or_a_categorized_error(sql)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(wrapped)
@example("SELECT CAST(x AS nosuch) FROM trips")
@example("SELECT x FROM trips WHERE CAST(s AS row(a)) IS NULL;")
def test_grammar_shaped_statements_end_in_rows_or_a_categorized_error(sql):
    rows_or_a_categorized_error(sql)
