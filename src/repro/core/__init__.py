"""Engine core: type system, columnar blocks/pages, RowExpressions.

This package is the foundation every other subsystem builds on:

- :mod:`repro.core.types` — Presto's strict SQL type system, including
  nested ``ROW`` (struct), ``ARRAY`` and ``MAP`` types used by the paper's
  complex-data sections.
- :mod:`repro.core.blocks` / :mod:`repro.core.page` — the vectorized
  in-memory columnar representation (section III: "Presto is a vectorized
  engine, which processes a bunch of in memory encoded column values").
- :mod:`repro.core.expressions` — the self-contained ``RowExpression``
  representation of Table I, which replaced the AST-based representation so
  sub-expressions can be pushed down to connectors.
- :mod:`repro.core.evaluator` — vectorized interpreter for RowExpressions
  (the Python stand-in for Presto's ASM bytecode generation).
- :mod:`repro.core.functions` — the scalar/aggregate function registry with
  resolvable ``FunctionHandle`` identities.
"""

from repro.core.types import (
    PrestoType,
    BIGINT,
    INTEGER,
    DOUBLE,
    BOOLEAN,
    VARCHAR,
    DATE,
    TIMESTAMP,
    GEOMETRY,
    UNKNOWN,
    RowType,
    ArrayType,
    MapType,
    parse_type,
)
from repro.core.blocks import (
    Block,
    PrimitiveBlock,
    VarcharBlock,
    DictionaryBlock,
    RowBlock,
    ArrayBlock,
    MapBlock,
    LazyBlock,
)
from repro.core.page import Page

__all__ = [
    "PrestoType",
    "BIGINT",
    "INTEGER",
    "DOUBLE",
    "BOOLEAN",
    "VARCHAR",
    "DATE",
    "TIMESTAMP",
    "GEOMETRY",
    "UNKNOWN",
    "RowType",
    "ArrayType",
    "MapType",
    "parse_type",
    "Block",
    "PrimitiveBlock",
    "VarcharBlock",
    "DictionaryBlock",
    "RowBlock",
    "ArrayBlock",
    "MapBlock",
    "LazyBlock",
    "Page",
]
