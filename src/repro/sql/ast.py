"""Abstract Syntax Tree nodes for the SQL dialect.

These nodes are produced by the parser and consumed by the analyzer, which
lowers them to logical plan nodes over RowExpressions.  Per section IV.B the
AST is *not* what crosses the connector boundary — only the analyzer sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence


class Node:
    """Base class for AST nodes."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression(Node):
    pass


@dataclass(frozen=True)
class Literal(Expression):
    """A literal: int, float, str, bool, or None."""

    value: object


@dataclass(frozen=True)
class Identifier(Expression):
    """A possibly-dotted name: ``x``, ``t.x``, ``t.base.city_id``.

    The analyzer decides how many leading parts name a relation/column and
    how many trailing parts are struct field dereferences.
    """

    parts: tuple[str, ...]

    @property
    def name(self) -> str:
        return ".".join(self.parts)


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``t.*``."""

    qualifier: Optional[str] = None


@dataclass(frozen=True)
class BinaryOp(Expression):
    operator: str  # '=', '<>', '<', '<=', '>', '>=', '+', '-', '*', '/', '%', 'and', 'or', '||'
    left: Expression
    right: Expression


@dataclass(frozen=True)
class UnaryOp(Expression):
    operator: str  # '-', 'not'
    operand: Expression


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str
    arguments: tuple[Expression, ...]
    distinct: bool = False


@dataclass(frozen=True)
class InPredicate(Expression):
    value: Expression
    candidates: tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class BetweenPredicate(Expression):
    value: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True)
class LikePredicate(Expression):
    value: Expression
    pattern: Expression
    negated: bool = False


@dataclass(frozen=True)
class IsNullPredicate(Expression):
    value: Expression
    negated: bool = False


@dataclass(frozen=True)
class Cast(Expression):
    expression: Expression
    target_type: str  # type string, parsed later by the analyzer


@dataclass(frozen=True)
class CaseExpression(Expression):
    """Searched CASE: WHEN cond THEN value ... [ELSE value] END."""

    when_clauses: tuple[tuple[Expression, Expression], ...]
    default: Optional[Expression] = None


@dataclass(frozen=True)
class LambdaExpression(Expression):
    parameters: tuple[str, ...]
    body: Expression


@dataclass(frozen=True)
class SubscriptExpression(Expression):
    """``arr[i]`` / ``map[key]`` — sugar for element_at."""

    base: Expression
    index: Expression


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------


class Relation(Node):
    pass


@dataclass(frozen=True)
class TableReference(Relation):
    """``catalog.schema.table`` with fewer parts resolved by the session."""

    parts: tuple[str, ...]
    alias: Optional[str] = None


@dataclass(frozen=True)
class SubqueryRelation(Relation):
    query: "Query"
    alias: Optional[str] = None


@dataclass(frozen=True)
class Join(Relation):
    join_type: str  # 'inner', 'left', 'right', 'cross'
    left: Relation
    right: Relation
    condition: Optional[Expression] = None


# ---------------------------------------------------------------------------
# Query
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem(Node):
    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem(Node):
    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class Query(Node):
    """A single SELECT statement."""

    select_items: tuple[SelectItem, ...]
    from_relation: Optional[Relation] = None
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False
    # UNION [ALL] branches appended to this query, in order.  Each entry is
    # (query, distinct) where distinct=True means plain UNION semantics
    # (duplicates eliminated over the combined result).
    unions: tuple[tuple["Query", bool], ...] = ()


# ---------------------------------------------------------------------------
# Metadata statements
# ---------------------------------------------------------------------------


class Statement(Node):
    """What ``parse_statement`` returns when the text is not a query."""


@dataclass(frozen=True)
class Explain(Statement):
    """``EXPLAIN [ANALYZE | (TYPE DISTRIBUTED)] <query>``."""

    query: Query
    mode: str = "logical"  # 'logical' | 'distributed' | 'analyze'


@dataclass(frozen=True)
class ShowCatalogs(Statement):
    pass


@dataclass(frozen=True)
class ShowSchemas(Statement):
    """``SHOW SCHEMAS [FROM catalog]``; the name keeps the case it was typed in."""

    catalog: Optional[str] = None


@dataclass(frozen=True)
class ShowTables(Statement):
    """``SHOW TABLES [FROM [catalog.]schema]``; names keep their case."""

    catalog: Optional[str] = None
    schema: Optional[str] = None


@dataclass(frozen=True)
class Describe(Statement):
    """``DESCRIBE | DESC <table>``; ``table`` is a FROM-clause name."""

    table: tuple[str, ...]


@dataclass(frozen=True)
class Analyze(Statement):
    """``ANALYZE [TABLE] <table>``; ``table`` is a FROM-clause name."""

    table: tuple[str, ...]
