"""RowExpression: the self-contained expression representation of Table I.

Section IV.B: "We replaced Presto's old Abstract Syntax Tree (AST) based
expression representation with a new representation called RowExpression.
RowExpression is completely self-contained and can be shared across multiple
systems."

The five subtypes reproduce the paper's Table I exactly:

===========================  ==============================================
ExpressionType               Represents
===========================  ==============================================
ConstantExpression           Literal values such as (1, BIGINT)
VariableReferenceExpression  Reference to an input column / previous output
CallExpression               Function calls: arithmetic, casts, UDFs
SpecialFormExpression        Built-ins: IN, IF, IS_NULL, AND, OR, NOT,
                             DEREFERENCE
LambdaDefinitionExpression   Anonymous lambda functions
===========================  ==============================================

Every expression serializes to/from plain dicts (JSON-compatible) so it can
cross the connector boundary; ``CallExpression`` carries a resolved
:class:`~repro.core.functions.FunctionHandle`, which is what lets a
connector consistently re-resolve the function on its side.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

from repro.core.functions import FunctionHandle
from repro.core.types import PrestoType, parse_type


class RowExpression:
    """Base class; every expression knows its result type."""

    type: PrestoType

    def to_dict(self) -> dict:
        raise NotImplementedError

    def children(self) -> Sequence["RowExpression"]:
        return ()

    def walk(self) -> Iterator["RowExpression"]:
        """Yield self and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def variables(self) -> list["VariableReferenceExpression"]:
        """All column references in this tree, in first-appearance order."""
        seen: dict[str, VariableReferenceExpression] = {}
        for node in self.walk():
            if isinstance(node, VariableReferenceExpression) and node.name not in seen:
                seen[node.name] = node
        return list(seen.values())

    def __repr__(self) -> str:
        return self.display()

    def display(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantExpression(RowExpression):
    """A literal value with its type, e.g. ``(1, BIGINT)``."""

    value: Any
    type: PrestoType

    def to_dict(self) -> dict:
        return {
            "@type": "constant",
            "value": self.value,
            "type": self.type.display(),
        }

    def display(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)

    def __hash__(self) -> int:
        value = self.value
        if isinstance(value, (list, dict)):
            value = repr(value)
        return hash(("constant", value, self.type))


@dataclass(frozen=True)
class VariableReferenceExpression(RowExpression):
    """A reference to an input column or an upstream relation's output."""

    name: str
    type: PrestoType

    def to_dict(self) -> dict:
        return {"@type": "variable", "name": self.name, "type": self.type.display()}

    def display(self) -> str:
        return self.name


@dataclass(frozen=True)
class CallExpression(RowExpression):
    """A function call with a resolved, serializable FunctionHandle."""

    display_name: str
    function_handle: FunctionHandle
    type: PrestoType
    arguments: tuple[RowExpression, ...]

    def children(self) -> Sequence[RowExpression]:
        return self.arguments

    def to_dict(self) -> dict:
        return {
            "@type": "call",
            "displayName": self.display_name,
            "functionHandle": self.function_handle.to_dict(),
            "type": self.type.display(),
            "arguments": [a.to_dict() for a in self.arguments],
        }

    def display(self) -> str:
        infix = {
            "equal": "=",
            "not_equal": "<>",
            "less_than": "<",
            "less_than_or_equal": "<=",
            "greater_than": ">",
            "greater_than_or_equal": ">=",
            "add": "+",
            "subtract": "-",
            "multiply": "*",
            "divide": "/",
            "modulus": "%",
        }
        name = self.function_handle.name
        if name in infix and len(self.arguments) == 2:
            return f"({self.arguments[0].display()} {infix[name]} {self.arguments[1].display()})"
        args = ", ".join(a.display() for a in self.arguments)
        return f"{self.display_name}({args})"


class SpecialForm(enum.Enum):
    """Built-in forms with non-function evaluation semantics."""

    AND = "AND"
    OR = "OR"
    NOT = "NOT"
    IN = "IN"
    IF = "IF"
    IS_NULL = "IS_NULL"
    DEREFERENCE = "DEREFERENCE"


@dataclass(frozen=True)
class SpecialFormExpression(RowExpression):
    """Special built-in calls: IN, IF, IS_NULL, AND, DEREFERENCE, ...

    ``DEREFERENCE(struct_expr, ConstantExpression(field_name))`` is the form
    behind nested field access like ``base.city_id``.
    """

    form: SpecialForm
    type: PrestoType
    arguments: tuple[RowExpression, ...]

    def children(self) -> Sequence[RowExpression]:
        return self.arguments

    def to_dict(self) -> dict:
        return {
            "@type": "special",
            "form": self.form.value,
            "type": self.type.display(),
            "arguments": [a.to_dict() for a in self.arguments],
        }

    def display(self) -> str:
        if self.form is SpecialForm.DEREFERENCE:
            return f"{self.arguments[0].display()}.{self.arguments[1].value}"
        if self.form is SpecialForm.AND:
            return "(" + " AND ".join(a.display() for a in self.arguments) + ")"
        if self.form is SpecialForm.OR:
            return "(" + " OR ".join(a.display() for a in self.arguments) + ")"
        if self.form is SpecialForm.NOT:
            return f"(NOT {self.arguments[0].display()})"
        if self.form is SpecialForm.IS_NULL:
            return f"({self.arguments[0].display()} IS NULL)"
        if self.form is SpecialForm.IN:
            values = ", ".join(a.display() for a in self.arguments[1:])
            return f"({self.arguments[0].display()} IN ({values}))"
        args = ", ".join(a.display() for a in self.arguments)
        return f"{self.form.value}({args})"


@dataclass(frozen=True)
class LambdaDefinitionExpression(RowExpression):
    """An anonymous function, e.g. ``(x, y) -> x + y``."""

    argument_names: tuple[str, ...]
    argument_types: tuple[PrestoType, ...]
    body: RowExpression
    type: PrestoType  # the lambda's return type

    def children(self) -> Sequence[RowExpression]:
        return (self.body,)

    def to_dict(self) -> dict:
        return {
            "@type": "lambda",
            "argumentNames": list(self.argument_names),
            "argumentTypes": [t.display() for t in self.argument_types],
            "body": self.body.to_dict(),
            "type": self.type.display(),
        }

    def display(self) -> str:
        args = ", ".join(self.argument_names)
        return f"({args}) -> {self.body.display()}"


def expression_from_dict(data: dict) -> RowExpression:
    """Deserialize any RowExpression.  Inverse of ``to_dict``.

    This is the entry point connectors use to reconstitute pushed-down
    expressions — the "completely self-contained" property of Table I.
    """
    kind = data["@type"]
    if kind == "constant":
        return ConstantExpression(data["value"], parse_type(data["type"]))
    if kind == "variable":
        return VariableReferenceExpression(data["name"], parse_type(data["type"]))
    if kind == "call":
        return CallExpression(
            data["displayName"],
            FunctionHandle.from_dict(data["functionHandle"]),
            parse_type(data["type"]),
            tuple(expression_from_dict(a) for a in data["arguments"]),
        )
    if kind == "special":
        return SpecialFormExpression(
            SpecialForm(data["form"]),
            parse_type(data["type"]),
            tuple(expression_from_dict(a) for a in data["arguments"]),
        )
    if kind == "lambda":
        return LambdaDefinitionExpression(
            tuple(data["argumentNames"]),
            tuple(parse_type(t) for t in data["argumentTypes"]),
            expression_from_dict(data["body"]),
            parse_type(data["type"]),
        )
    raise ValueError(f"unknown RowExpression kind {kind!r}")


# -- convenience constructors used across the planner ----------------------


def constant(value: Any, presto_type: PrestoType) -> ConstantExpression:
    return ConstantExpression(value, presto_type)


def variable(name: str, presto_type: PrestoType) -> VariableReferenceExpression:
    return VariableReferenceExpression(name, presto_type)


def and_(*terms: RowExpression) -> RowExpression:
    from repro.core.types import BOOLEAN

    flattened: list[RowExpression] = []
    for term in terms:
        if isinstance(term, SpecialFormExpression) and term.form is SpecialForm.AND:
            flattened.extend(term.arguments)
        else:
            flattened.append(term)
    if len(flattened) == 1:
        return flattened[0]
    return SpecialFormExpression(SpecialForm.AND, BOOLEAN, tuple(flattened))


def or_(*terms: RowExpression) -> RowExpression:
    from repro.core.types import BOOLEAN

    if len(terms) == 1:
        return terms[0]
    return SpecialFormExpression(SpecialForm.OR, BOOLEAN, tuple(terms))


def not_(term: RowExpression) -> RowExpression:
    from repro.core.types import BOOLEAN

    return SpecialFormExpression(SpecialForm.NOT, BOOLEAN, (term,))


def dereference(base: RowExpression, field_name: str, field_type: PrestoType) -> RowExpression:
    from repro.core.types import VARCHAR

    return SpecialFormExpression(
        SpecialForm.DEREFERENCE,
        field_type,
        (base, ConstantExpression(field_name, VARCHAR)),
    )


def conjuncts(expression: Optional[RowExpression]) -> list[RowExpression]:
    """Split a predicate into its top-level AND terms."""
    if expression is None:
        return []
    if isinstance(expression, SpecialFormExpression) and expression.form is SpecialForm.AND:
        result: list[RowExpression] = []
        for arg in expression.arguments:
            result.extend(conjuncts(arg))
        return result
    return [expression]


def combine_conjuncts(terms: Sequence[RowExpression]) -> Optional[RowExpression]:
    """Rebuild a predicate from AND terms; ``None`` when empty."""
    terms = list(terms)
    if not terms:
        return None
    return and_(*terms)


# Comparison function name -> (value-vs-bound test, name once the operands swap).
_COMPARISONS = {
    "equal": (operator.eq, "equal"),
    "greater_than": (operator.gt, "less_than"),
    "greater_than_or_equal": (operator.ge, "less_than_or_equal"),
    "less_than": (operator.lt, "greater_than"),
    "less_than_or_equal": (operator.le, "greater_than_or_equal"),
}


@dataclass(frozen=True)
class ColumnTest:
    """``column <op> constant`` or ``column IN (constants)``.

    The one conjunct shape pushdown consumers absorb (statistics and
    dictionary skipping, selectivity, term/range queries, index probes,
    log seeks).  ``op`` is ``"in"`` or a comparison function name with the
    column on the left.  NULL constants are dropped — comparing with NULL
    is never true — so empty ``values`` means no row satisfies the test.
    """

    column: str
    op: str
    values: tuple[Any, ...]

    def admits(self, value: Any) -> bool:
        """Whether a row holding ``value`` in the column passes the test."""
        if value is None:
            return False
        compare = operator.eq if self.op == "in" else _COMPARISONS[self.op][0]
        return any(compare(value, constant) for constant in self.values)

    def excludes_range(self, low: Any, high: Any) -> bool:
        """True when no value in ``[low, high]`` (min/max statistics) passes."""
        if self.op in ("in", "equal"):
            return all(v < low or v > high for v in self.values)
        # A one-sided bound admits some value of the range iff it admits
        # the end of the range on its open side.
        return not self.admits(high if self.op.startswith("greater") else low)


def match_column_test(conjunct: RowExpression) -> Optional[ColumnTest]:
    """Read a conjunct as a :class:`ColumnTest`; ``None`` for any other shape.

    A constant on the left is flipped (``5 <= c`` is ``c >= 5``).
    """
    if isinstance(conjunct, SpecialFormExpression) and conjunct.form is SpecialForm.IN:
        op, column, constants = "in", conjunct.arguments[0], conjunct.arguments[1:]
    elif (
        isinstance(conjunct, CallExpression)
        and conjunct.function_handle.name in _COMPARISONS
        and len(conjunct.arguments) == 2
    ):
        op = conjunct.function_handle.name
        column, constant = conjunct.arguments
        if isinstance(column, ConstantExpression):
            op, column, constant = _COMPARISONS[op][1], constant, column
        constants = (constant,)
    else:
        return None
    if not isinstance(column, VariableReferenceExpression) or not all(
        isinstance(c, ConstantExpression) for c in constants
    ):
        return None
    return ColumnTest(
        column.name, op, tuple(c.value for c in constants if c.value is not None)
    )


def substitute(
    expression: RowExpression, mapping: dict[str, RowExpression]
) -> RowExpression:
    """Replace variable references by name according to ``mapping``.

    Used by the optimizer to push predicates through projections and to
    rewrite plan expressions in terms of connector column names.
    """
    if isinstance(expression, VariableReferenceExpression):
        return mapping.get(expression.name, expression)
    if isinstance(expression, ConstantExpression):
        return expression
    if isinstance(expression, CallExpression):
        return CallExpression(
            expression.display_name,
            expression.function_handle,
            expression.type,
            tuple(substitute(a, mapping) for a in expression.arguments),
        )
    if isinstance(expression, SpecialFormExpression):
        return SpecialFormExpression(
            expression.form,
            expression.type,
            tuple(substitute(a, mapping) for a in expression.arguments),
        )
    if isinstance(expression, LambdaDefinitionExpression):
        inner = {
            k: v for k, v in mapping.items() if k not in expression.argument_names
        }
        return LambdaDefinitionExpression(
            expression.argument_names,
            expression.argument_types,
            substitute(expression.body, inner),
            expression.type,
        )
    return expression
