"""Presto's strict SQL type system.

The paper stresses that "Presto is type strict, we do not allow automatic
type coercion when querying Parquet via Presto" (section V.A).  This module
implements the subset of types the paper's workloads use, including the
nested ``ROW`` (struct) type central to section V, and a ``GEOMETRY`` type
for the geospatial plugin of section VI.

Types are immutable and hashable so they can key dictionaries (function
resolution, plan signatures) and be serialized inside ``RowExpression``
trees that cross the connector boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional


class PrestoType:
    """Base class for all SQL types.

    Concrete scalar types are singletons (``BIGINT``, ``VARCHAR``, ...);
    parametric types (``RowType``, ``ArrayType``, ``MapType``) are value
    objects compared structurally.
    """

    name: str = "unknown"

    def is_nested(self) -> bool:
        """Whether values of this type contain other typed values."""
        return False

    def is_numeric(self) -> bool:
        return False

    def is_orderable(self) -> bool:
        return True

    def display(self) -> str:
        """Render the type the way Presto's ``typeof()`` would."""
        return self.name

    def __repr__(self) -> str:
        return self.display()

    # Scalar singletons compare by identity; parametric types override.
    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return hash(self.name)


class _ScalarType(PrestoType):
    """A non-parametric builtin type, used as a singleton."""

    def __init__(self, name: str, numeric: bool = False, orderable: bool = True) -> None:
        self.name = name
        self._numeric = numeric
        self._orderable = orderable

    def is_numeric(self) -> bool:
        return self._numeric

    def is_orderable(self) -> bool:
        return self._orderable


BIGINT = _ScalarType("bigint", numeric=True)
INTEGER = _ScalarType("integer", numeric=True)
DOUBLE = _ScalarType("double", numeric=True)
BOOLEAN = _ScalarType("boolean")
VARCHAR = _ScalarType("varchar")
DATE = _ScalarType("date")
TIMESTAMP = _ScalarType("timestamp")
GEOMETRY = _ScalarType("geometry", orderable=False)
UNKNOWN = _ScalarType("unknown")

_SCALARS = {
    t.name: t
    for t in (BIGINT, INTEGER, DOUBLE, BOOLEAN, VARCHAR, DATE, TIMESTAMP, GEOMETRY, UNKNOWN)
}
# Common aliases accepted by the parser.
_SCALARS["int"] = INTEGER
_SCALARS["long"] = BIGINT
_SCALARS["string"] = VARCHAR
_SCALARS["float"] = DOUBLE


@dataclass(frozen=True)
class RowField:
    """One named field of a ``ROW`` type."""

    name: str
    type: PrestoType


class RowType(PrestoType):
    """A struct with named, ordered fields — ``row(a bigint, b varchar)``.

    The paper's production data commonly has "one high level column with
    struct type ... 20 or sometimes up to 50 fields ... more than 5 levels
    of nesting" (section V.A).
    """

    name = "row"

    def __init__(self, fields: list[RowField]) -> None:
        self.fields: tuple[RowField, ...] = tuple(fields)
        self._index = {f.name: i for i, f in enumerate(self.fields)}
        if len(self._index) != len(self.fields):
            raise ValueError(f"duplicate field names in row type: {fields}")

    @classmethod
    def of(cls, *pairs: tuple[str, PrestoType]) -> "RowType":
        return cls([RowField(n, t) for n, t in pairs])

    def is_nested(self) -> bool:
        return True

    def is_orderable(self) -> bool:
        # Its values are dicts: no key kernel orders or hashes them.
        return False

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def field_index(self, name: str) -> int:
        """Index of field ``name``; raises ``KeyError`` if absent."""
        return self._index[name.lower()] if name.lower() in self._index else self._index[name]

    def has_field(self, name: str) -> bool:
        return name in self._index or name.lower() in self._index

    def field_type(self, name: str) -> PrestoType:
        return self.fields[self.field_index(name)].type

    def display(self) -> str:
        inner = ", ".join(f"{f.name} {f.type.display()}" for f in self.fields)
        return f"row({inner})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RowType) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(("row", self.fields))

    def walk(self, prefix: str = "") -> Iterator[tuple[str, PrestoType]]:
        """Yield every (dotted-path, type) pair, depth first.

        Used by nested column pruning to enumerate leaf columns.
        """
        for f in self.fields:
            path = f"{prefix}.{f.name}" if prefix else f.name
            yield path, f.type
            if isinstance(f.type, RowType):
                yield from f.type.walk(path)


class ArrayType(PrestoType):
    """``array(T)``."""

    name = "array"

    def __init__(self, element_type: PrestoType) -> None:
        self.element_type = element_type

    def is_nested(self) -> bool:
        return True

    def is_orderable(self) -> bool:
        return self.element_type.is_orderable()

    def display(self) -> str:
        return f"array({self.element_type.display()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArrayType) and self.element_type == other.element_type

    def __hash__(self) -> int:
        return hash(("array", self.element_type))


class MapType(PrestoType):
    """``map(K, V)``."""

    name = "map"

    def __init__(self, key_type: PrestoType, value_type: PrestoType) -> None:
        self.key_type = key_type
        self.value_type = value_type

    def is_nested(self) -> bool:
        return True

    def is_orderable(self) -> bool:
        # Presto's maps are not orderable.
        return False

    def display(self) -> str:
        return f"map({self.key_type.display()}, {self.value_type.display()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MapType)
            and self.key_type == other.key_type
            and self.value_type == other.value_type
        )

    def __hash__(self) -> int:
        return hash(("map", self.key_type, self.value_type))


def parse_type(text: str) -> PrestoType:
    """Parse a type string like ``row(a bigint, b array(varchar))``.

    This is the inverse of :meth:`PrestoType.display` and is used by the
    metastore, the schema-evolution service, and tests.
    """
    parser = _TypeParser(text)
    result = parser.parse()
    parser.expect_end()
    return result


class _TypeParser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._pos = 0

    def parse(self) -> PrestoType:
        name = self._identifier()
        lowered = name.lower()
        if lowered == "row":
            return self._parse_row()
        if lowered == "array":
            self._expect("(")
            element = self.parse()
            self._expect(")")
            return ArrayType(element)
        if lowered == "map":
            self._expect("(")
            key = self.parse()
            self._expect(",")
            value = self.parse()
            self._expect(")")
            return MapType(key, value)
        if lowered in _SCALARS:
            # Tolerate parametric varchar like varchar(255): length is ignored
            # because the engine does not enforce bounded varchars.
            self._skip_parenthesized_length()
            return _SCALARS[lowered]
        raise ValueError(f"unknown type {name!r} in {self._text!r}")

    def _parse_row(self) -> RowType:
        self._expect("(")
        fields: list[RowField] = []
        while True:
            fname = self._identifier()
            ftype = self.parse()
            fields.append(RowField(fname, ftype))
            self._skip_ws()
            if self._peek() == ",":
                self._pos += 1
                continue
            break
        self._expect(")")
        return RowType(fields)

    def _skip_parenthesized_length(self) -> None:
        self._skip_ws()
        if self._peek() == "(":
            depth = 0
            while self._pos < len(self._text):
                ch = self._text[self._pos]
                self._pos += 1
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        return
            raise ValueError(f"unbalanced parentheses in {self._text!r}")

    def _identifier(self) -> str:
        self._skip_ws()
        start = self._pos
        while self._pos < len(self._text) and (
            self._text[self._pos].isalnum() or self._text[self._pos] in "_$"
        ):
            self._pos += 1
        if start == self._pos:
            raise ValueError(f"expected identifier at {self._pos} in {self._text!r}")
        return self._text[start : self._pos]

    def _peek(self) -> Optional[str]:
        self._skip_ws()
        return self._text[self._pos] if self._pos < len(self._text) else None

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise ValueError(f"expected {ch!r} at {self._pos} in {self._text!r}")
        self._pos += 1

    def _skip_ws(self) -> None:
        while self._pos < len(self._text) and self._text[self._pos].isspace():
            self._pos += 1

    def expect_end(self) -> None:
        self._skip_ws()
        if self._pos != len(self._text):
            raise ValueError(f"trailing input at {self._pos} in {self._text!r}")


def common_super_type(a: PrestoType, b: PrestoType) -> Optional[PrestoType]:
    """The only implicit widenings the strict engine allows.

    integer → bigint → double.  Everything else must match exactly
    (section V.A: no automatic type coercion).
    """
    if a == b:
        return a
    numeric_rank = {INTEGER: 0, BIGINT: 1, DOUBLE: 2}
    if a in numeric_rank and b in numeric_rank:
        return a if numeric_rank[a] >= numeric_rank[b] else b
    if a is UNKNOWN:
        return b
    if b is UNKNOWN:
        return a
    return None
