"""Parquet schema: leaf columns with repetition/definition levels.

A table schema (engine types) maps to a tree of optional groups (structs),
repeated groups (arrays/maps) and optional leaves.  Each *leaf* is stored
as its own column on disk — "Parquet is storing nested fields as separate
columns on disk.  This gives us the opportunity not to scan unwanted fields
even within the same struct" (section V.B).

Level accounting (Dremel):

- every optional node (all structs and leaves here) adds 1 definition level;
- every array/map adds 2 definition levels (container non-null; slot
  exists, so an empty container is distinguishable) and 1 repetition level;
- map entries contribute ``<path>.key`` and ``<path>.value`` leaves,
  arrays contribute ``<path>.element``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.types import (
    ArrayType,
    MapType,
    PrestoType,
    RowType,
    parse_type,
)


@dataclass(frozen=True)
class LeafColumn:
    """One physical column: a scalar leaf of the schema tree."""

    path: str  # dotted: "base.city_id", "tags.element", "features.key"
    type: PrestoType  # scalar type of the stored values
    max_definition_level: int
    max_repetition_level: int


class ParquetSchema:
    """Schema of one file: ordered top-level columns with nested structure."""

    def __init__(self, columns: list[tuple[str, PrestoType]]) -> None:
        self.columns = list(columns)
        self._types = dict(columns)
        self._leaves: list[LeafColumn] = []
        for name, presto_type in columns:
            self._leaves.extend(_enumerate_leaves(name, presto_type, 0, 0))
        self._leaf_index = {leaf.path: leaf for leaf in self._leaves}

    def column_names(self) -> list[str]:
        return [name for name, _ in self.columns]

    def leaves(self) -> list[LeafColumn]:
        return list(self._leaves)

    def leaf(self, path: str) -> LeafColumn:
        return self._leaf_index[path]

    def has_leaf(self, path: str) -> bool:
        return path in self._leaf_index

    def leaves_under(self, prefix: str) -> list[LeafColumn]:
        """All leaves whose path equals ``prefix`` or starts with it.

        This is the unit of nested column pruning: requesting
        ``base.city_id`` selects exactly the leaves under that path.
        """
        dotted = prefix + "."
        return [
            leaf
            for leaf in self._leaves
            if leaf.path == prefix or leaf.path.startswith(dotted)
        ]

    def type_at(self, path: str) -> PrestoType:
        """Engine type of an arbitrary dotted path (leaf or subtree)."""
        parts = path.split(".")
        current = self._types[parts[0]]
        for part in parts[1:]:
            if isinstance(current, RowType):
                current = current.field_type(part)
            elif isinstance(current, ArrayType) and part == "element":
                current = current.element_type
            elif isinstance(current, MapType) and part == "key":
                current = current.key_type
            elif isinstance(current, MapType) and part == "value":
                current = current.value_type
            else:
                raise KeyError(f"no path {path!r} in schema")
        return current

    # -- serialization (for the file footer) --------------------------------

    def to_dict(self) -> dict:
        return {"columns": [[name, t.display()] for name, t in self.columns]}

    @classmethod
    def from_dict(cls, data: dict) -> "ParquetSchema":
        return cls([(name, parse_type(t)) for name, t in data["columns"]])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParquetSchema) and self.columns == other.columns


def _enumerate_leaves(
    path: str, presto_type: PrestoType, def_level: int, rep_level: int
) -> Iterator[LeafColumn]:
    if isinstance(presto_type, RowType):
        for field in presto_type.fields:
            yield from _enumerate_leaves(
                f"{path}.{field.name}", field.type, def_level + 1, rep_level
            )
        return
    if isinstance(presto_type, ArrayType):
        yield from _enumerate_leaves(
            f"{path}.element", presto_type.element_type, def_level + 2, rep_level + 1
        )
        return
    if isinstance(presto_type, MapType):
        yield from _enumerate_leaves(
            f"{path}.key", presto_type.key_type, def_level + 2, rep_level + 1
        )
        yield from _enumerate_leaves(
            f"{path}.value", presto_type.value_type, def_level + 2, rep_level + 1
        )
        return
    # Scalar leaf: itself optional (+1 definition level).
    yield LeafColumn(path, presto_type, def_level + 1, rep_level)
