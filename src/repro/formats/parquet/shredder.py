"""Dremel record shredding and assembly.

Shredding converts one top-level column's values into per-leaf triplet
streams (repetition level, definition level, value); assembly reconstructs
the original values.  This is the machinery underneath both writers and
both readers; the *old* reader assembles full records for every column,
the *new* reader avoids assembly wherever it can (columnar reads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.types import ArrayType, MapType, PrestoType, RowType
from repro.formats.parquet.schema import LeafColumn, ParquetSchema, _enumerate_leaves


@dataclass
class ColumnLevels:
    """Triplet stream for one leaf column.

    ``values[i]`` is ``None`` whenever ``definition[i]`` is below the
    leaf's max definition level.
    """

    repetition: list[int] = field(default_factory=list)
    definition: list[int] = field(default_factory=list)
    values: list[Any] = field(default_factory=list)

    def append(self, rep: int, definition: int, value: Any) -> None:
        self.repetition.append(rep)
        self.definition.append(definition)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.repetition)


def shred_column(
    name: str, presto_type: PrestoType, values: list[Any]
) -> dict[str, ColumnLevels]:
    """Shred one top-level column's values into per-leaf triplet streams."""
    leaves = list(_enumerate_leaves(name, presto_type, 0, 0))
    out: dict[str, ColumnLevels] = {leaf.path: ColumnLevels() for leaf in leaves}
    leaf_paths_under: dict[str, list[str]] = {}

    def paths_under(path: str) -> list[str]:
        cached = leaf_paths_under.get(path)
        if cached is None:
            dotted = path + "."
            cached = [p for p in out if p == path or p.startswith(dotted)]
            leaf_paths_under[path] = cached
        return cached

    def emit_all(path: str, rep: int, definition: int) -> None:
        for leaf_path in paths_under(path):
            out[leaf_path].append(rep, definition, None)

    for value in values:
        _shred(presto_type, value, name, 0, 0, 0, out, emit_all)
    return out


def _shred(
    presto_type: PrestoType,
    value: Any,
    path: str,
    rep: int,
    definition: int,
    rep_depth: int,
    out: dict[str, ColumnLevels],
    emit_all,
) -> None:
    """Append ``value``'s triplets at ``path`` to the leaf streams in ``out``;
    ``emit_all(path, rep, definition)`` writes a null to every leaf under
    ``path``."""
    if isinstance(presto_type, RowType):
        if value is None:
            emit_all(path, rep, definition)
            return
        for f in presto_type.fields:
            _shred(
                f.type,
                value.get(f.name) if isinstance(value, dict) else None,
                f"{path}.{f.name}",
                rep,
                definition + 1,
                rep_depth,
                out,
                emit_all,
            )
        return
    if isinstance(presto_type, ArrayType):
        if value is None:
            emit_all(path, rep, definition)
            return
        if not value:
            emit_all(path, rep, definition + 1)
            return
        own_rep = rep_depth + 1
        for i, element in enumerate(value):
            _shred(
                presto_type.element_type,
                element,
                f"{path}.element",
                rep if i == 0 else own_rep,
                definition + 2,
                own_rep,
                out,
                emit_all,
            )
        return
    if isinstance(presto_type, MapType):
        if value is None:
            emit_all(path, rep, definition)
            return
        if not value:
            emit_all(path, rep, definition + 1)
            return
        own_rep = rep_depth + 1
        for i, (key, entry_value) in enumerate(value.items()):
            entry_rep = rep if i == 0 else own_rep
            _shred(
                presto_type.key_type,
                key,
                f"{path}.key",
                entry_rep,
                definition + 2,
                own_rep,
                out,
                emit_all,
            )
            _shred(
                presto_type.value_type,
                entry_value,
                f"{path}.value",
                entry_rep,
                definition + 2,
                own_rep,
                out,
                emit_all,
            )
        return
    # Scalar leaf.
    if value is None:
        out[path].append(rep, definition, None)
    else:
        out[path].append(rep, definition + 1, value)


class _Cursor:
    __slots__ = ("levels", "position")

    def __init__(self, levels: ColumnLevels) -> None:
        self.levels = levels
        self.position = 0

    def exhausted(self) -> bool:
        return self.position >= len(self.levels)

    def peek_definition(self) -> int:
        return self.levels.definition[self.position]

    def peek_repetition(self) -> int:
        return self.levels.repetition[self.position]

    def take(self) -> tuple[int, int, Any]:
        i = self.position
        self.position += 1
        return (
            self.levels.repetition[i],
            self.levels.definition[i],
            self.levels.values[i],
        )


def assemble_column(
    name: str,
    presto_type: PrestoType,
    chunks: dict[str, ColumnLevels],
    num_records: int,
) -> list[Any]:
    """Reassemble one top-level column's values from leaf triplet streams."""
    cursors = {path: _Cursor(levels) for path, levels in chunks.items()}
    paths_under_cache: dict[str, list[str]] = {}

    def paths_under(path: str) -> list[str]:
        cached = paths_under_cache.get(path)
        if cached is None:
            dotted = path + "."
            cached = [p for p in cursors if p == path or p.startswith(dotted)]
            if not cached:
                raise KeyError(f"no leaf columns under {path!r}")
            paths_under_cache[path] = cached
        return cached

    return [_read(presto_type, name, 0, 0, cursors, paths_under) for _ in range(num_records)]


def _read(
    presto_type: PrestoType,
    path: str,
    definition: int,
    rep_depth: int,
    cursors: dict[str, _Cursor],
    paths_under,
) -> Any:
    """One value at ``path``, taken from the leaf cursors;
    ``paths_under(path)`` lists the leaves under ``path``, and the first
    of them stands for all."""
    if not isinstance(presto_type, (RowType, ArrayType, MapType)):
        _, leaf_definition, value = cursors[path].take()
        return value if leaf_definition >= definition + 1 else None
    leaves = paths_under(path)
    first = cursors[leaves[0]]
    head = first.peek_definition()
    if head <= definition:
        _consume(cursors, leaves)
        return None
    if isinstance(presto_type, RowType):
        return {
            f.name: _read(
                f.type, f"{path}.{f.name}", definition + 1, rep_depth, cursors, paths_under
            )
            for f in presto_type.fields
        }
    if head == definition + 1:
        _consume(cursors, leaves)
        return [] if isinstance(presto_type, ArrayType) else {}
    own_rep = rep_depth + 1
    if isinstance(presto_type, ArrayType):
        elements = []
        while True:
            elements.append(
                _read(
                    presto_type.element_type,
                    f"{path}.element",
                    definition + 2,
                    own_rep,
                    cursors,
                    paths_under,
                )
            )
            if first.exhausted() or first.peek_repetition() != own_rep:
                return elements
    result: dict = {}
    while True:
        key = _read(
            presto_type.key_type, f"{path}.key", definition + 2, own_rep, cursors, paths_under
        )
        result[key] = _read(
            presto_type.value_type, f"{path}.value", definition + 2, own_rep, cursors, paths_under
        )
        if first.exhausted() or first.peek_repetition() != own_rep:
            return result


def _consume(cursors: dict[str, _Cursor], leaves: list[str]) -> None:
    for leaf_path in leaves:
        cursors[leaf_path].take()
