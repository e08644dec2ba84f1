"""Schema evolution rules for nested data (section V.A).

The company-wide rules the paper describes:

- **Adding** new fields to an existing struct is allowed.  Querying the
  new field over old data (written before the field existed) returns null.
- **Removing** fields is allowed.  Data still ingested into a removed
  field is ignored.
- **Renaming** fields is NOT allowed — the field name identifies the
  column across the metastore schema and the Parquet file schema, so a
  rename would make them mismatch.
- **Type changes** are NOT allowed — Presto is type strict and performs no
  automatic coercion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import SchemaEvolutionError
from repro.core.types import PrestoType, RowType


@dataclass
class SchemaChange:
    """One detected change between schema versions."""

    kind: str  # 'add' | 'remove' | 'type_change'
    path: str
    old_type: Optional[PrestoType] = None
    new_type: Optional[PrestoType] = None


class SchemaEvolutionValidator:
    """Validates a proposed schema against the current one."""

    def diff(
        self,
        old_columns: list[tuple[str, PrestoType]],
        new_columns: list[tuple[str, PrestoType]],
    ) -> list[SchemaChange]:
        """All changes between two column lists, recursing into structs."""
        changes: list[SchemaChange] = []
        self._diff_fields(dict(old_columns), dict(new_columns), "", changes)
        return changes

    def validate(
        self,
        old_columns: list[tuple[str, PrestoType]],
        new_columns: list[tuple[str, PrestoType]],
    ) -> list[SchemaChange]:
        """Raise :class:`SchemaEvolutionError` on any forbidden change."""
        changes = self.diff(old_columns, new_columns)
        for change in changes:
            if change.kind == "type_change":
                raise SchemaEvolutionError(
                    f"type change is not allowed: {change.path} "
                    f"{change.old_type.display()} -> {change.new_type.display()}"
                )
        # Rename detection: a simultaneous remove+add at the same struct
        # level with identical types is treated as a rename attempt.
        removed = {c.path: c for c in changes if c.kind == "remove"}
        added = {c.path: c for c in changes if c.kind == "add"}
        for removed_path, removed_change in removed.items():
            parent = removed_path.rsplit(".", 1)[0] if "." in removed_path else ""
            for added_path, added_change in added.items():
                added_parent = added_path.rsplit(".", 1)[0] if "." in added_path else ""
                if parent == added_parent and removed_change.old_type == added_change.new_type:
                    raise SchemaEvolutionError(
                        f"field rename is not allowed: {removed_path} -> {added_path} "
                        "(rename triggers schema mismatch between metastore and Parquet files)"
                    )
        return changes

    def _diff_fields(
        self,
        old: dict[str, PrestoType],
        new: dict[str, PrestoType],
        prefix: str,
        changes: list[SchemaChange],
    ) -> None:
        for name, old_type in old.items():
            path = f"{prefix}.{name}" if prefix else name
            if name not in new:
                changes.append(SchemaChange("remove", path, old_type=old_type))
                continue
            new_type = new[name]
            if isinstance(old_type, RowType) and isinstance(new_type, RowType):
                self._diff_fields(
                    {f.name: f.type for f in old_type.fields},
                    {f.name: f.type for f in new_type.fields},
                    path,
                    changes,
                )
            elif old_type != new_type:
                changes.append(
                    SchemaChange("type_change", path, old_type=old_type, new_type=new_type)
                )
        for name, new_type in new.items():
            if name not in old:
                path = f"{prefix}.{name}" if prefix else name
                changes.append(SchemaChange("add", path, new_type=new_type))


def resolve_read_schema(
    file_columns: list[tuple[str, PrestoType]],
    table_columns: list[tuple[str, PrestoType]],
) -> list[tuple[str, PrestoType, str]]:
    """Reconcile a file's schema with the (possibly newer) table schema.

    Returns per table column: (name, type, disposition) where disposition is
    ``"read"`` (present in the file), ``"null"`` (added after the file was
    written → nulls), matching the paper's read-side rules.  Columns present
    only in the file (removed from the table) are simply not returned —
    "Presto just ignores them."  The file and the table are compared by
    :meth:`SchemaEvolutionValidator.diff`, so a type change at any depth
    raises :class:`SchemaEvolutionError`: Presto performs no coercion.
    """
    for change in SchemaEvolutionValidator().diff(file_columns, table_columns):
        if change.kind == "type_change":
            raise SchemaEvolutionError(
                f"schema mismatch for column {change.path!r}: file has "
                f"{change.old_type.display()}, table has {change.new_type.display()}"
            )
    file_names = {name for name, _ in file_columns}
    return [
        (name, table_type, "read" if name in file_names else "null")
        for name, table_type in table_columns
    ]
