"""Incrementally refreshed materialized views over a hybrid table.

A :class:`MaterializedView` is a grouped aggregation (``GROUP BY`` keys
plus ``count``/``sum``/``min``/``max`` aggregates) maintained *as a
watermark fold*: ``refresh(to)`` reads exactly the rows in
``[self.watermark, to)`` through
:meth:`~repro.realtime.hybrid.HybridTable.read_rows_between` — the lake
below the sealed watermark, the tail above — and folds them into
per-group aggregation states.  Because the underlying log is append-only
and the delta ranges never overlap, every event contributes to the view
exactly once, no matter how ingestion, compaction, and refresh
interleave.

A view is the hybrid connector's aggregation pushdown: the connector's
``apply_aggregation`` answers an offered aggregation with a view that
:meth:`MaterializedView.matches` it, and only when the view's watermark
equals the query's read watermark; the engine's FINAL aggregation
merges the view's rows.  An answered plan returns the same rows as a
scan of the table, which the differential tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.common.errors import SemanticError
from repro.core.functions import (
    MERGEABLE_AGGREGATES,
    GroupFold,
    default_registry,
    parse_type,
)
from repro.core.types import PrestoType
from repro.realtime.hybrid import HybridTable
from repro.realtime.watermark import Watermark


@dataclass(frozen=True)
class ViewAggregate:
    """One aggregate column of a view: function, input column, output name."""

    function: str  # count | sum | min | max
    input: Optional[str]  # None only for count(*)
    output: str


class MaterializedView:
    """One grouped-aggregation view, refreshed by watermark deltas."""

    def __init__(
        self,
        name: str,
        table: HybridTable,
        group_by: Sequence[str],
        aggregates: Sequence[ViewAggregate],
    ) -> None:
        self.name = name
        self.table = table
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self.watermark = Watermark.zero(table.partitions)
        self.refreshes = 0
        self.rows_folded = 0

        table_types = table.column_types()
        for column in self.group_by:
            if column not in table_types:
                raise SemanticError(f"view {name!r}: unknown group column {column!r}")
        registry = default_registry()
        implementations = []
        self.columns: list[tuple[str, PrestoType]] = [
            (c, table_types[c]) for c in self.group_by
        ]
        self._input_indexes: list[Optional[int]] = []
        names = table.column_names()
        for aggregate in self.aggregates:
            if aggregate.function not in MERGEABLE_AGGREGATES:
                raise SemanticError(
                    f"view {name!r}: unsupported aggregate {aggregate.function!r}"
                )
            if aggregate.input is None:
                argument_types: list[PrestoType] = []
                self._input_indexes.append(None)
            else:
                if aggregate.input not in table_types:
                    raise SemanticError(
                        f"view {name!r}: unknown aggregate input {aggregate.input!r}"
                    )
                argument_types = [table_types[aggregate.input]]
                self._input_indexes.append(names.index(aggregate.input))
            handle, implementation = registry.resolve_aggregate(
                aggregate.function, argument_types
            )
            implementations.append(implementation)
            self.columns.append((aggregate.output, parse_type(handle.return_type)))

        self._group_indexes = [names.index(c) for c in self.group_by]
        self._fold = GroupFold(implementations)

    # -- maintenance ----------------------------------------------------------

    def refresh(self, to: Optional[Watermark] = None) -> int:
        """Fold the delta ``[watermark, to)`` into the view; returns rows read.

        Defaults to refreshing up to the table's committed watermark.  The
        delta ranges of successive refreshes tile the log, so the fold is
        exactly-once by construction.
        """
        target = to if to is not None else self.table.committed
        if not target.dominates(self.watermark):
            raise SemanticError(
                f"view {self.name!r}: refresh target {target!r} is behind "
                f"view watermark {self.watermark!r}"
            )
        if target == self.watermark:
            return 0
        delta = self.table.read_rows_between(self.watermark, target)
        for row in delta:
            self._fold.fold(
                tuple(row[i] for i in self._group_indexes),
                [() if i is None else (row[i],) for i in self._input_indexes],
            )
        self.watermark = target
        self.refreshes += 1
        self.rows_folded += len(delta)
        return len(delta)

    # -- reads ----------------------------------------------------------------

    def rows(self) -> list[tuple]:
        """Finalized view rows in a deterministic (sorted-key) order."""
        finalized = self._fold.rows()
        width = len(self.group_by)
        finalized.sort(key=lambda row: tuple(_sort_key(v) for v in row[:width]))
        return finalized

    def column_names(self) -> list[str]:
        return [n for n, _ in self.columns]

    def matches(
        self,
        grouping_columns: Sequence[str],
        aggregates: Sequence[tuple[str, Optional[str]]],
    ) -> bool:
        """Whether this view computes exactly the requested aggregation.

        ``aggregates`` are (function, input-column) pairs in output order;
        grouping columns must match as a set (output wiring is by name).
        """
        if sorted(grouping_columns) != sorted(self.group_by):
            return False
        have = {(a.function, a.input) for a in self.aggregates}
        return all(tuple(w) in have for w in aggregates)


def _sort_key(value) -> tuple[str, str]:
    # NULLs and mixed types still need a total order for determinism.
    return (type(value).__name__, str(value))
