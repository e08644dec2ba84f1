"""Runtime dynamic filters: build-side summaries pushed into probe scans.

When a hash join's build side finishes, its join-key values are known
exactly — before the probe side has scanned a single row (the fragmenter
schedules the build fragment strictly before the fragment holding the
join).  A :class:`DynamicFilter` holds one key column's sorted distinct
build values, the same encoding the join index keeps, and the scheduler
pushes it into the probe-side table scan, where it is applied at three
granularities:

- **split level** — conjuncts over partition keys prune whole partitions
  at split enumeration (via the serialized expression form);
- **row-group level** — the parquet reader checks footer min/max and
  dictionaries against the expression form and skips groups;
- **row level** — every surviving page is masked against the full value
  set, looked up the way the join looks up its probe keys
  (:func:`repro.execution.kernels.key_positions`), so the mask is exact
  at any build size.

Dynamic filters are only attached to join types that drop probe rows
lacking a build-side match (``inner`` and ``right``); ``left``/``full``
joins preserve unmatched probe rows, so filtering their probe side would
change results.  NULL probe keys never match in those join types either,
so the filter drops them.

Everything here is a function of the build side's values, so a retried
task — or a re-run of the whole query — sees the identical filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional, Sequence

import numpy as np

from repro.core.blocks import Block
from repro.core.expressions import (
    CallExpression,
    ConstantExpression,
    RowExpression,
    SpecialForm,
    SpecialFormExpression,
    VariableReferenceExpression,
    combine_conjuncts,
)
from repro.core.types import BOOLEAN, PrestoType
from repro.execution.kernels import _unique, column_codes, key_positions, position_table

# Serialize the value set as an IN expression only while it is small —
# the expression travels into readers and evaluates per row group.
IN_EXPRESSION_LIMIT = 100


@dataclass
class DynamicFilter:
    """One join key's build-side values: ``values`` holds the distinct
    non-null ones, ascending (kinds that do not compare order by kind
    first), or is None when the build side held none."""

    values: Optional[np.ndarray] = None
    build_rows: int = 0

    @property
    def is_empty(self) -> bool:
        """True when the build side had no defined keys: nothing matches."""
        return self.values is None

    @property
    def build_distinct(self) -> int:
        """How many distinct keys the build side held."""
        return 0 if self.values is None else len(self.values)

    @cached_property
    def bounds(self) -> Optional[tuple[Any, Any]]:
        """``(min, max)`` of the values, the array's ends; None when the
        filter is empty or its values do not order (ints beside strings)."""
        if self.values is None:
            return None
        if self.values.dtype == object:
            try:
                return min(self.values), max(self.values)
            except TypeError:
                return None
        return tuple(self.values[[0, -1]].tolist())

    @property
    def form(self) -> str:
        """The expression form :meth:`to_expression` renders: ``equal``
        for one value, ``in`` up to ``IN_EXPRESSION_LIMIT``, ``range``
        beyond it, ``none`` when empty or past the limit with no bounds."""
        if self.is_empty:
            return "none"
        if self.build_distinct == 1:
            return "equal"
        if self.build_distinct <= IN_EXPRESSION_LIMIT:
            return "in"
        return "none" if self.bounds is None else "range"

    @cached_property
    def _dense(self) -> Optional[tuple[int, np.ndarray]]:
        return None if self.values is None else position_table(self.values)

    def mask(self, block: Block) -> np.ndarray:
        """Whether each position's value is one of the build's; NULL and
        NaN never are."""
        if self.values is None:
            return np.zeros(block.position_count, dtype=bool)
        return key_positions(self.values, self._dense, block) >= 0

    def to_expression(
        self, column: str, presto_type: PrestoType, registry
    ) -> Optional[RowExpression]:
        """Expression form over connector column ``column`` (:attr:`form`),
        or None.

        An empty filter has no expression — callers handle it via
        :attr:`is_empty`.
        """
        form = self.form
        if form == "none":
            return None
        variable = VariableReferenceExpression(column, presto_type)
        if form == "range":
            low, high = self.bounds
            return combine_conjuncts(
                [
                    _comparison(
                        registry,
                        "greater_than_or_equal",
                        variable,
                        ConstantExpression(low, presto_type),
                    ),
                    _comparison(
                        registry,
                        "less_than_or_equal",
                        variable,
                        ConstantExpression(high, presto_type),
                    ),
                ]
            )
        constants = tuple(ConstantExpression(v, presto_type) for v in self.values.tolist())
        if form == "equal":
            return _comparison(registry, "equal", variable, constants[0])
        return SpecialFormExpression(SpecialForm.IN, BOOLEAN, (variable,) + constants)


@dataclass
class DynamicFilterSet:
    """All dynamic filters targeting one probe-side table scan.

    ``filters`` maps each connector column name to the filters targeting
    it — one per join criteria pair, so a scan probed by several joins
    accumulates several entries whose conjunction applies.
    ``expression_dict`` is the serialized conjunction of the filters'
    expression forms over *connector column* names — the shape connector
    handles carry in ``constraint`` — precomputed once at build time so
    retried tasks and split enumeration see the identical predicate.
    """

    filters: dict[str, list[DynamicFilter]] = field(default_factory=dict)
    expression_dict: Optional[dict] = None

    @property
    def is_empty(self) -> bool:
        return any(
            f.is_empty for column_filters in self.filters.values() for f in column_filters
        )


def dynamic_filter_for(blocks: Sequence[Block]) -> DynamicFilter:
    """Summarize one build-side key column, the values of ``blocks``.

    Each block factorizes through :func:`column_codes`; the uniques its
    rows use (a dictionary may hold others) merge through
    :func:`repro.execution.kernels._unique` into one sorted distinct
    array.  NULL and NaN (code ``-1``) equal no probe key, so neither is
    a member: a build side holding nothing else is empty.
    """
    members = []
    for block in blocks:
        codes, uniq = column_codes(block)
        used = np.zeros(len(uniq), dtype=bool)
        used[codes[codes >= 0]] = True
        if used.any():
            members.append(uniq[used])
    rows = sum(block.position_count for block in blocks)
    if not members:
        return DynamicFilter(build_rows=rows)
    values = members[0] if len(members) == 1 else _unique(np.concatenate(members))[0]
    return DynamicFilter(values=values, build_rows=rows)


def _comparison(registry, name: str, left: RowExpression, right: RowExpression):
    handle, _ = registry.resolve_scalar(name, [left.type, right.type])
    return CallExpression(name, handle, BOOLEAN, (left, right))
