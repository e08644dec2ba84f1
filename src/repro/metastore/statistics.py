"""Table and column statistics for cost-based planning.

The paper's production Presto runs "a rule based optimizer, ignoring
statistics" (section XII.A) because statistics could not be kept fresh at
Uber's ingestion rates.  This module is the counter-experiment the
SQL-on-Hadoop comparative study (PAPERS.md) motivates: a small, explicit
statistics model — per-table row counts plus per-column NDV / min / max /
null-fraction — collected on demand by ``ANALYZE TABLE`` and stored in the
metastore, versioned like every other metastore mutation so staleness is
at least observable.

Statistics are *advisory*: every consumer (the cost estimator, the join
reorder rule, the broadcast chooser) must behave identically to the
stats-free engine when they are absent, and must never change query
results when they are present — only plan shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence


@dataclass(frozen=True)
class ColumnStatisticsEntry:
    """Summary of one column: distinct values, range, null fraction.

    ``min_value``/``max_value`` are None for non-orderable types (arrays,
    maps, structs) and for all-null columns.  ``ndv`` counts distinct
    non-null values.  NaN never appears in ``min_value``/``max_value``
    (consistent with the parquet writer's NaN-free chunk statistics).
    """

    ndv: int
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None
    null_fraction: float = 0.0


@dataclass(frozen=True)
class TableStatistics:
    """Row count plus per-column statistics, keyed by column name."""

    row_count: int
    columns: Mapping[str, ColumnStatisticsEntry]

    def column(self, name: str) -> Optional[ColumnStatisticsEntry]:
        return self.columns.get(name)


def _is_nan(value: Any) -> bool:
    return isinstance(value, float) and math.isnan(value)


def column_statistics_from_values(values: Sequence[Any]) -> ColumnStatisticsEntry:
    """Exact statistics over one column's Python values.

    NaN values are excluded from the range (they compare unreliably) but
    still count as distinct non-null values.
    """
    total = len(values)
    defined = [v for v in values if v is not None]
    nulls = total - len(defined)
    orderable = [v for v in defined if not _is_nan(v)]
    low = high = None
    if orderable:
        try:
            low, high = min(orderable), max(orderable)
        except TypeError:
            low = high = None  # non-orderable values (lists, dicts, ...)
    try:
        ndv = len(set(defined))
    except TypeError:
        ndv = len({repr(v) for v in defined})  # unhashable values
    return ColumnStatisticsEntry(
        ndv=ndv,
        min_value=low,
        max_value=high,
        null_fraction=(nulls / total) if total else 0.0,
    )


def statistics_from_rows(
    column_names: Sequence[str], rows: Sequence[Sequence[Any]]
) -> TableStatistics:
    """Exact table statistics computed from materialized rows.

    Used by connectors whose data is already in memory (the memory
    connector) and as the oracle the hive footer-derived collection is
    tested against.
    """
    columns = {
        name: column_statistics_from_values([row[i] for row in rows])
        for i, name in enumerate(column_names)
    }
    return TableStatistics(row_count=len(rows), columns=columns)
