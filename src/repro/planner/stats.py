"""StatsProvider: the planner's read-side view of table statistics.

Bridges :class:`repro.metastore.statistics.TableStatistics` (collected by
``ANALYZE TABLE`` through the connector SPI) into plan-variable space: a
:class:`~repro.planner.plan.TableScanNode` renames connector columns to
plan variables via its ``assignments``, and every cost-estimation consumer
wants statistics keyed by those variable names.

Lookups are memoized per provider instance (one provider per ``optimize``
call), so a plan with many scans of the same table hits the connector
once.
"""

from __future__ import annotations

from typing import Optional

from repro.connectors.spi import Catalog
from repro.metastore.statistics import ColumnStatisticsEntry, TableStatistics
from repro.planner.plan import TableScanNode


class StatsProvider:
    """Resolves table statistics for plan nodes through the catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog
        self._cache: dict[tuple[str, str, str], Optional[TableStatistics]] = {}

    def table_statistics(
        self, catalog_name: str, handle
    ) -> Optional[TableStatistics]:
        key = (catalog_name, handle.schema_name, handle.table_name)
        if key not in self._cache:
            connector = self._catalog.connector(catalog_name)
            self._cache[key] = connector.get_table_statistics(handle)
        return self._cache[key]

    def stats_for_scan(
        self, scan: TableScanNode
    ) -> Optional[tuple[int, dict[str, ColumnStatisticsEntry]]]:
        """(row_count, column stats keyed by *output variable* name).

        ``None`` when the table was never analyzed.  Variables reading
        dotted subfield paths get no column entry (only top-level columns
        are analyzed), which degrades their selectivity estimates to the
        defaults — never to wrong answers.
        """
        table_stats = self.table_statistics(scan.catalog, scan.handle)
        if table_stats is None:
            return None
        by_variable: dict[str, ColumnStatisticsEntry] = {}
        for variable_name, column in scan.assignments:
            entry = table_stats.column(column)
            if entry is not None:
                by_variable[variable_name] = entry
        return table_stats.row_count, by_variable
