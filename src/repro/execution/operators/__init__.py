"""Vectorized operator implementations, one module per operator family.

Each module also keeps its original row-at-a-time implementation (the
``*_rows`` functions) as the oracle of the differential tests and the
baseline of ``benchmarks/bench_operator_kernels.py``; callers import those
from the module itself.
"""

from repro.execution.operators.scan import execute_table_scan, execute_values
from repro.execution.operators.filter_project import execute_filter, execute_project
from repro.execution.operators.aggregation import execute_aggregation
from repro.execution.operators.joins import execute_join, execute_spatial_join
from repro.execution.operators.sorting import execute_limit, execute_sort, execute_topn

__all__ = [
    "execute_table_scan",
    "execute_values",
    "execute_filter",
    "execute_project",
    "execute_aggregation",
    "execute_join",
    "execute_spatial_join",
    "execute_limit",
    "execute_sort",
    "execute_topn",
]
