"""Differential oracle for concurrent serving.

Queries executed concurrently through the cluster event loop must return
exactly what single-query execution returns — same rows (vs the direct
in-process pipeline, the repo's standing oracle) and same
:class:`QueryStats` (vs sequential staged execution), with and without
fault injection.  The fault injector's coin hashes
``(seed, query_id, stage, task, attempt)`` and ignores wall interleaving,
so as long as query ids are assigned in the same submission order the
concurrent run must retry and fail the exact same attempts the
sequential run does.
"""

import pytest

from repro.execution.cluster import PrestoClusterSim
from repro.execution.faults import FaultInjector
from repro.workloads.traffic_storm import QUERY_TEMPLATES, make_storm_engine

QUERIES = [sql for _, sql in QUERY_TEMPLATES]


def normalize(row):
    # Partial sums merge in a different order than the direct pipeline's
    # sequential fold, so floats may differ in the last ulp (the staged
    # differential suite's standing convention): compare at 10 digits.
    return tuple(
        float(f"{value:.10g}") if isinstance(value, float) else value for value in row
    )

STATS_FIELDS = [
    "tasks_total",
    "tasks_retried",
    "tasks_failed",
    "stages_total",
    "rows_scanned",
    "rows_output",
    "rows_exchanged",
    "simulated_ms",
    "task_records",
]


def run_concurrent(fault_injector=None, max_running=None):
    """All four templates in flight at once; returns handles in order."""
    engine = make_storm_engine(rows=250, fault_injector=fault_injector)
    cluster = PrestoClusterSim(workers=4, slots_per_worker=2)
    if max_running is not None:
        cluster.resource_group("g", max_running=max_running)
    handles = []
    for sql in QUERIES:
        handles.append(engine.submit(sql))
        cluster.submit_handle(
            handles[-1], resource_group="g" if max_running is not None else None
        )
    cluster.run_until_idle()
    assert cluster.max_concurrent_running() > 1, "nothing actually overlapped"
    return handles


class TestConcurrentVsDirectOracle:
    def test_rows_equal_direct_pipeline(self):
        handles = run_concurrent()
        oracle = make_storm_engine(rows=250)
        for handle, sql in zip(handles, QUERIES):
            assert list(map(normalize, handle.result().rows)) == list(
                map(normalize, oracle.execute_direct(sql).rows)
            )

    def test_rows_equal_direct_pipeline_under_faults(self):
        # 10% of task attempts fail and retry; the retried run must still
        # converge to the fault-free direct answer.
        handles = run_concurrent(
            fault_injector=FaultInjector(seed=7, task_failure_rate=0.1)
        )
        oracle = make_storm_engine(rows=250)
        retried = 0
        for handle, sql in zip(handles, QUERIES):
            result = handle.result()
            retried += result.stats.tasks_retried
            assert list(map(normalize, result.rows)) == list(
                map(normalize, oracle.execute_direct(sql).rows)
            )
        assert retried > 0, "fault rate injected no retries; test is vacuous"


class TestConcurrentVsSequentialStaged:
    def assert_stats_equal(self, concurrent_handles, sequential_results):
        for handle, result in zip(concurrent_handles, sequential_results):
            concurrent_stats = handle.result().stats
            sequential_stats = result.stats
            for field in STATS_FIELDS:
                assert getattr(concurrent_stats, field) == getattr(
                    sequential_stats, field
                ), field
            assert handle.result().rows == result.rows

    def test_stats_identical_without_faults(self):
        handles = run_concurrent()
        sequential = make_storm_engine(rows=250)
        self.assert_stats_equal(handles, [sequential.execute(sql) for sql in QUERIES])

    def test_stats_identical_under_faults(self):
        seed = 7
        handles = run_concurrent(
            fault_injector=FaultInjector(seed=seed, task_failure_rate=0.1)
        )
        sequential = make_storm_engine(
            rows=250, fault_injector=FaultInjector(seed=seed, task_failure_rate=0.1)
        )
        self.assert_stats_equal(handles, [sequential.execute(sql) for sql in QUERIES])

    def test_stats_identical_with_admission_queueing(self):
        # A concurrency cap forces some queries through the queued path;
        # queueing must not change what the engine computes.
        handles = run_concurrent(max_running=2)
        sequential = make_storm_engine(rows=250)
        self.assert_stats_equal(handles, [sequential.execute(sql) for sql in QUERIES])
