"""Fault-tolerance sweep: query success vs injected task-failure rate.

The operational half of the paper (graceful shutdown, section IX; the
gateway's no-downtime maintenance story, section VIII) presumes that a
staged query survives individual task failures.  This bench quantifies
that: for each injected task-failure rate it runs the same TPC-H-style
aggregate over several seeds, once with task retries on (bounded
attempts + exponential backoff) and once with retries off, and reports
the fraction of queries that succeed, the mean number of retried tasks,
and the mean simulated latency of successful runs.

The qualitative shape to reproduce: without retries, success collapses
roughly as (1 - rate)^tasks — a handful of percent failure rate kills
most multi-task queries — while with retries the success rate stays at
or near 1.0 until the rate is so high that some task exhausts its
attempt budget.  Correctness is also asserted: every successful faulty
run must return exactly the zero-fault rows.
"""

from __future__ import annotations

from _harness import SIMULATED, gate, normalized, run_script
from repro.common.errors import PrestoError
from repro.connectors.memory import MemoryConnector
from repro.execution.engine import PrestoEngine
from repro.execution.faults import FaultInjector
from repro.planner.analyzer import Session
from repro.workloads.tpch import LINEITEM_COLUMNS, generate_lineitem
from tests.reference.pipeline import execute_direct

OUTPUT = "BENCH_fault_tolerance.json"

SQL = (
    "SELECT returnflag, linestatus, sum(quantity), avg(extendedprice), count(*) "
    "FROM lineitem GROUP BY returnflag, linestatus "
    "ORDER BY returnflag, linestatus"
)


def make_engine(rows: int, **kwargs) -> PrestoEngine:
    connector = MemoryConnector(split_size=31)
    connector.create_table("db", "lineitem", LINEITEM_COLUMNS, generate_lineitem(rows))
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"), **kwargs)
    engine.register_connector("memory", connector)
    return engine


def sweep_point(
    rows: int,
    rate: float,
    seeds: range,
    max_task_retries: int,
    oracle_rows: list,
) -> dict:
    succeeded = 0
    retried_total = 0
    simulated_total = 0.0
    for seed in seeds:
        engine = make_engine(
            rows,
            fault_injector=FaultInjector(seed=seed, task_failure_rate=rate),
            max_task_retries=max_task_retries,
        )
        try:
            result = engine.execute(SQL)
        except PrestoError:
            continue
        assert normalized(result.rows) == oracle_rows, (
            f"faulty run diverged from oracle (rate={rate}, seed={seed})"
        )
        succeeded += 1
        retried_total += result.stats.tasks_retried
        simulated_total += result.stats.simulated_ms
    return {
        "task_failure_rate": rate,
        "max_task_retries": max_task_retries,
        "queries": len(seeds),
        "succeeded": succeeded,
        "success_rate": round(succeeded / len(seeds), 3),
        "mean_tasks_retried": round(retried_total / len(seeds), 2),
        "mean_simulated_ms": (
            round(simulated_total / succeeded, 2) if succeeded else None
        ),
    }


def run(smoke: bool) -> dict:
    if smoke:
        rows, seeds = 120, range(4)
        rates = [0.0, 0.1, 0.3]
    else:
        rows, seeds = 250, range(20)
        rates = [0.0, 0.05, 0.1, 0.2, 0.4]
    oracle_rows = normalized(execute_direct(make_engine(rows), SQL).rows)
    points = []
    for rate in rates:
        for max_task_retries in (0, 3):
            points.append(
                sweep_point(rows, rate, seeds, max_task_retries, oracle_rows)
            )
    return {
        "benchmark": "fault_tolerance",
        "paper_section": "VIII/IX (operating through failures)",
        "smoke": smoke,
        "lineitem_rows": rows,
        "queries_per_point": len(seeds),
        "benchmarks": points,
    }


def gates(report: dict) -> list:
    """Retries never hurt, and at nonzero rates they recover queries the
    no-retry configuration loses; the sweep is seeded, so also in smoke."""
    by_key = {
        (p["task_failure_rate"], p["max_task_retries"]): p for p in report["benchmarks"]
    }
    rates = sorted({p["task_failure_rate"] for p in report["benchmarks"]})
    margins = [
        round(by_key[(r, 3)]["success_rate"] - by_key[(r, 0)]["success_rate"], 3)
        for r in rates
    ]
    return [
        gate("no faults, no retries: every query succeeds",
             SIMULATED, by_key[(0.0, 0)]["success_rate"], "==", 1.0),
        gate("no faults, retries on: every query succeeds",
             SIMULATED, by_key[(0.0, 3)]["success_rate"], "==", 1.0),
        gate("no faults: nothing is retried",
             SIMULATED, by_key[(0.0, 3)]["mean_tasks_retried"], "==", 0.0),
        gate("success with retries minus without, worst failure rate",
             SIMULATED, min(margins), ">=", 0),
        gate("success with retries minus without, best failure rate",
             SIMULATED, max(margins), ">", 0),
        gate("mean tasks retried, lowest over the nonzero failure rates",
             SIMULATED, min(by_key[(r, 3)]["mean_tasks_retried"] for r in rates if r > 0),
             ">", 0),
    ]


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
