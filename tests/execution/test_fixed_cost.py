"""A prepared query's repeat run pays for its rows, not for its plan.

Everything a run reads off the plan (scans, dynamic-filter targets,
exchange key channels, operator ordinals, resolved aggregates) is built
once per prepared query, in its stage templates, and a memory table
answers splits and pages from what it keeps for its current version.  So
the second run of a cached query over a 100-split table constructs no
``ConnectorSplit``, walks no plan tree and makes its accumulators without
parsing a type.  None of it moves a result: for the seven dashboard texts
of ``benchmarks/e2e`` (the ``dash_small`` workload, seed 7), traced and
untraced, every run's rows, ``QueryStats.as_dict()`` and trace equal the
first run's and the hashes in ``golden_fixed_cost.json``, which the
engine produced before the templates existed.  Query ids and plan node
ids, which count up through the process, are numbered per run before
comparing.
"""

import dataclasses
import hashlib
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

from repro.connectors.spi import ConnectorSplit, ConnectorTableHandle
from repro.core.types import parse_type
from repro.execution.kernels import make_accumulator
from repro.planner.plan import PlanNode

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads((Path(__file__).parent / "golden_fixed_cost.json").read_text())


@pytest.fixture(scope="module")
def workloads():
    """``benchmarks/e2e/workloads``, imported as the benchmark imports it."""
    added = [str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "benchmarks" / "e2e")]
    sys.path[:0] = added
    try:
        yield importlib.import_module("workloads")
    finally:
        for path in added:
            sys.path.remove(path)


def dash_small_engine(workloads, **size):
    """The dash_small engine at seed 7, its size changed by ``size``."""
    spec = dataclasses.replace(workloads.FULL["dash_small"], **size)
    workload = workloads.DashSmall("dash_small", 7, spec, 1.0)
    workload.generate()
    workload.load()
    return workload.targets["main"].engine


def normalized(result) -> dict:
    """Rows, stats and trace of one run, its process-wide ids numbered."""
    stats = result.stats.as_dict()
    del stats["query_id"]
    trace = result.trace.to_dict() if result.trace is not None else None
    run = {"rows": result.rows, "stats": stats, "trace": trace}
    text = json.dumps(run, sort_keys=True, default=repr)
    text = re.sub(r'"query_id": "query-\d+"', '"query_id": "query"', text)
    plan_ids: dict[str, str] = {}
    return json.loads(
        re.sub(r"plan_\d+", lambda m: plan_ids.setdefault(m[0], f"node{len(plan_ids)}"), text)
    )


def digest(run: dict) -> str:
    return hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest()


class Calls:
    """Counts calls of the given functions while active (``sys.setprofile``)."""

    def __init__(self, **functions) -> None:
        self.names = {function.__code__: name for name, function in functions.items()}
        self.counts = dict.fromkeys(functions, 0)

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            name = self.names.get(frame.f_code)
            if name is not None:
                self.counts[name] += 1

    def __enter__(self) -> "Calls":
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)


def test_a_repeat_run_builds_no_split_walks_no_plan_and_parses_no_type(workloads):
    # 1 000 rows at 10 a split: 100 splits of lineitem, about as many of
    # the supplier rows they reference.
    engine = dash_small_engine(workloads, rows=1_000, split_size=10, dim_split_size=10)
    lineitem = ConnectorTableHandle("db", "lineitem")
    assert len(engine.catalog.connector("memory").get_splits(lineitem)) == 100
    for template in workloads.MIX:
        first = engine.execute(template.sql)
        with Calls(
            split=ConnectorSplit.__init__,
            walk=PlanNode.walk,
            parse_type=parse_type,
            make_accumulator=make_accumulator,
        ) as calls:
            again = engine.execute(template.sql)
        assert normalized(again) == normalized(first), template.name
        assert again.stats.splits_scanned >= 100, template.name
        counts = calls.counts
        assert (counts["split"], counts["walk"], counts["parse_type"]) == (0, 0, 0), (
            template.name,
            counts,
        )
        if "count(" in template.sql or "sum(" in template.sql:
            assert counts["make_accumulator"] > 0, template.name


@pytest.mark.parametrize("tracing", [True, False], ids=["traced", "untraced"])
def test_every_run_repeats_the_results_before_templates(workloads, tracing):
    engine = dash_small_engine(workloads)
    engine.tracing = tracing
    for template in workloads.MIX:
        runs = [normalized(engine.execute(template.sql)) for _ in range(3)]
        assert runs[1] == runs[0] and runs[2] == runs[0], template.name
        assert (runs[0]["trace"] is not None) == tracing
        key = f"{template.name}/{'traced' if tracing else 'untraced'}"
        assert digest(runs[0]) == GOLDEN[key], key
