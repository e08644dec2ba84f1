"""Self-test of the end-to-end benchmark at toy sizes.

Run with ``python -m pytest benchmarks/e2e -q`` (tier-1 collects only
``tests/``, so this file does not ride along there).
"""

from __future__ import annotations

import json
import re

import pytest

import run
from workloads import SMOKE, WORKLOADS

SPEC = run.load_spec()
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def end_to_end():
    return {name: run.run_workload(name, 7, 1.0, trace=False, smoke=True) for name in WORKLOAD_NAMES}


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload, and the spans the second one wrote."""
    runs = {}
    for name in WORKLOAD_NAMES:
        first = run.run_workload(name, 7, 1.0, trace=True, smoke=True)
        second = run.run_workload(name, 7, 1.0, trace=True, smoke=True)
        with open(run.ROOT / second["provenance"]["trace_file"]) as source:
            runs[name] = (first, second, json.load(source)["spans"])
    return runs


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_named_metric_is_emitted_and_nothing_unnamed(end_to_end, traced):
    assert set(WORKLOADS) == set(SMOKE) == set(WORKLOAD_NAMES)
    computed_layers = set()
    for name in WORKLOAD_NAMES:
        result = end_to_end[name]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        assert set(result["computed"]) == set(result["metrics"])
        assert all(m["value"] > 0 for m in result["metrics"].values()), "end-to-end metrics are never 0"
        layers = traced[name][1]
        assert layers["correct"]
        assert list(layers["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
        assert set(layers["computed"]) <= set(layers["metrics"])
        computed_layers |= set(layers["computed"])
    assert computed_layers == {m["name"] for m in SPEC["per_layer"]}, "a named layer metric is never computed"


def test_contract_line_has_exactly_the_four_keys(end_to_end):
    line = json.loads(run.contract_line(end_to_end["dash_small"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(metric) == {"value", "unit"} for metric in line["metrics"].values())


def test_simulated_values_and_counts_repeat_exactly(traced):
    exact = {m["name"] for m in SPEC["per_layer"] if run.is_exact(m["unit"])}
    assert len(exact) > 10
    for name, (first, second, _) in traced.items():
        for metric in exact:
            a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
            assert a == b, f"{name}: {metric} changed between identical runs ({a} != {b})"


def test_span_sums_reconcile_with_the_query_span(traced):
    for name, (_, _, spans) in traced.items():
        queries = {s["id"]: s for s in spans if s["name"] == "query"}
        assert queries, name
        covered = dict.fromkeys(queries, 0.0)
        planning = dict.fromkeys((s["query"] for s in queries.values()), 0.0)
        for span in spans:
            if span["name"] in ("engine.submit", "execution.step"):
                assert queries[span["parent"]]["query"] == span["query"]
                covered[span["parent"]] += span["end_ms"] - span["start_ms"]
            elif span["name"] in ("sql.parse", "planner.analyze", "planner.optimize", "planner.fragment"):
                planning[span["query"]] += span["end_ms"] - span["start_ms"]
        for span_id, query in queries.items():
            wall = query["end_ms"] - query["start_ms"]
            assert abs(covered[span_id] - wall) <= 0.05 * wall, (name, query)
            assert planning[query["query"]] > 0.0


def test_a_wrong_expected_row_raises_failed_share():
    workload = WORKLOADS["dash_small"]("dash_small", 7, SMOKE["dash_small"], 1.0)
    workload.generate()
    workload.build_oracle()
    workload.build()
    assert workload.timed_pass().failed == 0
    workload.oracle.expected["quick_count"] = [(-1,)]
    tally = workload.timed_pass()
    assert tally.failed == workload.rounds, "one template per round returns a row the oracle rejects"
    assert 0 < tally.failed / tally.attempted < 1
