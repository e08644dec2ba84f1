"""The one runner, timer and gate evaluator of the benchmark suite.

Each ``bench_*`` module regenerates one table/figure of the paper and
speaks one protocol, which is three names:

``OUTPUT``         its committed ``BENCH_*.json`` at the repository root;
``run(smoke)``     builds the report (a JSON-able dict), whose lists of
                   entries are the rows and series the paper reports;
``gates(report)``  the qualitative *shape* of the result (who wins, by
                   roughly what factor), stated as data with :func:`gate`.

:func:`run_script` does the rest for one script and :func:`run_all` for
every script: the two flags, the tables (printed from the report), the
JSON, reading the committed file before overwriting it, gate evaluation
and the exit code.  The command shape is the same for all of them:
``PYTHONPATH=src python benchmarks/bench_<name>.py [--smoke] [--output FILE]``.
Importing this module puts the repository root on ``sys.path``, so a script
reaches the reference lanes of ``tests/reference/`` (its baselines and
oracles) as ``tests.reference.*`` without touching the path itself.

Absolute numbers differ from the paper's — the substrate is a simulator,
not the authors' testbed — so a gate is one of three kinds a loaded host
can hold: a ratio of two lanes timed by :func:`lane_ratio`, a count of
work the engine did or avoided, or a figure on the simulated clock.  A
script whose full run states no lane-ratio gate has no host time in its
report: it repeats to the last digit, and every leaf is held to the
committed file.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import operator
import sys
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.append(str(REPO_ROOT))

LANE_RATIO = "lane ratio"
WORK_COUNT = "work count"
SIMULATED = "simulated figure"

_OPS = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "==": operator.eq,
}


# -- the timing primitive -----------------------------------------------------


class LaneRatio(NamedTuple):
    slow_ms: float
    fast_ms: float
    ratio: float  # slow_ms / fast_ms
    slow_result: Any
    fast_result: Any


def lane_ratio(
    slow: Callable[[], Any], fast: Callable[[], Any], repeat: int = 3
) -> LaneRatio:
    """Time two lanes of the same work against each other.

    The lanes alternate in this process, slow first, ``repeat`` times, and
    each keeps its best run, so drift in host speed lands on both sides of
    the ratio.  Garbage is collected before every run and the collector is
    off while the clock runs: a pause must not land inside one lane.  Each
    lane's last result comes back so the caller can check the lanes agree;
    a lane has to consume its own output (drain the generator it builds).
    """
    best = [math.inf, math.inf]
    results = [None, None]
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(repeat):
            for lane, fn in enumerate((slow, fast)):
                gc.collect()
                gc.disable()
                start = time.perf_counter()
                results[lane] = fn()
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                best[lane] = min(best[lane], elapsed_ms)
    finally:
        if gc_was_enabled:
            gc.enable()
    return LaneRatio(best[0], best[1], best[0] / best[1], results[0], results[1])


# -- gates ----------------------------------------------------------------------


def gate(description: str, kind: str, value: Any, op: str, threshold: Any) -> dict:
    """One shape assertion as data: ``value op threshold``, already judged."""
    assert kind in (LANE_RATIO, WORK_COUNT, SIMULATED), kind
    return {
        "description": description,
        "kind": kind,
        "value": value,
        "op": op,
        "threshold": threshold,
        "passed": bool(_OPS[op](value, threshold)),
    }


def _leaves(node: Any, path: str = "") -> dict[str, Any]:
    if not isinstance(node, (dict, list)):
        return {path: node}
    children = node.items() if isinstance(node, dict) else enumerate(node)
    found: dict[str, Any] = {}
    for key, child in children:
        found.update(_leaves(child, f"{path}/{key}"))
    return found


def moved_leaves(committed: dict, report: dict) -> list[str]:
    """Paths of the leaves (gate list aside) that differ between two reports."""
    old, new = (
        _leaves({k: v for k, v in side.items() if k != "gates"})
        for side in (committed, report)
    )
    missing = object()
    return sorted(
        path
        for path in old.keys() | new.keys()
        if old.get(path, missing) != new.get(path, missing)
    )


# -- small helpers the scripts share --------------------------------------------


def normalized(rows: Sequence[Sequence[Any]]) -> list[tuple]:
    """Rows with floats cut to ten significant digits: summation order differs
    between execution paths, the answer must not."""
    return [
        tuple(float(f"{v:.10g}") if isinstance(v, float) else v for v in row)
        for row in rows
    ]


def percentile(values: Sequence[float], p: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(int(round(p / 100.0 * (len(ordered) - 1))), len(ordered) - 1)
    return ordered[index]


def geometric_mean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- the runner -------------------------------------------------------------------


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    """Render a paper-style results table to stdout."""
    widths = [
        max(len(str(h)), *(len(_fmt(row[i])) for row in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    line = "+".join("-" * (w + 2) for w in widths)
    print(f"\n=== {title} ===")
    print(line)
    print(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print(line)
    for row in rows:
        print(" | ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))
    print(line)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:,.2f}" if abs(value) >= 1.0 else f"{value:.4g}"
    return str(value)


def report_tables(title: str, report: dict) -> list[tuple]:
    """The report as tables: its scalar leaves in one row under ``title``,
    then one table per list of entries (or dict of them), headed by the
    keys themselves — a column's heading names the JSON leaf it shows."""
    name = report["benchmark"]
    tables = []
    header = {}
    for key, value in report.items():
        if key == "gates":
            continue
        if isinstance(value, dict):
            nested = all(isinstance(v, dict) for v in value.values())
            value = [{key: k, **v} for k, v in value.items()] if nested else [value]
        if not (isinstance(value, list) and value and isinstance(value[0], dict)):
            header[key] = value
        else:
            columns = list(value[0])
            rows = [[entry.get(c, "-") for c in columns] for entry in value]
            tables.append((f"{name}: {key}", columns, rows))
    return [(title, list(header), [list(header.values())]), *tables]


def _flags(description: Optional[str], argv: Optional[Sequence[str]]):
    parser = argparse.ArgumentParser(
        description=description, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--smoke", action="store_true", help="toy sizes; only the gates that hold at them"
    )
    parser.add_argument(
        "--output",
        help="where the JSON goes (default: the committed file for a full run, nowhere for --smoke)",
    )
    return parser.parse_args(argv)


def _execute(module, smoke: bool, output: Optional[Path]) -> tuple[dict, Optional[dict]]:
    """Run one script; returns (report with judged gates, committed report)."""
    # Read the committed file *before* the run overwrites it.
    path = REPO_ROOT / module.OUTPUT
    committed = json.loads(path.read_text()) if path.exists() else None
    # Through JSON, so the report compares with a committed file as written.
    report = json.loads(json.dumps(module.run(smoke)))
    assert report["smoke"] is smoke and "benchmark" in report, module.__name__
    gates = list(module.gates(report))
    timed = any(g["kind"] == LANE_RATIO for g in gates)
    if not (smoke or timed or committed is None):
        moved = moved_leaves(committed, report)
        if moved:
            print(f"moved against {module.OUTPUT}: " + ", ".join(moved[:8]))
        gates.append(
            gate(f"every leaf equals the committed {module.OUTPUT}",
                 SIMULATED, len(moved), "==", 0)
        )
    report["gates"] = gates
    for table in report_tables(module.__doc__.splitlines()[0], report):
        print_table(*table)
    if output is None and not smoke:
        output = path
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
    return report, committed


def _gate_rows(report: dict, committed: Optional[dict]) -> list[list]:
    """One row per gate: what the committed file read, what this run reads."""
    before = {g["description"]: g["value"] for g in (committed or {}).get("gates", [])}
    return [
        [
            g["description"],
            g["kind"],
            _fmt(before.get(g["description"], "-")),
            _fmt(g["value"]),
            f"{g['op']} {_fmt(g['threshold'])}",
            "pass" if g["passed"] else "FAIL",
        ]
        for g in report["gates"]
    ]


_GATE_HEADERS = ["gate", "kind", "committed", "this run", "holds when", "result"]


def run_script(name: str, argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``bench_*`` script imported as ``name`` (its
    ``__name__``: ``"__main__"`` when run by path); returns its exit code."""
    module = sys.modules[name]
    args = _flags(module.__doc__, argv)
    report, committed = _execute(
        module, args.smoke, Path(args.output) if args.output else None
    )
    print_table(f"Gates: {report['benchmark']}", _GATE_HEADERS, _gate_rows(report, committed))
    return 0 if all(g["passed"] for g in report["gates"]) else 1


def scripts() -> list[str]:
    """The registry: every ``bench_*`` module beside this file."""
    return sorted(
        path.stem
        for path in Path(__file__).parent.glob("bench_*.py")
        if path.stem != "bench_all"
    )


def run_all(argv: Optional[Sequence[str]] = None) -> int:
    """Run every registered script; ``--output`` names a directory here."""
    args = _flags(run_all.__doc__, argv)
    rows: list[list] = []
    failed: list[str] = []
    for name in scripts():
        module = importlib.import_module(name)
        output = Path(args.output) / module.OUTPUT if args.output else None
        print(f"\n##### {name}")
        report, committed = _execute(module, args.smoke, output)
        rows += [[name.removeprefix("bench_"), *row] for row in _gate_rows(report, committed)]
        failed += [f"{name}: {g['description']}" for g in report["gates"] if not g["passed"]]
    print_table(
        "Trajectory: committed -> this run, every gate of every script",
        ["script", *_GATE_HEADERS],
        rows,
    )
    for line in failed:
        print(f"FAILED {line}")
    return 1 if failed else 0
