"""End-to-end benchmark: SQL text to rows, on four workloads, in host time.

One command measures what a user of the engine sees (latency, throughput,
set-up time, memory) and, in a separate traced run, which layer of
``src/repro`` the time went to.  BENCHMARK.json at the repository root
names every metric and workload; README.md here explains them.

    python3 benchmarks/e2e/run.py                      # all workloads, end to end
    python3 benchmarks/e2e/run.py --trace              # all workloads, per layer
    python3 benchmarks/e2e/run.py --workload scan_mem --seed 7 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --smoke              # toy sizes, both modes
    python3 benchmarks/e2e/run.py --aa                 # two sets, compared
    python3 benchmarks/e2e/run.py --spread 10          # ten seeds, quartiles

With ``--workload`` the last line of output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The engine, and replay_storm with its _harness sibling, are imported
# from the checkout this file sits in; nothing needs installing.
for path in (ROOT / "benchmarks", ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as source:
        return json.load(source)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def setup_s(parts: dict[str, float]) -> float:
    return parts["setup.load_s"] + parts["setup.warmup_s"]


def provenance(seed: int, seconds: float, started: float, load_at_start: float, detail: dict) -> dict:
    commit = ""
    # Only in a checkout that is itself a repository: git would otherwise
    # go looking in the directories above it.
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m_start": load_at_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "seed": seed,
        "seconds": seconds,
        "gc": "enabled; one gc.collect() before each set-up and before each pass",
        "wall_s": time.perf_counter() - started,
        **detail,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload in this process; returns the result with all detail."""
    from workloads import FULL, PASSES, SMOKE, WORKLOADS
    from ledger import Ledger

    spec = load_spec()
    started = time.perf_counter()
    load_at_start = os.getloadavg()[0]
    size = (SMOKE if smoke else FULL)[name]
    workload = WORKLOADS[name](name, seed, size, seconds)
    # Inputs and the checker are the benchmark's own cost, not the
    # system's set-up; they are reported as layer metrics only, as timed.
    self_cost = {
        "setup.datagen_s": _timed(workload.generate),
        "setup.oracle_s": _timed(workload.build_oracle),
    }

    if trace:
        computed = {**self_cost, **workload.build()}
        gc.collect()
        ledger = Ledger()
        tally, layers = workload.traced_run(ledger)
        computed.update(layers)
        computed["core.from_rows_ms_per_krow"] = workload.from_rows_ms_per_krow()
        trace_path = HERE / "out" / f"trace_{name}.json"
        ledger.write(str(trace_path), name)
        attempted, failed = tally.attempted, tally.failed
        detail = {
            "traced_queries": len(ledger.records),
            "spans": len(ledger.spans),
            "trace_file": str(trace_path.relative_to(ROOT)),
            **tally.detail(),
        }
        declared = spec["per_layer"]
        # A layer this workload does not exercise did no work: 0.
        values = {m["name"]: computed.get(m["name"], 0.0) for m in declared}
    else:
        # Every pass sets the system up afresh and runs the same rounds on
        # it, so the passes measure the same thing and the median pass
        # rides out a stretch the speed probe could not correct.
        set_ups, passes = [], []
        for _ in range(PASSES):
            set_ups.append(workload.build())
            gc.collect()
            passes.append(workload.timed_pass())
        computed = {
            "setup_s": statistics.median(setup_s(parts) for parts in set_ups),
            "queries_per_s": statistics.median(tally.queries_per_s() for tally in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        attempted = sum(tally.attempted for tally in passes)
        failed = sum(tally.failed for tally in passes)
        detail = {
            "set_ups": set_ups,
            "passes": [{"queries_per_s": tally.queries_per_s(), **tally.detail()} for tally in passes],
            **self_cost,
        }
        declared = spec["end_to_end"]
        values = {m["name"]: computed[m["name"]] for m in declared}
    detail.update(units=size.units(seconds), units_are="rounds per pass (storm_cluster: queries per replay)")

    return {
        "workload": name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        # What this workload measured itself, as opposed to defaulted.
        "computed": sorted(computed),
        "provenance": provenance(seed, seconds, started, load_at_start, detail),
    }


def print_result(result: dict, trace: bool) -> None:
    print(f"== {result['workload']}  ({'per-layer, traced' if trace else 'end to end, tracing off'}) ==")
    for name, metric in result["metrics"].items():
        print(f"{name:<46} {metric['value']:>16.6f} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':<46} {share:>16.6f} ratio  ({result['failed']} of {result['attempted']} attempted)")
    print("provenance " + json.dumps(result["provenance"]))
    unnamed = set(result["computed"]) - set(result["metrics"])
    if unnamed:
        print(f"metrics computed but not named in BENCHMARK.json: {sorted(unnamed)}")


def contract_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


# -- whole sets, each workload in a fresh child process ---------------------


def run_child(name: str, seed: int, seconds: float, trace: int, echo: bool = True) -> dict:
    """One workload in its own process, so set-up time and memory are its own."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip().splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0:
        raise SystemExit(f"{name}: exited with code {done.returncode}")
    return json.loads(lines[-1])


def run_set(seed: int, seconds: float, trace: int, echo: bool = True) -> dict[str, dict]:
    return {w["name"]: run_child(w["name"], seed, seconds, trace, echo) for w in load_spec()["workloads"]}


def run_aa(seed: int, seconds: float) -> bool:
    """Two sets on the same tree, end to end and traced.

    Every end-to-end difference must be inside its bound, and every
    per-layer value on the simulated clock and every exact count must be
    identical.
    """
    spec = load_spec()
    first, second = run_set(seed, seconds, 0, echo=False), run_set(seed, seconds, 0, echo=False)
    ok = True
    print(f"{'workload':<14} {'metric':<16} {'first':>14} {'second':>14} {'diff':>8} {'bound':>6}")
    for name in first:
        for metric in spec["end_to_end"]:
            a, b = (run[name]["metrics"][metric["name"]]["value"] for run in (first, second))
            diff = abs(b - a) / a
            inside = diff <= metric["bound"]
            ok &= inside
            print(
                f"{name:<14} {metric['name']:<16} {a:>14.4f} {b:>14.4f} {diff:>8.4f} "
                f"{metric['bound']:>6.2f}{'' if inside else '  OUTSIDE'}"
            )
        ok &= first[name]["correct"] and second[name]["correct"]
    exact = [m["name"] for m in spec["per_layer"] if is_exact(m["unit"])]
    first, second = run_set(seed, seconds, 1, echo=False), run_set(seed, seconds, 1, echo=False)
    for name in first:
        moved = [
            metric for metric in exact
            if first[name]["metrics"][metric]["value"] != second[name]["metrics"][metric]["value"]
        ]
        ok &= not moved and first[name]["correct"] and second[name]["correct"]
        print(f"{name:<14} {len(exact)} simulated-clock and count metrics: {'identical' if not moved else f'MOVED {moved}'}")
    return ok


def is_exact(unit: str) -> bool:
    """Units that repeat exactly per seed: the simulated clock and counts."""
    return unit.startswith("sim_") or unit in ("count", "rows")


def run_spread(seed: int, seconds: float, runs: int) -> bool:
    """``runs`` seeds per workload: median and interquartile share per metric.

    This is the procedure the benchmark's bounds are judged by: the
    distance between the first and third quartile, as a share of the
    median, should stay under a third of the metric's bound.
    """
    spec = load_spec()
    report, ok = {}, True
    for workload in spec["workloads"]:
        name = workload["name"]
        results = [run_child(name, seed + i, seconds, 0, echo=False) for i in range(runs)]
        ok &= all(r["correct"] for r in results)
        report[name] = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            iqr_share = (q3 - q1) / median
            # Spread wider than the bound: a later comparison on this pair
            # is unresolved, not unchanged.
            resolved = iqr_share <= metric["bound"]
            report[name][metric["name"]] = {
                "median": median, "iqr_share": iqr_share, "bound": metric["bound"],
                "resolved": resolved, "unit": metric["unit"], "values": values,
            }
            print(
                f"{name:<14} {metric['name']:<16} median {median:>14.4f} {metric['unit']:<7} "
                f"iqr/median {iqr_share:>7.4f}  bound {metric['bound']:.2f}"
                f"{'' if resolved else '  UNRESOLVED'}",
                flush=True,
            )
    out = HERE / "out" / "spread.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": [seed + i for i in range(runs)], "seconds": seconds, "workloads": report}, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return ok


def run_smoke(seed: int) -> bool:
    """All four workloads at toy sizes, both modes, in this process."""
    ok = True
    for workload in load_spec()["workloads"]:
        for trace in (False, True):
            result = run_workload(workload["name"], seed, 1.0, trace, smoke=True)
            print_result(result, trace)
            ok &= result["correct"] and set(result["computed"]) <= set(result["metrics"])
    return ok


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of the timed section; fixes the operation count")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="toy sizes, in-process, under 30 s")
    parser.add_argument("--aa", action="store_true", help="run the full set twice and compare")
    parser.add_argument("--spread", type=int, metavar="RUNS", help="RUNS seeds per workload; quartiles")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        import workloads  # noqa: F401  (fail early, before any child is started)
    except ImportError as error:
        # sys.exit with a message prints it to stderr and exits with code 1.
        sys.exit(f"benchmarks/e2e runs inside a checkout of the repository: {error}")

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(result, bool(args.trace))
        print(contract_line(result))
        return 0 if result["correct"] else 1
    if args.smoke:
        ok = run_smoke(args.seed)
    elif args.aa:
        ok = run_aa(args.seed, args.seconds)
    elif args.spread:
        ok = run_spread(args.seed, args.seconds, args.spread)
    else:
        ok = all(r["correct"] for r in run_set(args.seed, args.seconds, args.trace).values())
    print(f"total wall {time.perf_counter() - started:.1f} s; {'all results correct' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
