"""Bytecodes per query: a deterministic count of the host work one query does.

Run from the repository root::

    python tools/bytecodes.py [--workload dash_small] [--split-size N] [--seed 7] [--rounds 3]

The workload is one of ``benchmarks/e2e``'s (``dash_small``, ``scan_mem``,
``storm_cluster``), built from ``--seed`` at its full size exactly as the
end-to-end benchmark builds it (inputs, oracle, load) and warmed as it
warms it (cold query, one untimed round).  Then ``--rounds`` rounds run
under ``sys.settrace`` with opcode events on, and the tool prints the
Python bytecodes executed per query.  A storm round is one replay of the
storm ``--seconds 1`` makes (33 queries).  ``--split-size`` overrides the
workload's split size, for the fact table and the dimension table alike.

Only bytecodes of Python frames count: time inside numpy or other C code
does not, which is what makes the count a measure of interpreter overhead
(per split, per task, per stage) rather than of row work.  The count does
not move with the machine's load.  String hashing changes set iteration
order, so the tool reruns itself with ``PYTHONHASHSEED=0`` when the
variable is unset.  The benchmark's files are imported, never edited.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
WORKLOADS = ("dash_small", "scan_mem", "storm_cluster")


class OpcodeCounter:
    """Counts opcode events of every Python frame while active."""

    def __init__(self) -> None:
        self.opcodes = 0

    def _trace(self, frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            self.opcodes += 1
        return self._trace

    def __enter__(self) -> "OpcodeCounter":
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)


def _workload(name: str, seed: int, split_size: int | None):
    for path in (ROOT / "benchmarks", ROOT / "src", E2E):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from workloads import FULL, WORKLOADS as CLASSES

    size = FULL[name]
    if split_size is not None:
        size = dataclasses.replace(size, split_size=split_size, dim_split_size=split_size)
    workload = CLASSES[name](name, seed, size, 1.0)
    workload.generate()
    workload.build_oracle()
    workload.load()
    workload.cold_query()
    workload.warm_up()
    return workload


def count(name: str, seed: int = 7, split_size: int | None = None, rounds: int = 3) -> dict:
    """Bytecodes per query of ``rounds`` warm rounds of workload ``name``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; one of {', '.join(WORKLOADS)}")
    workload = _workload(name, seed, split_size)
    if name == "storm_cluster":
        from bench_traffic_storm import replay_storm

        queries = len(workload.storm) * rounds
        with OpcodeCounter() as counter:
            for _ in range(rounds):
                replay_storm(
                    workload.storm, max_running=workload.MAX_RUNNING, rows=workload.size.rows
                )
    else:
        from ledger import execute_plain

        queries = len(workload.templates) * rounds
        with OpcodeCounter() as counter:
            for _ in range(rounds):
                for template in workload.templates:
                    execute_plain(workload.targets[template.target], template.sql)
    return {
        "workload": name,
        "seed": seed,
        "split_size": split_size,
        "queries": queries,
        "bytecodes_per_query": counter.opcodes / queries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="dash_small", choices=WORKLOADS)
    parser.add_argument("--split-size", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") is None:
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.run([sys.executable, __file__, *sys.argv[1:]], env=env).returncode
    print(json.dumps(count(args.workload, args.seed, args.split_size, args.rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
