"""Reach census: is every function in ``src/repro`` called by the program itself?

Run from the repository root (about ten minutes on two cores)::

    python tools/reach_census.py [--jobs N] [--report FILE]

A profile hook (``sys.setprofile``) records every call into ``src/repro``
while these run, each in its own child process:

- the tier-1 suite (``python -m pytest``);
- every ``examples/*.py``;
- ``benchmarks/bench_all.py --smoke``;
- ``benchmarks/e2e/run.py --smoke``.

A call counts as *production* when the first frame above it outside
``src/repro`` that belongs to neither the standard library, an installed
package nor generated code (``<string>``) is not in ``tests/``: an example,
a benchmark script or the CLI.  It counts as *test* when that frame is in
``tests/``, and not at all when there is no such frame.  Only the first
entry into a generator counts: a resumption, or a close from the garbage
collector, runs under whatever frame happens to be on top.
Functions are keyed by (file, first line, name), the first line being the
``def`` line or the first decorator's, which is what ``co_firstlineno``
holds.

Every function is then production-reached, reached only by tests, or never
called.  A function that is not production-reached must be named in
``tools/census_allowlist.txt`` (``path:qualname  reason``, the path relative
to ``src/``), or the census exits 1 and lists it.
"""

from __future__ import annotations

import argparse
import ast
import dis
import inspect
import json
import os
import runpy
import subprocess
import sys
import sysconfig
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
TESTS = ROOT / "tests"
ALLOWLIST = Path(__file__).resolve().with_name("census_allowlist.txt")

# What each child process runs: ("pytest", args) or ("script", path, args).
RUNS = (
    [("pytest", ["-q", "-p", "no:cacheprovider"])]
    + [("script", str(path.relative_to(ROOT)), []) for path in sorted((ROOT / "examples").glob("*.py"))]
    + [
        ("script", "benchmarks/bench_all.py", ["--smoke"]),
        ("script", "benchmarks/e2e/run.py", ["--smoke"]),
    ]
)


# -- the functions -----------------------------------------------------------


def functions() -> list[dict]:
    """Every ``def`` under ``src/repro``: path (relative to ``src/``), qualname,
    first line (first decorator's or the ``def``'s), name and line count."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    found.append({
                        "path": rel, "qualname": qualname, "line": first, "name": child.name,
                        "lines": child.end_lineno - first + 1,
                    })
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


def read_allowlist(path: Path = ALLOWLIST) -> dict[str, str]:
    """``path:qualname`` -> reason; blank lines and ``#`` comments skipped."""
    entries = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        target, _, reason = line.strip().partition(" ")
        if not reason.strip():
            raise ValueError(f"{path.name}:{number}: {target} carries no reason")
        if target in entries:
            raise ValueError(f"{path.name}:{number}: {target} is listed twice")
        entries[target] = reason.strip()
    return entries


# -- the hook (child side) ---------------------------------------------------


_GENERATOR_FLAGS = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


class Recorder:
    """Records (file, first line, name) of each call into ``src/repro``."""

    SKIP, TEST, OTHER = 0, 1, 2

    def __init__(self):
        self.production: set[tuple] = set()
        self.test: set[tuple] = set()
        self._package = str(PACKAGE) + os.sep
        self._tests = str(TESTS) + os.sep
        self._libraries = tuple(
            {sysconfig.get_path(key) + os.sep for key in ("stdlib", "platstdlib", "purelib", "platlib")}
            | {str(Path(__file__).resolve())}
        )
        self._source: dict[str, str | None] = {}
        self._kind: dict[str, int] = {}
        self._entry: dict[tuple, int] = {}  # generator key -> first offset

    def _relative(self, filename: str):
        rel = self._source.get(filename, "")
        if rel == "":
            full = os.path.realpath(filename)
            rel = Path(full).relative_to(SRC).as_posix() if full.startswith(self._package) else None
            self._source[filename] = rel
        return rel

    def _classify(self, filename: str) -> int:
        kind = self._kind.get(filename)
        if kind is None:
            full = os.path.realpath(filename)
            if filename.startswith("<") or full.startswith(self._package) or full.startswith(self._libraries):
                kind = self.SKIP
            elif full.startswith(self._tests):
                kind = self.TEST
            else:
                kind = self.OTHER
            self._kind[filename] = kind
        return kind

    def hook(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        rel = self._relative(code.co_filename)
        if rel is None:
            return
        key = (rel, code.co_firstlineno, code.co_name)
        if key in self.production:
            return
        if code.co_flags & _GENERATOR_FLAGS and frame.f_lasti != self._entry_offset(key, code):
            return
        caller = frame.f_back
        while caller is not None and self._classify(caller.f_code.co_filename) == self.SKIP:
            caller = caller.f_back
        if caller is None:
            return
        if self._kind[caller.f_code.co_filename] == self.TEST:
            self.test.add(key)
        else:
            self.production.add(key)

    def _entry_offset(self, key: tuple, code) -> int:
        """Where a fresh generator frame stands at its first ``call`` event:
        the first ``RESUME`` (Python 3.11+), else -1."""
        offset = self._entry.get(key)
        if offset is None:
            offset = next(
                (i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"), -1
            )
            self._entry[key] = offset
        return offset

    def install(self):
        sys.setprofile(self.hook)

    def dump(self, out: Path):
        out.write_text(json.dumps({
            "production": sorted(self.production),
            "test": sorted(self.test - self.production),
        }))


class _ReinstallPlugin:
    """Puts the hook back before each test phase: two tests install their
    own profiler, and a ``RecursionError`` inside the hook clears it."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def pytest_runtest_setup(self, item):
        self.recorder.install()

    def pytest_runtest_call(self, item):
        self.recorder.install()

    def pytest_runtest_teardown(self, item):
        self.recorder.install()


def child(run: list, out: Path) -> int:
    recorder = Recorder()
    kind, *rest = run
    if kind == "pytest":
        import pytest

        recorder.install()
        try:
            code = pytest.main(rest[0], plugins=[_ReinstallPlugin(recorder)])
        finally:
            sys.setprofile(None)
    else:
        script, args = rest
        path = ROOT / script
        sys.argv = [str(path), *args]
        sys.path.insert(0, str(path.parent))
        recorder.install()
        try:
            runpy.run_path(str(path), run_name="__main__")
            code = 0
        except SystemExit as done:
            code = done.code if isinstance(done.code, int) else (0 if done.code is None else 1)
        finally:
            sys.setprofile(None)
    recorder.dump(out)
    return int(code)


# -- the census (parent side) ------------------------------------------------


def run_children(jobs: int) -> tuple[set, set, list[str]]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    production, test, failures = set(), set(), []
    with tempfile.TemporaryDirectory() as scratch:

        def one(index_run):
            index, run = index_run
            out = Path(scratch) / f"{index}.json"
            done = subprocess.run(
                [sys.executable, __file__, "--child", json.dumps(run), "--out", str(out)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            label = run[1] if run[0] == "script" else "pytest"
            print(f"  {label}: exit {done.returncode}", flush=True)
            if not out.exists():
                return label, None
            return label if done.returncode else None, json.loads(out.read_text())

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for failed, data in pool.map(one, enumerate(RUNS)):
                if failed:
                    failures.append(failed)
                if data is None:
                    continue
                production |= {tuple(key) for key in data["production"]}
                test |= {tuple(key) for key in data["test"]}
    return production, test - production, failures


def census(production: set, test: set, allowlist: dict[str, str]) -> dict:
    rows = []
    for fn in functions():
        key = (fn["path"], fn["line"], fn["name"])
        reach = "production" if key in production else "test" if key in test else "never"
        target = f"{fn['path']}:{fn['qualname']}"
        rows.append({**fn, "reach": reach, "allowed": allowlist.get(target)})
    return {"functions": rows}


def summary(report: dict, allowlist: dict[str, str]) -> list[dict]:
    rows = report["functions"]
    for reach in ("production", "test", "never"):
        chosen = [r for r in rows if r["reach"] == reach]
        print(f"{reach:<11} {len(chosen):>5} functions {sum(r['lines'] for r in chosen):>6} lines")
    print(f"{'total':<11} {len(rows):>5} functions {sum(r['lines'] for r in rows):>6} lines")
    reasons = Counter(r["allowed"] for r in rows if r["reach"] != "production" and r["allowed"])
    print(f"allowlisted  {sum(reasons.values()):>4}")
    for reason, count in reasons.most_common():
        print(f"  {count:>4}  {reason}")
    targets = {f"{r['path']}:{r['qualname']}" for r in rows}
    stale = sorted(set(allowlist) - targets)
    for target in stale:
        print(f"allowlisted but not a function: {target}")
    reached = sorted(
        {f"{r['path']}:{r['qualname']}" for r in rows if r["reach"] == "production" and r["allowed"]}
    )
    for target in reached:
        print(f"allowlisted but production-reached (entry can go): {target}")
    unexplained = [r for r in rows if r["reach"] != "production" and not r["allowed"]]
    for r in unexplained:
        print(f"UNEXPLAINED {r['reach']:<5} {r['path']}:{r['line']} {r['qualname']} ({r['lines']} lines)")
    print(f"{len(unexplained)} functions neither production-reached nor allowlisted")
    return unexplained + [{"stale": target} for target in stale]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--jobs", type=int, default=2, help="child processes at once")
    parser.add_argument("--report", help="write every function and its reach to this JSON file")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(json.loads(args.child), Path(args.out))
    allowlist = read_allowlist()
    production, test, failures = run_children(args.jobs)
    report = census(production, test, allowlist)
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1) + "\n")
    problems = summary(report, allowlist)
    for label in failures:
        print(f"FAILED run: {label}")
    return 1 if problems or failures else 0


if __name__ == "__main__":
    sys.exit(main())
