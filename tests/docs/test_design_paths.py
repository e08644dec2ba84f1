"""DESIGN.md is a map of the code: every path it cites must exist.

The module map once named ``execution/coordinator.py`` and
``connectors/druid.py`` — files that never existed under those names.
Source paths are written relative to ``src/repro/``; test, benchmark and
example paths relative to the repository root (bare ``bench_*.py`` names
live in ``benchmarks/``).  Globs and ``{a,b}`` alternations may be used.
"""

import glob
import itertools
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CITATION = re.compile(r"[\w/*{},.\-]*\.py\b")
ROOT_PREFIXES = ("tests/", "benchmarks/", "examples/")


def expand_braces(path: str) -> list[str]:
    parts = re.split(r"\{([^}]*)\}", path)
    choices = [
        part.split(",") if index % 2 else [part] for index, part in enumerate(parts)
    ]
    return ["".join(combo) for combo in itertools.product(*choices)]


def cited_paths() -> list[str]:
    text = (REPO / "DESIGN.md").read_text()
    cited = []
    for span in re.findall(r"`([^`]+)`", text):
        cited.extend(CITATION.findall(span))
    return sorted(set(cited))


def resolve(path: str) -> Path:
    if path.startswith(ROOT_PREFIXES):
        return REPO / path
    if path.startswith("bench_"):
        return REPO / "benchmarks" / path
    return REPO / "src" / "repro" / path


def test_design_cites_python_files():
    assert len(cited_paths()) > 50  # the regex still sees the module map


def test_every_cited_python_path_exists():
    missing = [
        path
        for cited in cited_paths()
        for path in expand_braces(cited)
        if not glob.glob(str(resolve(path)))
    ]
    assert not missing, f"DESIGN.md cites files that do not exist: {missing}"
