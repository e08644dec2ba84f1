"""docs/API.md names only symbols that import.

Every table whose second column is ``Module`` maps names to the module
that defines them.  Each back-quoted name in a row's first cell must be
an attribute of that module (``Class.method(args)`` is checked as
``Class``); the module may be written with or without the ``repro.``
prefix, and ``writer_*``-style globs match any module of that shape.
A row that says "Constructor knobs:" lists exactly the constructor
parameters of the class its first cell names, in order.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
QUOTED = re.compile(r"`([^`]+)`")


def documented_symbols() -> list[tuple[str, str]]:
    """(name, module pattern) for every row of every Object/Module table."""
    symbols = []
    in_module_table = False
    for line in (REPO / "docs" / "API.md").read_text().splitlines():
        if not line.startswith("|"):
            in_module_table = False
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) > 1 and cells[1] == "Module":
            in_module_table = True
            continue
        if not in_module_table or not cells[0].startswith("`"):
            continue
        modules = QUOTED.findall(cells[1])
        if not modules:
            continue
        for name in QUOTED.findall(cells[0]):
            symbols.append((name.split(".")[0].split("(")[0], modules[0]))
    return symbols


def candidate_modules(pattern: str) -> list[str]:
    dotted = pattern if pattern.startswith("repro") else f"repro.{pattern}"
    if "*" not in dotted:
        return [dotted]
    return sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in SRC.glob(dotted.replace(".", "/") + ".py")
    )


def resolves(name: str, pattern: str) -> bool:
    return any(
        hasattr(importlib.import_module(module), name)
        for module in candidate_modules(pattern)
    )


def test_api_tables_are_seen():
    assert len(documented_symbols()) > 60  # the row parser still finds them


def test_every_documented_symbol_imports():
    missing = [
        f"{name} ({pattern})"
        for name, pattern in documented_symbols()
        if not resolves(name, pattern)
    ]
    assert not missing, f"docs/API.md names symbols that do not import: {missing}"


def constructor_knob_rows() -> list[tuple[str, str, list[str]]]:
    """(class, module, documented knobs) for every row saying "Constructor
    knobs:"; the knobs are those of the first name in the row's first cell."""
    rows = []
    for line in (REPO / "docs" / "API.md").read_text().splitlines():
        if not line.startswith("|") or "Constructor knobs:" not in line:
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        name = QUOTED.findall(cells[0])[0]
        module = candidate_modules(QUOTED.findall(cells[1])[0])[0]
        knobs = QUOTED.findall(line.split("Constructor knobs:", 1)[1])
        rows.append((name, module, knobs))
    return rows


KNOB_ROWS = constructor_knob_rows()


def test_knob_rows_are_seen():
    assert {name for name, _, _ in KNOB_ROWS} >= {
        "PrestoEngine",
        "Optimizer",
        "Evaluator",
        "PrestoClusterSim",
        "StreamingLakehouse",
        "FaultInjector",
        "PrestoGateway",
        "DataCacheConfig",
    }


@pytest.mark.parametrize(
    "name, module, knobs", KNOB_ROWS, ids=[name for name, _, _ in KNOB_ROWS]
)
def test_constructor_knobs_are_the_signature(name, module, knobs):
    """An option cannot be added or removed without the docs saying so."""
    cls = getattr(importlib.import_module(module), name)
    assert knobs == list(inspect.signature(cls.__init__).parameters)[1:]
