"""No oracle in production: the reference lanes live in ``tests/reference/``.

The row-at-a-time operators and their grouped fold, the expression
interpreter, the single-pipeline run, the row-at-a-time dynamic-filter
build and its per-value membership rule, the lakehouse oracle, the
linear-scan cluster and the sort-path key lookups are the references the
differential tests compare against and the baselines some benchmarks
time; ``tests/reference/`` defines each of them.  The process-wide switch
that once built VARCHAR columns as object arrays is deleted.  This walks
the AST of every module under ``src/repro`` and fails where one names a
reference or the switch (a definition, a name, an attribute, an import, a
``global``), or imports anything from ``tests``, so neither a reference
nor the switch can grow back into production.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
REFERENCE = REPO / "tests" / "reference"

# Reference -> the module of tests/reference that defines it.
REFERENCES = {
    "evaluate_interpreted": "interpreter.py",
    "execute_aggregation_rows": "operators.py",
    "GroupFold": "operators.py",
    "_hash_join_rows": "operators.py",
    "_sorted_rows": "operators.py",
    "_SortKey": "operators.py",
    "canonical_key": "operators.py",
    "execute_direct": "pipeline.py",
    "_execute_pipeline": "pipeline.py",
    "build_dynamic_filter": "dynamic_filters.py",
    "filter_matches": "dynamic_filters.py",
    "expected_mask": "dynamic_filters.py",
    "oracle_engine": "lakehouse.py",
    "replayed_log_rows": "lakehouse.py",
    "visible_log_keys": "lakehouse.py",
    "expected_log_keys": "lakehouse.py",
    "assert_exactly_once": "lakehouse.py",
    "LinearScanCluster": "cluster.py",
    "unique_column_codes": "keys.py",
    "searchsorted_probe_codes": "keys.py",
}

# The deleted varchar switch: nothing defines these any more.
SWITCH = {
    "object_varchar_lane",
    "varchar_blocks_enabled",
    "set_varchar_blocks_enabled",
    "_VARCHAR_BLOCKS_ENABLED",
}

FORBIDDEN = set(REFERENCES) | SWITCH


def forbidden_names(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every forbidden name the module defines or uses."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name.rsplit(".", 1)[-1]]
        elif isinstance(node, ast.Global):
            names = node.names
        else:
            continue
        line = getattr(node, "lineno", 0)
        found.extend((line, name) for name in names if name in FORBIDDEN)
    return sorted(found)


def imports_from_tests(tree: ast.AST) -> list[int]:
    """Lines of every import of the ``tests`` package or a module in it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        if any(module.split(".")[0] == "tests" for module in modules):
            lines.append(node.lineno)
    return lines


def src_modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def test_no_module_but_the_defining_one_names_a_reference():
    offenders = [
        f"{module}:{line} names {name}"
        for module, tree in src_modules()
        for line, name in forbidden_names(tree)
    ]
    assert offenders == []


def test_no_module_under_src_imports_from_tests():
    offenders = [
        f"{module}:{line}"
        for module, tree in src_modules()
        for line in imports_from_tests(tree)
    ]
    assert offenders == []


@pytest.mark.parametrize("name, module", sorted(REFERENCES.items()))
def test_each_reference_is_defined_where_the_walk_expects_it(name, module):
    tree = ast.parse((REFERENCE / module).read_text())
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert name in defined


def test_the_walk_sees_imports_attributes_and_calls():
    source = (
        "from tests.reference.operators import _hash_join_rows\n"
        "def execute(node):\n"
        "    return kernels.canonical_key(node), _sorted_rows(node)\n"
        "def evaluate_interpreted(node):\n"
        "    global _VARCHAR_BLOCKS_ENABLED\n"
        "import tests.reference.pipeline\n"
        "from repro.core import blocks\n"
    )
    tree = ast.parse(source)
    assert forbidden_names(tree) == [
        (1, "_hash_join_rows"),
        (3, "_sorted_rows"),
        (3, "canonical_key"),
        (4, "evaluate_interpreted"),
        (5, "_VARCHAR_BLOCKS_ENABLED"),
    ]
    assert imports_from_tests(tree) == [1, 6]
