"""The row-at-a-time reference lanes have no production caller.

Each operator's reference stays beside its kernel as the oracle of the
differential tests and the baseline of ``benchmarks/bench_operator_kernels.py``;
the expression interpreter stays beside the compiler, the oracle of
``tests/core/test_compiled_differential.py`` and the baseline of
``benchmarks/bench_expressions.py``.
This walks the AST of every module under ``src/repro`` and fails where a
module other than the defining one names a reference, outside the body of
another reference (the row join and the row aggregation canonicalize their
keys through ``canonical_key``), so the fork to a row lane cannot grow back.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# Reference -> the module that defines it, relative to src/repro.
REFERENCES = {
    "execute_aggregation_rows": "execution/operators/aggregation.py",
    "_hash_join_rows": "execution/operators/joins.py",
    "_sorted_rows": "execution/operators/sorting.py",
    "_SortKey": "execution/operators/sorting.py",
    "canonical_key": "execution/kernels.py",
    "evaluate_interpreted": "core/evaluator.py",
}


def names_outside_references(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every reference named outside a reference's body."""
    found = []

    def visit(node: ast.AST, inside: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in REFERENCES:
            inside = True
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            name = None
        if name in REFERENCES and not inside:
            found.append((getattr(node, "lineno", 0), name))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_no_module_but_the_defining_one_names_a_reference():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for line, name in names_outside_references(ast.parse(path.read_text())):
            if REFERENCES[name] != module:
                offenders.append(f"{module}:{line} names {name}")
    assert offenders == []


@pytest.mark.parametrize("name, module", sorted(REFERENCES.items()))
def test_each_reference_is_defined_where_the_walk_expects_it(name, module):
    tree = ast.parse((SRC / module).read_text())
    defined = {  # methods too: evaluate_interpreted belongs to Evaluator
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert name in defined


def test_the_walk_sees_imports_attributes_and_calls():
    source = (
        "from repro.execution.operators.joins import _hash_join_rows\n"
        "def execute(node):\n"
        "    return kernels.canonical_key(node), _sorted_rows(node)\n"
        "def _hash_join_rows(node):\n"
        "    return kernels.canonical_key(node)\n"
    )
    assert names_outside_references(ast.parse(source)) == [
        (1, "_hash_join_rows"),
        (3, "canonical_key"),
        (3, "_sorted_rows"),
    ]
