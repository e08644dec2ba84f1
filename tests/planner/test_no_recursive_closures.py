"""No nested function in ``src/repro`` calls itself by name.

A closure that recurses holds itself through its own cell, a reference
cycle: it and everything it captures (a plan, a trace, a connector) stay
alive until the cyclic collector runs.  A module function or a
``PlanNode.walk()`` loop does the same work without the cycle.  This
walks the AST of every module under ``src/repro`` and fails on any
function defined inside another function that calls its own name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def recursive_closures(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every nested function that calls itself by name."""
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, FUNCTIONS):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, FUNCTIONS):
                continue
            if any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == inner.name
                for node in ast.walk(inner)
            ):
                found.append((inner.lineno, inner.name))
    return sorted(set(found))


def test_no_nested_function_calls_itself():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 100, "the walk found no modules"
    offenders = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in modules
        for line, name in recursive_closures(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_the_walk_sees_recursive_closures_at_any_depth():
    source = (
        "def top(plan):\n"
        "    return walk(plan)\n"
        "\n"
        "def outer(plan):\n"
        "    def walk(node):\n"
        "        for child in node:\n"
        "            walk(child)\n"
        "    def helper(node):\n"
        "        def visit(n):\n"
        "            return [visit(c) for c in n]\n"
        "        return visit(node)\n"
        "    class Inner:\n"
        "        def method(self):\n"
        "            return self.method()\n"
        "    return walk(plan), helper(plan)\n"
    )
    assert recursive_closures(ast.parse(source)) == [(5, "walk"), (9, "visit")]
