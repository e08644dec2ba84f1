"""Optimizer rules reach connectors only through the ``Connector`` SPI.

A rule that probes a connector with ``getattr``/``hasattr`` for a method
outside the SPI opens a side channel the other connectors cannot answer
(materialized views used to be found that way, beside the aggregation
pushdown that now serves them).  This walks the AST of every module under
``src/repro/planner/rules`` and fails on any call to either builtin.
"""

import ast
from pathlib import Path

RULES = Path(__file__).resolve().parents[2] / "src" / "repro" / "planner" / "rules"
PROBES = {"getattr", "hasattr"}


def probe_calls(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, builtin)`` of every ``getattr``/``hasattr`` call."""
    return [
        (node.lineno, node.func.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in PROBES
    ]


def test_no_rule_probes_an_object_for_attributes():
    modules = sorted(RULES.glob("*.py"))
    assert len(modules) > 5, "the walk found no rules"
    offenders = [
        f"{path.name}:{line} calls {name}"
        for path in modules
        for line, name in probe_calls(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_the_walk_sees_nested_calls():
    source = (
        "def rule(plan, ctx):\n"
        "    finder = getattr(ctx.connector, 'find', None)\n"
        "    return [hasattr(n, 'x') for n in plan] or plan.getattr('y')\n"
    )
    assert sorted(probe_calls(ast.parse(source))) == [(2, "getattr"), (3, "hasattr")]
