"""The streaming lakehouse keeps its tail itself, not in the OLAP store.

The hybrid table reads a segment's offset range as one slice of its own
rows; Druid/Pinot's store would only add index builds no tail read
probes.  This walks the AST of every module under ``src/repro/realtime``
and fails on any import of ``repro.connectors.olap`` or a module in it.
"""

import ast
from pathlib import Path

REALTIME = Path(__file__).resolve().parents[2] / "src" / "repro" / "realtime"
OLAP = "repro.connectors.olap"


def olap_imports(tree: ast.AST) -> list[int]:
    """Lines of every import of ``repro.connectors.olap`` or a submodule."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(n == OLAP or n.startswith(OLAP + ".") for n in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_realtime_module_imports_the_olap_store():
    modules = sorted(REALTIME.glob("*.py"))
    assert len(modules) > 5, "the walk found no realtime modules"
    offenders = [
        f"{path.name}:{line}"
        for path in modules
        for line in olap_imports(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_the_walk_sees_every_import_form():
    source = (
        "from repro.connectors.olap.store import RealtimeOlapStore\n"
        "def f():\n"
        "    import repro.connectors.olap\n"
        "from repro.connectors import olap, kafka\n"
        "from repro.connectors.olapish import x\n"
    )
    assert olap_imports(ast.parse(source)) == [1, 3, 4]
