"""docs/API.md's "Metrics" table is the catalogue of what ``src/`` emits.

The emitted side is read from the source: every ``.counter(`` / ``.gauge(``
/ ``.histogram(`` call under ``src/repro`` names its series with a literal,
or builds it from the first parameter of the small helper it sits in
(``_count``, ``_count_task``: ``f"cache_{event}_total"``, a forwarded
``name``), in which case the literals that helper is called with in the
same module are substituted.  A name emitted but not documented, or
documented but no longer emitted, fails here.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
KINDS = {"counter", "gauge", "histogram"}


def _render(expression: ast.expr, parameter: str, value: str) -> str:
    """``expression`` (the parameter itself, or an f-string over it) at ``value``."""
    if isinstance(expression, ast.Name):
        assert expression.id == parameter
        return value
    assert isinstance(expression, ast.JoinedStr), ast.dump(expression)
    parts = []
    for piece in expression.values:
        if isinstance(piece, ast.Constant):
            parts.append(piece.value)
        else:
            assert isinstance(piece.value, ast.Name) and piece.value.id == parameter
            parts.append(value)
    return "".join(parts)


def emitted_series() -> dict[str, str]:
    """name -> kind for every instrument call in the source."""
    found: dict[str, str] = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "obs" / "metrics.py":
            continue  # the instruments' own definitions
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for call in ast.walk(function):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in KINDS
                    and call.args
                ):
                    continue
                name = call.args[0]
                if isinstance(name, ast.Constant):
                    found[name.value] = call.func.attr
                    continue
                # Built from the enclosing helper's first parameter: take the
                # literals the helper is called with, here in its own module.
                parameter = function.args.args[1].arg  # after ``self``
                passed = [
                    site.args[0]
                    for site in ast.walk(tree)
                    if isinstance(site, ast.Call)
                    and isinstance(site.func, ast.Attribute)
                    and site.func.attr == function.name
                ]
                assert passed and all(isinstance(p, ast.Constant) for p in passed), (
                    f"{path}:{function.name} is called with a name that is not a literal"
                )
                for literal in passed:
                    found[_render(name, parameter, literal.value)] = call.func.attr
    return found


def documented_series() -> dict[str, str]:
    """name -> kind from the table under "### Metrics" in docs/API.md."""
    text = (REPO / "docs" / "API.md").read_text()
    section = text.split("### Metrics", 1)[1].split("\n#", 1)[0]
    documented: dict[str, str] = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) >= 3:
            documented[cells[0].strip("`")] = cells[1]
    return documented


def test_every_emitted_series_is_documented_and_every_documented_one_emitted():
    emitted, documented = emitted_series(), documented_series()
    assert len(emitted) > 50  # the source walk still finds them
    assert sorted(emitted.keys() - documented.keys()) == [], "emitted, not in docs/API.md"
    assert sorted(documented.keys() - emitted.keys()) == [], "documented, no longer emitted"
    assert emitted == documented  # and each under its own kind
