"""The settable values in ``src/`` do not grow back.

A settable value is one a caller can set when it builds an object: a
parameter of a class's explicit ``__init__`` (``self`` aside; ``*args``
and ``**kwargs`` count one each), or, for a ``@dataclass`` that defines
no ``__init__``, a field the generated ``__init__`` takes (a ``ClassVar``
or a ``field(init=False)`` is not one).  Inherited fields and
parameters count once, on the class that declares them.  The walk reads
the AST of every module under ``src/repro``; a change that adds an
option, a knob or a stored copy of something derivable raises the count,
and this test then fails until the ceiling is raised on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# The count at the last change that lowered it.
CEILING = 817


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _init_false(value) -> bool:
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", getattr(value.func, "attr", None)) == "field"
        and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords
        )
    )


def settable_values(tree: ast.AST) -> dict[str, int]:
    """Class name -> how many values its constructor takes."""
    counts = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        init = next(
            (n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"),
            None,
        )
        if init is not None:
            args = init.args
            positional = args.posonlyargs + args.args
            counts[node.name] = (
                len(positional) - 1
                + len(args.kwonlyargs)
                + (args.vararg is not None)
                + (args.kwarg is not None)
            )
        elif _is_dataclass(node):
            counts[node.name] = sum(
                1
                for n in node.body
                if isinstance(n, ast.AnnAssign)
                and isinstance(n.target, ast.Name)
                and "ClassVar" not in ast.unparse(n.annotation)
                and not _init_false(n.value)
            )
    return counts


def total() -> int:
    return sum(
        sum(settable_values(ast.parse(path.read_text())).values())
        for path in sorted(SRC.rglob("*.py"))
    )


def test_settable_values_stay_under_the_ceiling():
    assert total() <= CEILING


def test_the_walk_counts_constructor_parameters_and_dataclass_fields():
    source = (
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "class Plain:\n"
        "    def __init__(self, a, b=1, *rest, c, **options): ...\n"
        "@dataclass\n"
        "class Record:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    seen: list = field(default_factory=list, init=False)\n"
        "    LIMIT: ClassVar[int] = 3\n"
        "@dataclass(frozen=True)\n"
        "class Explicit:\n"
        "    z: int\n"
        "    def __init__(self, w): ...\n"
        "class Bare:\n"
        "    q: int = 1\n"
    )
    assert settable_values(ast.parse(source)) == {
        "Plain": 5,
        "Record": 2,
        "Explicit": 1,
    }
