"""The reach census's allowlist (``tools/census_allowlist.txt``) stays true.

The census itself runs every suite and script under a profile hook and
takes minutes, so CI runs it as its own job; this checks only what the
allowlist claims: each entry names a function under ``src/repro`` and
carries a reason, and the census keys functions the way the interpreter
does.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_census():
    spec = importlib.util.spec_from_file_location(
        "reach_census", ROOT / "tools" / "reach_census.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_names_a_function_and_gives_a_reason():
    census = load_census()
    entries = census.read_allowlist()  # raises on an entry with no reason
    targets = {f"{fn['path']}:{fn['qualname']}" for fn in census.functions()}
    assert entries
    assert sorted(set(entries) - targets) == []
    assert all(reason for reason in entries.values())


def test_functions_are_keyed_by_the_line_the_code_object_starts_on():
    # A decorated function's code object starts on its first decorator.
    from repro.cache.data_cache import CacheRead, TieredDataCache

    census = load_census()
    lines = {
        (fn["path"], fn["qualname"]): fn["line"] for fn in census.functions()
    }
    path = "repro/cache/data_cache.py"
    assert lines[(path, "CacheRead.hit")] == CacheRead.hit.fget.__code__.co_firstlineno
    assert lines[(path, "TieredDataCache.read")] == TieredDataCache.read.__code__.co_firstlineno
