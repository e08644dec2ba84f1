"""``tools/bytecodes.py`` counts a workload's bytecodes per query, repeatably."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "bytecodes.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bytecodes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_repeat_and_grow_with_the_splits(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds the benchmark's
    tool = _tool()
    nine = tool.count("dash_small", rounds=1)
    assert nine["queries"] == 7
    assert nine == tool.count("dash_small", rounds=1)
    # 250 rows in one split instead of nine: fewer bytecodes a query.
    one = tool.count("dash_small", split_size=250, rounds=1)
    assert 0 < one["bytecodes_per_query"] < nine["bytecodes_per_query"]
