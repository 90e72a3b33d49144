"""Tests for ``tools/reach.py``'s classification: per-package line reach and the functions only tests enter.

Each case feeds :func:`classify` synthetic hit sets, so the rules (only
executable lines count, packages roll up, a function the system enters is not
test-only) are pinned without starting a traced process.
"""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = sys.modules["reach"] = importlib.util.module_from_spec(_spec)  # dataclasses resolve annotations through it
_spec.loader.exec_module(reach)

EXECUTABLE = {
    "src/repro/core/a.py": {1, 2, 3, 4},
    "src/repro/core/b.py": {1, 2},
    "src/repro/net/c.py": {1, 2, 3, 4, 5, 6, 7, 8},
}
FUNCTIONS = {
    ("src/repro/core/a.py", 2): "run",
    ("src/repro/core/b.py", 1): "Box.only_tested",
    ("src/repro/net/c.py", 3): "unreached",
}


def hits(lines=None, entered=()):
    return reach.Hits({path: set(found) for path, found in (lines or {}).items()}, set(entered))


def test_line_reach_is_per_package_and_counts_only_executable_lines():
    tier1 = hits({"src/repro/core/a.py": {1, 2, 3, 4, 99}, "src/repro/core/b.py": {1}, "src/repro/net/c.py": {1, 2}})
    other = hits({"src/repro/core/a.py": {1, 2}, "tools/x.py": {1, 2, 3}})
    report = reach.classify(EXECUTABLE, FUNCTIONS, tier1, other)
    assert report.packages == {"repro.core": (6, 5, 2), "repro.net": (8, 2, 0), "total": (14, 7, 2)}


def test_a_function_only_tests_enter_is_listed_and_one_the_system_enters_is_not():
    tier1 = hits(entered=[("src/repro/core/a.py", 2), ("src/repro/core/b.py", 1)])
    other = hits(entered=[("src/repro/core/a.py", 2), ("src/repro/core/a.py", 1)])
    report = reach.classify(EXECUTABLE, FUNCTIONS, tier1, other)
    assert report.test_only == ["src/repro/core/b.py:1 Box.only_tested"]
    assert report.functions == 3
    assert report.entered == {"tier1": 2, "non-test": 1, "neither": 1}


def test_a_function_only_the_system_enters_is_not_test_only():
    report = reach.classify(EXECUTABLE, FUNCTIONS, hits(), hits(entered=[("src/repro/net/c.py", 3)]))
    assert report.test_only == []
    assert report.entered == {"tier1": 0, "non-test": 1, "neither": 2}


def test_the_rendered_report_gives_shares_and_names_each_test_only_function():
    tier1 = hits({"src/repro/core/a.py": {1, 2, 3, 4}}, [("src/repro/core/b.py", 1)])
    lines = reach.render(reach.classify(EXECUTABLE, FUNCTIONS, tier1, hits()))
    assert lines[1].split() == ["repro.core", "6", "66.7", "%", "0.0", "%"]
    assert lines[-1] == "  src/repro/core/b.py:1 Box.only_tested"
