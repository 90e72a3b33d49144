"""Tests for ``tools/reach.py``: per-package line reach, the two function groups and the keep-list gate.

Each case feeds :func:`classify` synthetic hit sets, so the rules (only
executable lines count, packages roll up, a function the system enters is not
test-only, every function in a group is on the keep-list and every entry on
it is still in its group) are pinned without starting a traced process.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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
    assert report.test_only == ["src/repro/core/b.py Box.only_tested"]
    assert report.never_entered == ["src/repro/net/c.py unreached"]
    assert report.functions == 3
    assert report.entered == {"tier1": 2, "non-test": 1, "neither": 1}


def test_a_function_only_the_system_enters_is_not_test_only():
    report = reach.classify(EXECUTABLE, FUNCTIONS, hits(), hits(entered=[("src/repro/net/c.py", 3)]))
    assert report.test_only == []
    assert report.entered == {"tier1": 0, "non-test": 1, "neither": 2}


def test_the_rendered_report_gives_shares_and_counts_each_group():
    tier1 = hits({"src/repro/core/a.py": {1, 2, 3, 4}}, [("src/repro/core/b.py", 1)])
    lines = reach.render(reach.classify(EXECUTABLE, FUNCTIONS, tier1, hits()))
    assert lines[1].split() == ["repro.core", "6", "66.7", "%", "0.0", "%"]
    assert lines[-1] == "functions: 3; tier-1 enters 1, non-test code 0, neither 2; only tests enter 1"


# -- the gate ----------------------------------------------------------------------------------

#: The hits of a system whose one test-only function and one never-entered function are both listed.
TIER1 = hits(entered=[("src/repro/core/a.py", 2), ("src/repro/core/b.py", 1)])
OTHER = hits(entered=[("src/repro/core/a.py", 2)])
LISTED = """
# comments and blank lines are skipped
[test-only]
src/repro/core/b.py Box.only_tested   # a reason

[never entered]
src/repro/net/c.py unreached
"""


def findings(functions=FUNCTIONS, tier1=TIER1, other=OTHER, listed=LISTED):
    return reach.gate(reach.classify(EXECUTABLE, functions, tier1, other), reach.read_keep_list(listed))


def test_listed_entries_still_in_their_group_pass():
    assert findings() == []


def test_a_new_test_only_function_fails():
    functions = {**FUNCTIONS, ("src/repro/core/a.py", 4): "helper"}
    tier1 = hits(entered=TIER1.entered | {("src/repro/core/a.py", 4)})
    assert findings(functions, tier1) == [
        "[test-only] src/repro/core/a.py helper: not on the keep-list; delete it, give it a caller, or list it with a reason"
    ]


def test_a_new_never_entered_function_fails():
    functions = {**FUNCTIONS, ("src/repro/core/a.py", 4): "helper"}
    assert findings(functions) == [
        "[never entered] src/repro/core/a.py helper: not on the keep-list; delete it, give it a caller, or list it with a reason"
    ]


def test_a_stale_entry_fails_whether_its_function_left_the_group_or_is_gone():
    system_runs_it = hits(entered=OTHER.entered | {("src/repro/core/b.py", 1)})
    assert findings(other=system_runs_it) == [
        "[test-only] src/repro/core/b.py Box.only_tested: listed but no longer in this group (or gone); drop the entry"
    ]
    deleted = {place: name for place, name in FUNCTIONS.items() if name != "unreached"}
    assert findings(deleted) == [
        "[never entered] src/repro/net/c.py unreached: listed but no longer in this group (or gone); drop the entry"
    ]


def test_a_function_that_moves_to_another_line_keeps_its_key():
    moved = {("src/repro/core/a.py", 2): "run", ("src/repro/core/b.py", 7): "Box.only_tested", ("src/repro/net/c.py", 3): "unreached"}
    tier1 = hits(entered=[("src/repro/core/a.py", 2), ("src/repro/core/b.py", 7)])
    assert findings(moved, tier1) == []


@pytest.mark.parametrize("text", ["src/repro/core/b.py Box.only_tested\n", "[unused]\nsrc/repro/core/b.py Box.only_tested\n"])
def test_an_entry_outside_a_known_section_is_refused(text):
    with pytest.raises(ValueError):
        reach.read_keep_list(text)
