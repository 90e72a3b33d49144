"""Tests for ``tools/check_callers.py``: every public name in ``src/`` has a caller outside the tests, or a reason.

Each case builds a small repository under ``tmp_path`` and audits it with an
explicit keep-list, so the rules (what counts as a call, what is audited, how
the keep-list is held to account) are pinned independently of today's tree.
"""

import importlib.util
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_callers.py"
_spec = importlib.util.spec_from_file_location("check_callers", TOOL)
check_callers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_callers)

ORPHAN = """\
def orphan():
    return 1
"""


def audit(root: Path, files: dict, keep: dict = None) -> list:
    for base in check_callers.CALLER_ROOTS + ["tests"]:
        (root / base).mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return check_callers.audit(root, {} if keep is None else keep)


def test_the_repository_has_no_findings():
    assert check_callers.audit() == []


@pytest.mark.parametrize("findings, status", [([], 0), (["src/a.py:1: f (2 lines) is named by no code outside tests"], 1)])
def test_main_prints_each_finding_and_fails_on_any(monkeypatch, capsys, findings, status):
    monkeypatch.setattr(check_callers, "audit", lambda: findings)
    assert check_callers.main() == status
    assert capsys.readouterr().out.splitlines() == findings + [f"check_callers: {len(findings)} finding(s)"]


def test_a_def_only_tests_call_is_reported(tmp_path):
    findings = audit(tmp_path, {"src/pkg/mod.py": ORPHAN, "tests/test_mod.py": "from pkg.mod import orphan\norphan()\n"})
    assert findings == ["src/pkg/mod.py:1: orphan (2 lines) is named by no code outside tests"]


@pytest.mark.parametrize("base", ["src", "benchmarks", "examples", "tools"])
def test_a_call_from_any_caller_root_counts(tmp_path, base):
    assert audit(tmp_path, {"src/pkg/mod.py": ORPHAN, f"{base}/caller.py": "from pkg.mod import orphan\norphan()\n"}) == []


def test_comments_docstrings_and_strings_are_not_calls(tmp_path):
    caller = '''\
    """orphan() is documented here."""
    # orphan()
    NAME = "orphan"
    '''
    findings = audit(tmp_path, {"src/pkg/mod.py": ORPHAN, "tools/caller.py": caller})
    assert [finding.split(": ")[1] for finding in findings] == ["orphan (2 lines) is named by no code outside tests"]


def test_a_package_reexport_is_not_a_call(tmp_path):
    init = 'from .mod import orphan\n\n__all__ = ["orphan"]\n'
    findings = audit(tmp_path, {"src/pkg/__init__.py": init, "src/pkg/mod.py": ORPHAN})
    assert len(findings) == 1 and "orphan" in findings[0]


def test_a_name_outside_an_init_import_is_a_call(tmp_path):
    init = "from .mod import orphan\n\nDEFAULT = orphan()\n"
    assert audit(tmp_path, {"src/pkg/__init__.py": init, "src/pkg/mod.py": ORPHAN}) == []


def test_a_use_inside_its_own_definition_is_not_a_call(tmp_path):
    recursive = """\
    @functools.cache
    def countdown(n):
        return 0 if n == 0 else countdown(n - 1)
    """
    findings = audit(tmp_path, {"src/pkg/mod.py": recursive})
    assert findings == ["src/pkg/mod.py:1: countdown (3 lines) is named by no code outside tests"]


def test_a_method_is_called_by_its_bare_name_and_reported_by_its_qualified_one(tmp_path):
    box = """\
    class Box:
        def put(self, item):
            self.item = item

        def unused(self):
            return self.item
    """
    findings = audit(tmp_path, {"src/pkg/box.py": box, "examples/use.py": "from pkg.box import Box\nBox().put(1)\n"})
    assert findings == ["src/pkg/box.py:5: Box.unused (2 lines) is named by no code outside tests"]


ALIASED = """\
class Api:
    def move_internal(self):
        return 1

    moveInternal = move_internal
"""


def test_a_class_body_alias_nobody_calls_is_reported(tmp_path):
    findings = audit(tmp_path, {"src/pkg/api.py": ALIASED, "examples/use.py": "from pkg.api import Api\nApi().move_internal()\n"})
    assert findings == ["src/pkg/api.py:5: Api.moveInternal (1 lines) is named by no code outside tests"]


def test_a_class_body_alias_that_is_called_is_not_reported(tmp_path):
    assert audit(tmp_path, {"src/pkg/api.py": ALIASED, "examples/use.py": "from pkg.api import Api\nApi().moveInternal()\n"}) == []


def test_private_dunder_and_nested_definitions_are_not_audited(tmp_path):
    module = """\
    def _helper():
        def nested():
            return 1
        return nested


    class _Hidden:
        def shown(self):
            return 2


    class Public:
        def __init__(self):
            self.value = _helper()

        def _private(self):
            return _Hidden()
    """
    findings = audit(tmp_path, {"src/pkg/mod.py": module, "tools/use.py": "from pkg.mod import Public\nPublic()\n"})
    assert findings == []


def test_a_keep_entry_silences_its_finding(tmp_path):
    assert audit(tmp_path, {"src/pkg/mod.py": ORPHAN}, keep={"orphan": "reached by getattr"}) == []


def test_a_keep_entry_for_a_name_nothing_defines_is_reported(tmp_path):
    findings = audit(tmp_path, {"src/pkg/mod.py": ORPHAN}, keep={"orphan": "reason", "Gone.method": "reason"})
    assert findings == ["KEEP: Gone.method is not defined in src/; drop the entry"]


def test_a_keep_entry_whose_name_has_a_caller_is_reported(tmp_path):
    findings = audit(tmp_path, {"src/pkg/mod.py": ORPHAN, "benchmarks/b.py": "orphan()\n"}, keep={"orphan": "reason"})
    assert findings == ["KEEP: orphan has a caller now; drop the entry"]


def test_a_def_or_class_on_the_reach_keep_list_needs_no_keep_entry(tmp_path):
    box = """\
    class Box:
        def __init__(self):
            self.item = None


    class Crate:
        def __init__(self):
            self.item = None
    """
    listed = "[test-only]\nsrc/pkg/mod.py orphan  # reason\nsrc/pkg/box.py Box.__init__\n"
    findings = audit(tmp_path, {"src/pkg/mod.py": ORPHAN, "src/pkg/box.py": box, "tools/reach_keep.txt": listed})
    assert findings == ["src/pkg/box.py:6: Crate (3 lines) is named by no code outside tests"]
