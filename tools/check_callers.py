#!/usr/bin/env python
"""Every public name in ``src/`` has a caller outside the tests, or a reason.

A public def or class (module level, or a method of a module-level class; no
leading underscore, no dunder) — or a public alias of such a method assigned in
its class body (``moveInternal = move_internal``) — counts as called when its name appears as a
code token — ``tokenize`` ``NAME``, so comments, docstrings and strings do not
count — anywhere in ``src/``, ``benchmarks/``, ``examples/`` or ``tools/``,
except inside its own definition and in a package ``__init__.py``'s imports
(a re-export is not a use).  The match is by bare name, as a reader grepping
for callers would do it: ``Topology.connect`` is called if any code says ``connect``.
Tests do not count: an accessor whose only caller is its own unit test is
surface nothing needs.

A function ``src/`` keeps although only tests run it is listed, with its
reason, once: in ``tools/reach_keep.txt``, the keep-list ``tools/reach.py``
gates on and holds to account.  This audit reads that list too, and a class
counts as listed when its ``__init__`` is.  What the traced gate cannot see
stays here: a name reached only by string (``getattr(cell, "cloneable")``)
goes on :data:`KEEP` with one line saying why, and a class-body alias, which
shares its method's code, has no entry on either list.  A :data:`KEEP` entry
that no longer names a definition, or whose name code now calls, is reported
too, so the list cannot rot.

Usage: ``python tools/check_callers.py``; exit status 1 when anything is found.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFINED_IN = "src"
CALLER_ROOTS = ["src", "benchmarks", "examples", "tools"]

#: Qualified name (``Class.method`` or ``function``) -> why it stays without a caller.
KEEP = {
    # Reached by string, not by a name token.
    "StateClass.cloneable": "read as getattr(cell, 'cloneable') when a clone picks the roles Table 1 permits",
    "StateClass.mergeable": "read as getattr(cell, 'mergeable') when a merge picks the roles Table 1 permits",
}
#: The ``tools/reach.py`` keep-list, relative to the audited root.
REACH_KEEP_LIST = Path("tools") / "reach_keep.txt"


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) for each public module-level def/class, each public method of such a class
    and each public class-body alias of one of its methods."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            methods = {member.name for member in node.body if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))}
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("_"):
                    found.append((f"{node.name}.{member.name}", member))
                elif isinstance(member, ast.Assign) and isinstance(member.value, ast.Name) and member.value.id in methods:
                    aliases = [target.id for target in member.targets if isinstance(target, ast.Name)]
                    found += [(f"{node.name}.{alias}", member) for alias in aliases if not alias.startswith("_")]
    return found


def _span(node: ast.AST) -> tuple[int, int]:
    """First and last line of a definition, decorators included."""
    first = min([node.lineno] + [decorator.lineno for decorator in getattr(node, "decorator_list", [])])
    return first, node.end_lineno or node.lineno


def _name_tokens(text: str) -> list[tuple[str, int]]:
    return [(token.string, token.start[0]) for token in tokenize.generate_tokens(io.StringIO(text).readline) if token.type == tokenize.NAME]


def _import_lines(tree: ast.Module) -> set[int]:
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    return {line for node in imports for line in range(node.lineno, node.end_lineno + 1)}


def _reach_listed(root: Path) -> set[str]:
    """Every ``path qualname`` key of the ``tools/reach.py`` keep-list under *root*, both groups."""
    path = root / REACH_KEEP_LIST
    if not path.exists():
        return set()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from reach import read_keep_list

    return set().union(*read_keep_list(path.read_text(encoding="utf-8")).values())


def audit(root: Path = REPO_ROOT, keep: dict[str, str] = KEEP) -> list[str]:
    """One line per public name under ``root`` without a caller and off both keep-lists, plus one per stale ``keep`` entry."""
    listed = _reach_listed(root)
    definitions = []  # (qualified name, path, first line, last line)
    uses: dict[str, list[tuple[Path, int]]] = {}
    for base in CALLER_ROOTS:
        for path in sorted((root / base).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(path))
            skipped = _import_lines(tree) if path.name == "__init__.py" else set()
            for name, line in _name_tokens(text):
                if line not in skipped:
                    uses.setdefault(name, []).append((path, line))
            if base == DEFINED_IN:
                definitions += [(qualified, path, *_span(node)) for qualified, node in _definitions(tree)]
    findings, called_keeps = [], set()
    for qualified, path, first, last in definitions:
        bare = qualified.rpartition(".")[2]
        called = any(where != path or not first <= line <= last for where, line in uses.get(bare, []))
        if called and qualified in keep:
            called_keeps.add(qualified)
        elif not called and qualified not in keep:
            shown = path.relative_to(root)
            key = f"{shown.as_posix()} {qualified}"
            if key not in listed and f"{key}.__init__" not in listed:
                findings.append(f"{shown}:{first}: {qualified} ({last - first + 1} lines) is named by no code outside tests")
    defined = {qualified for qualified, *_ in definitions}
    findings += [f"KEEP: {name} is not defined in {DEFINED_IN}/; drop the entry" for name in sorted(set(keep) - defined)]
    findings += [f"KEEP: {name} has a caller now; drop the entry" for name in sorted(called_keeps)]
    return findings


def main() -> int:
    findings = audit()
    for finding in findings:
        print(finding)
    print(f"check_callers: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
