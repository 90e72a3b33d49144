#!/usr/bin/env python
"""The lint that can run where ruff cannot: the standard library alone.

CI's lint job runs ``ruff check`` with ``pyproject.toml``'s selection
(pycodestyle ``E``/``W`` and pyflakes ``F``, line length 140, ``E402`` /
``E731`` / ``E741`` ignored, ``F401`` ignored in package ``__init__.py``).
This script checks the part of that selection an ``ast`` walk decides without
a type or scope solver, with the same codes, so a sandbox without ruff still
lints instead of reporting "unverified":

* ``E9``   the file does not parse;
* ``E501`` line longer than 140 characters; ``W291`` / ``W293`` trailing
  whitespace; ``W292`` no newline at end of file; ``W191`` tab indentation;
  ``W605`` invalid escape sequence;
* ``E401`` several modules on one ``import``; ``E701`` / ``E702`` several
  statements on one line; ``E711`` / ``E712`` comparison to ``None`` /
  ``True`` / ``False`` with ``==``; ``E713`` / ``E714`` ``not x in`` /
  ``not x is``; ``E721`` ``type(...)`` compared with ``==``; ``E722`` bare
  ``except``;
* ``F401`` import never used in its file (``__all__``, ``import x as x``
  re-exports and names inside string annotations count as uses); ``F403``
  star import; ``F541`` f-string without a placeholder; ``F632`` ``is``
  against a literal; ``F841`` local variable assigned (``=``, ``as``) and
  never read.

Not decided here, left to ruff in CI: undefined names (``F821``),
redefinitions (``F811``), and anything that needs the formatter.  A finding on
a line carrying ``# noqa`` (bare, or listing the code) is suppressed, as ruff
does.

Usage: ``python tools/check_lint.py [paths...]`` (default: the trees CI lints
plus ``tools``); exit status 1 when anything is found.
"""

from __future__ import annotations

import ast
import re
import sys
import warnings
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_ROOTS = ["src", "tests", "benchmarks", "examples", "tools"]
LINE_LENGTH = 140  # [tool.ruff] line-length

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)
#: ruff's default dummy-variable pattern: ``_``, ``__``, ``_name``.
_DUMMY = re.compile(r"^_+[A-Za-z0-9_]*$")

Finding = tuple[int, int, str, str]  # line, column, code, message


def _names_in_annotation_strings(tree: ast.AST) -> set[str]:
    """Identifiers inside string constants: quoted annotations and ``cast("T", ...)`` alike."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and len(node.value) < 200:
            try:
                parsed = ast.parse(node.value.strip(), mode="eval")
            except (SyntaxError, ValueError):
                continue
            names.update(inner.id for inner in ast.walk(parsed) if isinstance(inner, ast.Name))
    return names


def _exported(tree: ast.Module) -> set[str]:
    """String members of a module-level ``__all__`` list / tuple (``=`` or ``+=``)."""
    names: set[str] = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AugAssign) else []
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            names.update(item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant) and isinstance(item.value, str))
    return names


def _unused_imports(tree: ast.Module) -> list[Finding]:
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used = loaded | _names_in_annotation_strings(tree) | _exported(tree)
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                findings.append((node.lineno, node.col_offset, "F403", f"`from {node.module} import *` used"))
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if alias.asname is not None and alias.asname == alias.name:
                continue  # ``import x as x``: an explicit re-export
            if bound not in used:
                findings.append((node.lineno, node.col_offset, "F401", f"`{alias.name}` imported but unused"))
    return findings


def _own_nodes(function: ast.AST):
    """Every node of *function*'s body, nested scopes included (a closure may read the local)."""
    for statement in function.body if isinstance(function.body, list) else [function.body]:
        yield from ast.walk(statement)


def _unused_locals(tree: ast.Module) -> list[Finding]:
    findings = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_own_nodes(function))
        read = {node.id for node in nodes if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        shared = {name for node in nodes if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
        if "locals" in read:
            continue
        class_level = {id(statement) for node in nodes if isinstance(node, ast.ClassDef) for statement in node.body}
        bound: list[tuple[str, ast.AST]] = []
        for node in nodes:
            if id(node) in class_level:
                continue  # an attribute of a class defined in the function, not a local
            if isinstance(node, ast.Assign):
                bound += [(target.id, target) for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and node.value is not None and isinstance(node.target, ast.Name):
                bound.append((node.target.id, node.target))
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.append((node.name, node))
            elif isinstance(node, ast.withitem) and isinstance(node.optional_vars, ast.Name):
                bound.append((node.optional_vars.id, node.optional_vars))
        for name, where in bound:
            if name not in read and name not in shared and not _DUMMY.match(name):
                findings.append((where.lineno, where.col_offset, "F841", f"local variable `{name}` is assigned to but never used"))
    return findings


def _is_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes, int, float, complex)) and not isinstance(node.value, bool)


def _expression_findings(tree: ast.Module) -> list[Finding]:
    findings = []
    format_specs = {id(node.format_spec) for node in ast.walk(tree) if isinstance(node, ast.FormattedValue) and node.format_spec}
    for node in ast.walk(tree):
        where = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
        if isinstance(node, ast.Import) and len(node.names) > 1:
            findings.append((*where, "E401", "multiple imports on one line"))
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append((*where, "E722", "do not use bare `except`"))
        elif isinstance(node, ast.JoinedStr) and id(node) not in format_specs:
            if not any(isinstance(value, ast.FormattedValue) for value in node.values):
                findings.append((*where, "F541", "f-string without any placeholders"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not) and isinstance(node.operand, ast.Compare):
            first = node.operand.ops[0]
            if len(node.operand.ops) == 1 and isinstance(first, (ast.In, ast.Is)):
                code, text = ("E713", "not in") if isinstance(first, ast.In) else ("E714", "is not")
                findings.append((*where, code, f"test for membership / identity should be `{text}`"))
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                pair = (sides[index], sides[index + 1])
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    for side in pair:
                        if isinstance(side, ast.Constant) and side.value is None:
                            findings.append((*where, "E711", "comparison to `None` should be `is` / `is not`"))
                        elif isinstance(side, ast.Constant) and isinstance(side.value, bool):
                            findings.append((*where, "E712", f"avoid equality comparison to `{side.value}`"))
                    if any(isinstance(s, ast.Call) and isinstance(s.func, ast.Name) and s.func.id == "type" for s in pair):
                        findings.append((*where, "E721", "use `is` / `isinstance()` for type comparisons"))
                elif isinstance(op, (ast.Is, ast.IsNot)) and any(_is_literal(side) for side in pair):
                    findings.append((*where, "F632", "use `==` to compare constant literals"))
    return findings


def _statement_findings(tree: ast.Module) -> list[Finding]:
    """``E701`` (a body on its header's line) and ``E702`` (two statements on one line)."""
    findings = []
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list) or not block or not isinstance(block[0], ast.stmt):
                continue
            if isinstance(node, ast.stmt) and field == "body" and block[0].lineno == node.lineno:
                findings.append((node.lineno, node.col_offset, "E701", "multiple statements on one line (colon)"))
            for before, after in zip(block, block[1:]):
                if after.lineno == (before.end_lineno or before.lineno):
                    findings.append((after.lineno, after.col_offset, "E702", "multiple statements on one line (semicolon)"))
    return findings


def _line_findings(text: str) -> list[Finding]:
    findings = []
    lines = text.split("\n")
    for number, line in enumerate(lines, start=1):
        if len(line) > LINE_LENGTH:
            findings.append((number, LINE_LENGTH, "E501", f"line too long ({len(line)} > {LINE_LENGTH})"))
        if line != line.rstrip():
            findings.append((number, len(line.rstrip()), "W293" if not line.strip() else "W291", "trailing whitespace"))
        if line[: len(line) - len(line.lstrip())].count("\t"):
            findings.append((number, 0, "W191", "indentation contains tabs"))
    if text and not text.endswith("\n"):
        findings.append((len(lines), len(lines[-1]), "W292", "no newline at end of file"))
    return findings


def lint_source(text: str, path: str = "<string>") -> list[Finding]:
    """All findings for one file's *text*, ``# noqa`` and the per-file ignores applied, in line order."""
    findings = _line_findings(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            return [(exc.lineno or 1, exc.offset or 0, "E999", f"SyntaxError: {exc.msg}")]
    for warning in caught:
        if "invalid escape sequence" in str(warning.message):
            findings.append((warning.lineno or 1, 0, "W605", str(warning.message)))
    findings += _unused_imports(tree) + _unused_locals(tree) + _expression_findings(tree) + _statement_findings(tree)
    if Path(path).name == "__init__.py":  # [tool.ruff.lint.per-file-ignores]: the packages re-export
        findings = [finding for finding in findings if finding[2] != "F401"]
    lines = text.split("\n")
    kept = []
    for finding in sorted(set(findings)):
        noqa = _NOQA.search(lines[finding[0] - 1]) if finding[0] <= len(lines) else None
        codes = noqa.group("codes") if noqa else None
        if noqa and (codes is None or finding[2] in {code.strip().upper() for code in codes.split(",")}):
            continue
        kept.append(finding)
    return kept


def python_files(roots: list[str]) -> list[Path]:
    """Every ``.py`` under *roots* (files or directories, relative to the repo), sorted."""
    files: list[Path] = []
    for root in roots:
        path = REPO_ROOT / root  # an absolute *root* stands as it is
        files += [path] if path.is_file() else sorted(path.rglob("*.py"))
    return files


def main(argv: list[str]) -> int:
    files = python_files(argv or DEFAULT_ROOTS)
    total = 0
    for path in files:
        shown = path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path
        for line, column, code, message in lint_source(path.read_text(encoding="utf-8"), str(path)):
            print(f"{shown}:{line}:{column + 1}: {code} {message}")
            total += 1
    print(f"check_lint: {len(files)} files, {total} finding(s)")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
