#!/usr/bin/env python
"""Documentation checks runnable with the standard library alone.

Five checks, mirroring the CI docs job:

* **docstring coverage** over the public northbound surface (the same
  modules CI runs ``interrogate --fail-under 100`` on), counted the same way
  interrogate does with the repo's ``[tool.interrogate]`` settings
  (``ignore-init-method``, ``ignore-nested-functions``, ``ignore-module``
  false so module docstrings count);
* **markdown link check** over the README and ``docs/``: every relative
  link must resolve to a file in the repository;
* **code-block reference check** over ``docs/``: every ``repro.*`` module or
  attribute named inside a fenced python code block must actually exist in
  ``src/`` (imports and dotted references are resolved statically with
  ``ast``), so the guides cannot drift away from the code they describe;
* **protocol table check**: the "Southbound protocol" table in
  ``docs/architecture.md`` has exactly one row per ``MessageType`` constant,
  so a message cannot be added (or removed) undocumented;
* **taxonomy table check**: the "State taxonomy" table in
  ``docs/state-engine.md`` has exactly one row per ``TAXONOMY`` cell, and each
  middlebox column shows that class's ``STATE`` declaration (read statically
  from ``src/repro/middleboxes/``).

Exit status is non-zero when any check fails, so the script doubles as a
pre-commit / CI gate where interrogate is unavailable.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules whose public surface the docstring sweep covers (kept in sync
#: with the interrogate invocation in .github/workflows/ci.yml).
DOCSTRING_MODULES = [
    "src/repro/core/northbound.py",
    "src/repro/core/transaction.py",
    "src/repro/core/transfer.py",
    "src/repro/core/sharding.py",
    "src/repro/core/operations.py",
    "src/repro/core/state.py",
    "src/repro/obs.py",
]

FAIL_UNDER = 100.0

MARKDOWN_ROOTS = ["README.md", "docs"]

#: Inline markdown links: [text](target); excludes images handled the same way.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def docstring_coverage(path: Path) -> tuple[int, int, list[str]]:
    """Count docstring-carrying definitions in one module.

    Returns (documented, total, missing-names).  Counts the module itself,
    every class, and every function/method except ``__init__`` and functions
    nested inside other functions — interrogate's view under the repo's
    configuration.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    documented, total, missing = 0, 0, []

    def visit(node: ast.AST, qualname: str, inside_function: bool) -> None:
        nonlocal documented, total
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function or child.name == "__init__":
                    continue
                name = f"{qualname}.{child.name}" if qualname else child.name
                total += 1
                if ast.get_docstring(child) is not None:
                    documented += 1
                else:
                    missing.append(name)
                visit(child, name, True)
            elif isinstance(child, ast.ClassDef):
                name = f"{qualname}.{child.name}" if qualname else child.name
                total += 1
                if ast.get_docstring(child) is not None:
                    documented += 1
                else:
                    missing.append(name)
                visit(child, name, inside_function)

    total += 1  # the module docstring
    if ast.get_docstring(tree) is not None:
        documented += 1
    else:
        missing.append("(module docstring)")
    visit(tree, "", False)
    return documented, total, missing


def check_docstrings() -> bool:
    """Enforce FAIL_UNDER % docstring coverage on every swept module."""
    ok = True
    for relative in DOCSTRING_MODULES:
        path = REPO_ROOT / relative
        documented, total, missing = docstring_coverage(path)
        coverage = 100.0 * documented / total if total else 100.0
        status = "ok" if coverage >= FAIL_UNDER else "FAIL"
        print(f"docstrings {relative}: {documented}/{total} = {coverage:.1f}% [{status}]")
        if coverage < FAIL_UNDER:
            ok = False
            for name in missing:
                print(f"  missing: {name}")
    return ok


def iter_markdown_files() -> list[Path]:
    """The markdown files the link check covers (README + docs/)."""
    files: list[Path] = []
    for root in MARKDOWN_ROOTS:
        path = REPO_ROOT / root
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.glob("**/*.md")))
    return files


def check_links() -> bool:
    """Every relative markdown link must resolve to an existing file."""
    ok = True
    for markdown in iter_markdown_files():
        for target in _LINK_RE.findall(markdown.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (markdown.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                print(f"broken link in {markdown.relative_to(REPO_ROOT)}: {target}")
                ok = False
    print(f"links: checked {len(iter_markdown_files())} markdown files")
    return ok


#: Fenced code blocks whose references are verified (```python ... ```).
_FENCE_RE = re.compile(r"```(?:python|py)\n(.*?)```", re.DOTALL)

#: Dotted repro.* references inside a code block (imports and plain mentions).
_DOTTED_RE = re.compile(r"\brepro(?:\.\w+)+")

#: Regex fallback for blocks that do not parse as python: single-line
#: ``from repro.x.y import A, B as C`` (parenthesized imports are handled by
#: the ast path).
_FROM_IMPORT_RE = re.compile(r"^\s*from\s+(repro(?:\.\w+)*)\s+import\s+\(?([\w\s,]+)\)?$", re.MULTILINE)

SRC_ROOT = REPO_ROOT / "src"


def _module_path(dotted: str) -> Path | None:
    """Filesystem path of a repro module/package, or None when it doesn't exist."""
    relative = Path(*dotted.split("."))
    if (SRC_ROOT / relative).with_suffix(".py").exists():
        return (SRC_ROOT / relative).with_suffix(".py")
    if (SRC_ROOT / relative / "__init__.py").exists():
        return SRC_ROOT / relative / "__init__.py"
    return None


def _top_level_names(module_file: Path) -> set[str]:
    """Names a module defines or re-exports at top level (classes, defs, assigns, imports)."""
    tree = ast.parse(module_file.read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def _resolve_reference(dotted: str) -> str | None:
    """Check one dotted ``repro...`` reference; returns an error string or None.

    The longest importable module prefix is located first; the next component
    (if any) must then be a top-level name in that module.  Deeper components
    (method names, enum members) are not checked — they would require full
    inheritance resolution for little extra safety.
    """
    parts = dotted.split(".")
    module_file = None
    consumed = 0
    for end in range(len(parts), 0, -1):
        candidate = _module_path(".".join(parts[:end]))
        if candidate is not None:
            module_file = candidate
            consumed = end
            break
    if module_file is None:
        return f"no module for {dotted!r}"
    if consumed < len(parts):
        attribute = parts[consumed]
        if attribute not in _top_level_names(module_file):
            return f"{'.'.join(parts[:consumed])} has no attribute {attribute!r} (referenced as {dotted!r})"
    return None


def check_code_blocks() -> bool:
    """Every repro.* name in a docs/ python code block must exist in src/."""
    ok = True
    blocks = 0
    references = 0
    for markdown in iter_markdown_files():
        if markdown.name == "README.md" and markdown.parent == REPO_ROOT:
            continue  # the check covers docs/; the top-level README has its own style
        text = markdown.read_text(encoding="utf-8")
        for block in _FENCE_RE.findall(text):
            blocks += 1
            targets = set(_DOTTED_RE.findall(block))
            try:
                # Parseable blocks get exact import extraction (including
                # parenthesized / multi-line from-imports).
                tree = ast.parse(block)
            except SyntaxError:
                for module, imported in _FROM_IMPORT_RE.findall(block):
                    for name in imported.split(","):
                        name = name.strip().split(" as ")[0].strip()
                        if name:
                            targets.add(f"{module}.{name}")
            else:
                for node in ast.walk(tree):
                    if (
                        isinstance(node, ast.ImportFrom)
                        and node.level == 0
                        and node.module
                        and node.module.split(".")[0] == "repro"
                    ):
                        for alias in node.names:
                            if alias.name != "*":
                                targets.add(f"{node.module}.{alias.name}")
            for dotted in sorted(targets):
                references += 1
                error = _resolve_reference(dotted)
                if error is not None:
                    print(f"bad code reference in {markdown.relative_to(REPO_ROOT)}: {error}")
                    ok = False
    print(f"code blocks: checked {references} repro.* references in {blocks} python blocks")
    return ok


#: First cell of a protocol-table row: | `message_type` | ...
_PROTOCOL_ROW_RE = re.compile(r"^\| `(\w+)` \|", re.MULTILINE)


def check_protocol_table() -> bool:
    """One row per ``MessageType`` constant in the Southbound protocol table."""
    tree = ast.parse((SRC_ROOT / "repro" / "core" / "messages.py").read_text(encoding="utf-8"))
    enum = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "MessageType")
    names = [node.value.value for node in enum.body if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)]
    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    section = text.partition("## Southbound protocol")[2].partition("\n## ")[0]
    rows = _PROTOCOL_ROW_RE.findall(section)
    problems = [f"no single row for message type {name!r}" for name in names if rows.count(name) != 1]
    problems += [f"row {name!r} names no MessageType constant" for name in rows if name not in names]
    for problem in problems:
        print(f"protocol table in docs/architecture.md: {problem}")
    print(f"protocol table: {len(rows)} rows for {len(names)} message types")
    return not problems


def _cell_tuples(node: ast.AST) -> list[tuple[str, str]]:
    """``(role, scope)`` value pairs of the ``(StateRole.X, StateScope.Y)`` keys of a dict literal."""
    values = {"PER_FLOW": "per-flow"}  # the one enum value that is not its lowered name
    return [tuple(values.get(part.attr, part.attr.lower()) for part in key.elts) for key in node.keys]


def check_taxonomy_table() -> bool:
    """One row per ``TAXONOMY`` cell; each middlebox column equals that class's ``STATE`` declaration."""
    state = ast.parse((SRC_ROOT / "repro" / "core" / "state.py").read_text(encoding="utf-8"))
    taxonomy = next(
        node.value for node in state.body if isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "TAXONOMY"
    )
    cells = _cell_tuples(taxonomy)
    declared: dict[str, dict[tuple[str, str], str]] = {}
    for module in sorted((SRC_ROOT / "repro" / "middleboxes").glob("*.py")):
        for cls in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            for node in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "STATE":
                    natives = [ast.unparse(value) for value in node.value.values]
                    declared[cls.name] = dict(zip(_cell_tuples(node.value), natives))
    text = (REPO_ROOT / "docs" / "state-engine.md").read_text(encoding="utf-8")
    table = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in text.partition("## State taxonomy")[2].partition("\n### ")[0].splitlines()
        if line.startswith("|") and not line.startswith("|---")
    ]
    header, documented = table[0], [(row[0], row[1]) for row in table[1:]]
    rows = dict(zip(documented, table[1:]))
    columns = {name.strip("`"): index for index, name in enumerate(header) if name.startswith("`")}
    problems = [f"no single row for cell {cell}" for cell in cells if documented.count(cell) != 1]
    problems += [f"row {cell} is no TAXONOMY cell" for cell in rows if cell not in cells]
    problems += [f"no column for {name}, which declares state" for name in declared if name not in columns]
    for name, index in columns.items():
        for cell, row in rows.items():
            expected = declared.get(name, {}).get(cell)
            if row[index] != (f"`{expected}`" if expected else "—"):
                problems.append(f"{name} {cell}: table says {row[index]}, the class declares {expected}")
    for problem in problems:
        print(f"taxonomy table in docs/state-engine.md: {problem}")
    print(f"taxonomy table: {len(rows)} rows for {len(cells)} cells, {len(columns)} middlebox columns")
    return not problems


def main() -> int:
    """Run all five checks; returns a shell exit status."""
    results = [check_docstrings(), check_links(), check_code_blocks(), check_protocol_table(), check_taxonomy_table()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
