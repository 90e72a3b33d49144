#!/usr/bin/env python
"""Every public name in ``src/`` has a caller outside the tests, or a reason.

A public def or class (module level, or a method of a module-level class; no
leading underscore, no dunder) counts as called when its name appears as a
code token — ``tokenize`` ``NAME``, so comments, docstrings and strings do not
count — anywhere in ``src/``, ``benchmarks/``, ``examples/`` or ``tools/``,
except inside its own definition and in a package ``__init__.py``'s imports
(a re-export is not a use).  The match is by bare name, as a reader grepping
for callers would do it: ``Topology.connect`` is called if any code says ``connect``.
Tests do not count: an accessor whose only caller is its own unit test is
surface nothing needs.

A name reached only by string (``getattr(cell, "cloneable")``) or kept for a
stated reason goes on :data:`KEEP` with one line saying why.  An entry that no
longer names a definition, or whose name code now calls, is reported too, so
the list cannot rot.

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
    # Probes of behaviour no other API exposes.
    "Middlebox.transferred_flow_count": "the only view of which flows were handed over, asserted by re-process event tests",
    "PassiveMonitor.flow_records": "the only read of the monitor's per-flow reporting rows, asserted by move tests",
    "Switch.buffered_count": "the only count of packets a suspended pattern holds, asserted by the Split/Merge switch tests",
    "MiddleboxCounters.mean_processing_latency": "the only per-packet latency figure, asserted by the transfer-slowdown tests",
    # Surface a planned consumer or the verify recipe calls.
    "Switch.protect_port": "the call a corruption-detecting monitor app makes to switch link protection on",
    "udp_packet": "the packet constructor the data-plane verify recipe drives hosts with",
    "run_equivalence": "the sim/wall-clock differential harness; repro.testing is the library test suites call",
    # Table 2 middleboxes and the models and apps a day-shaped cluster scenario drives.
    "Firewall": "Table 2 middlebox (configuration + per-flow supporting state)",
    "LoadBalancer": "Table 2 middlebox (coarser-than-five-tuple granularity)",
    "RebalanceApp": "the scaling app's rebalance composite, beside ScaleUpApp / ScaleDownApp",
    "datacenter_trace": "heavy-tailed data-center traffic model (Fig. 8 duration CDF)",
    "scan_trace": "port-scan traffic model that drives the IDS's scan detection",
    "replay_trace_through": "one-call trace replay into a middlebox, used by the state-surface verify recipe",
    # Exported configuration: deleting the method changes config bytes.
    "NAT.expire_idle_mappings": "applies the exported NAT.MappingTimeout configuration key",
}


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) for each public module-level def/class and each public method of such a class."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("_"):
                    found.append((f"{node.name}.{member.name}", member))
    return found


def _span(node: ast.AST) -> tuple[int, int]:
    """First and last line of a definition, decorators included."""
    first = min([node.lineno] + [decorator.lineno for decorator in node.decorator_list])
    return first, node.end_lineno or node.lineno


def _name_tokens(text: str) -> list[tuple[str, int]]:
    return [(token.string, token.start[0]) for token in tokenize.generate_tokens(io.StringIO(text).readline) if token.type == tokenize.NAME]


def _import_lines(tree: ast.Module) -> set[int]:
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    return {line for node in imports for line in range(node.lineno, node.end_lineno + 1)}


def audit(root: Path = REPO_ROOT, keep: dict[str, str] = KEEP) -> list[str]:
    """One line per public name under ``root`` without a caller, plus one per stale ``keep`` entry."""
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
