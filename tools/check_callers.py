#!/usr/bin/env python
"""Every public name and every option in ``src/`` has a caller outside the tests, or a reason.

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

Options get the same audit.  A keyword-only parameter with a default, of a
module-level def or of a method of a module-level class (private ones and
``__init__`` included), counts as set when some call in the same roots passes
a keyword of its name — again by bare name.  ``name=name`` inside a def whose
own ``name`` is such an option only forwards it and does not count, so an
option a constructor merely hands on to its base class is reported with it.
One that stays although no code outside the tests sets it goes on
:data:`KEEP` as ``qualname(option=)``.

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
    # Options only tests set.
    "Transaction.barrier(quiesce_shards=)": "only tests wait on the cross-shard barrier (its lanes are on tools/reach_keep.txt)",
    "SeededFaultPlan.__init__(scripted=)": "a scripted fault is how a test hits exactly the nth frame of one direction",
    "SeededFaultPlan.symmetric(scripted=)": "as on the constructor: a test's nth-frame fault on top of symmetric rates",
    "seal(nonce=)": "a fixed nonce makes a sealed blob reproducible for the crypto tests; code draws a fresh one",
    "ShardRing.__init__(replicas=)": "the ring's smoothness knob; the tests refuse 0 and compare balance across values",
    "enterprise_cloud_trace(rng=)": "an injected generator lets several traces share one seeded stream (determinism policy)",
    "datacenter_flow_durations(rng=)": "an injected generator lets several traces share one seeded stream (determinism policy)",
    "redundancy_trace(rng=)": "an injected generator lets several traces share one seeded stream (determinism policy)",
    "constant_rate_trace(rng=)": "an injected generator lets several traces share one seeded stream (determinism policy)",
    "redundancy_trace(unique_blocks=)": "the payload-golden test pins a small block pool; the benchmarks use the default",
    "run_guarantee_scenario(packets_during_move=)": "the load of the guarantee scenario; tests size it beside the defaults",
    "run_guarantee_scenario(packet_spacing=)": "the load of the guarantee scenario; tests size it beside the defaults",
    "run_guarantee_scenario(feed_destination=)": "the order-preserving test feeds the destination to open its hold window",
    "Firewall.__init__(rules=)": "a test-built firewall's rule set; the examples run the default-deny instance",
    "Firewall.__init__(default_allow=)": "a test-built firewall's policy; the examples run the default-deny instance",
    "LoadBalancer.__init__(vip=)": "a test-built balancer's address; the examples run the default one",
    "LoadBalancer.__init__(backends=)": "a test-built balancer's pool; the examples run the default one",
    "NAT.__init__(port_range=)": "a test-built NAT's port pool; the examples run the default one",
    "NAT.__init__(internal_prefix=)": "a test-built NAT's inside prefix; the examples run the default one",
    # Options nothing sets, not even a test: the address plans and workload shapes of the paper's scenarios.
    "build_two_instance_scenario(client_prefix=)": "the Figure 6 client address plan, a field of the scenario it builds",
    "build_two_instance_scenario(server_prefix=)": "the Figure 6 server address plan, a field of the scenario it builds",
    "build_re_migration_scenario(dc_a_prefix=)": "the Figure 6(a) data-centre address plan, handed to the RE migration app",
    "build_re_migration_scenario(dc_b_prefix=)": "the Figure 6(a) data-centre address plan, handed to the RE migration app",
    "REMigrationApp.__init__(dc_a_prefix=)": "the Figure 6(a) data-centre address plan it rewrites the encoder's cache flows for",
    "REMigrationApp.__init__(dc_b_prefix=)": "the Figure 6(a) data-centre address plan it rewrites the encoder's cache flows for",
    "enterprise_cloud_trace(cloud_subnet=)": "a shape parameter of the synthetic campus-to-cloud trace",
    "enterprise_cloud_trace(mean_requests=)": "a shape parameter of the synthetic campus-to-cloud trace",
    "datacenter_flow_durations(model=)": "the Figure 8 duration model; the default is the paper's fit",
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


def _option_names(function: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> list[str]:
    """The keyword-only parameters of *function* that have a default: its options."""
    return [arg.arg for arg, default in zip(function.args.kwonlyargs, function.args.kw_defaults) if default is not None]


def _options(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(qualified def name, option, line) for each option of a module-level def or of a method of a module-level
    class, private ones included."""
    owners = [(None, tree)] + [(node.name, node) for node in tree.body if isinstance(node, ast.ClassDef)]
    return [
        (f"{owner}.{node.name}" if owner else node.name, option, node.lineno)
        for owner, scope in owners
        for node in scope.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for option in _option_names(node)
    ]


def _passed_by_name(node: ast.AST, forwarded: frozenset = frozenset()) -> set[str]:
    """Every keyword a call under *node* passes, except ``name=name`` inside a def with an option ``name`` (a forward)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        forwarded = frozenset(_option_names(node))
    passed = set()
    if isinstance(node, ast.Call):
        for keyword in node.keywords:
            forward = isinstance(keyword.value, ast.Name) and keyword.value.id == keyword.arg and keyword.arg in forwarded
            if keyword.arg is not None and not forward:
                passed.add(keyword.arg)
    for child in ast.iter_child_nodes(node):
        passed |= _passed_by_name(child, forwarded)
    return passed


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
    """One line per public name under ``root`` without a caller and off both keep-lists, one per option no code sets
    and off ``keep``, plus one per stale ``keep`` entry."""
    listed = _reach_listed(root)
    definitions = []  # (qualified name, path, first line, last line)
    options = []  # (qualname(option=), option, path, line)
    uses: dict[str, list[tuple[Path, int]]] = {}
    passed: set[str] = set()
    for base in CALLER_ROOTS:
        for path in sorted((root / base).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(path))
            skipped = _import_lines(tree) if path.name == "__init__.py" else set()
            for name, line in _name_tokens(text):
                if line not in skipped:
                    uses.setdefault(name, []).append((path, line))
            passed |= _passed_by_name(tree)
            if base == DEFINED_IN:
                definitions += [(qualified, path, *_span(node)) for qualified, node in _definitions(tree)]
                options += [(f"{qualified}({option}=)", option, path, line) for qualified, option, line in _options(tree)]
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
    for qualified, option, path, line in options:
        if option in passed and qualified in keep:
            called_keeps.add(qualified)
        elif option not in passed and qualified not in keep:
            findings.append(f"{path.relative_to(root)}:{line}: {qualified} is passed by name by no code outside tests")
    defined = {qualified for qualified, *_ in definitions + options}
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
