#!/usr/bin/env python
"""Which ``src/`` lines and functions the tests reach, and which the system itself runs.

Two groups of runs are traced with ``sys.settrace``, each file in its own
process (a single traced pytest process stops tracing partway, so one process
per file is what makes the numbers whole):

* **tier-1** — every ``tests/test_*.py``, through pytest (every traced
  process runs with ``PYTHONHASHSEED=0`` and pytest with a fixed hypothesis
  seed, so two runs on one tree enter the same functions);
* **non-test** — what the system runs without its tests: every
  ``benchmarks/bench_*.py`` (through pytest with ``--benchmark-disable``; the
  ``BENCH_*.json`` documents they write go to a temporary directory), every
  ``examples/*.py`` script, each host-time benchmark workload at ``run --smoke``
  size through the traced path the benchmark's per-layer run takes (in-process
  ``benchmarks.perf worker --trace 1``, which also runs the untraced
  iterations), and the isolated probes (``benchmarks.perf probes``).

The report gives, per package, the share of executable ``src/`` lines (lines
the compiler emits code for) each group reaches, then counts the functions
(named ``def``\\ s; lambdas and comprehensions are not counted) in two
groups: **test-only** (tier-1 enters them, non-test code does not) and
**never entered** (neither group does).

It is a gate against :data:`KEEP_LIST`, which names every function ``src/``
keeps in either group, under the group's section header, keyed
``path qualname`` (no line number, so an unrelated edit does not move a
key). The exit status is 1
when a function is in a group but not listed there, when a listed entry is no
longer in its group or no longer exists (so the list can only shrink as the
system grows), or when a traced run could not be started or wrote nothing.

Usage: ``python tools/reach.py`` (``--child`` is the internal entry point of
one traced run).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = "src"
GROUPS = ("tier1", "non-test")
#: Traced processes at once.
JOBS = 2
#: CPU seconds each isolated probe loops for, as ``run --smoke --trace`` runs them.
SMOKE_PROBE_SECONDS = 0.05
#: The committed list of what ``src/`` keeps in each group, with the reasons as comments.
KEEP_LIST = REPO_ROOT / "tools" / "reach_keep.txt"
TEST_ONLY, NEVER_ENTERED = "test-only", "never entered"


@dataclass
class Hits:
    """What one group of runs executed: lines per file and functions entered, keyed by repo-relative path."""

    lines: dict[str, set[int]] = field(default_factory=dict)
    entered: set[tuple[str, int]] = field(default_factory=set)

    def update(self, other: "Hits") -> None:
        for path, lines in other.lines.items():
            self.lines.setdefault(path, set()).update(lines)
        self.entered |= other.entered


# -- static side: what could run ------------------------------------------------------------


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def analyse(path: Path) -> tuple[set[int], dict[int, str]]:
    """(executable lines, {first line: qualified name} of each named function) of one source file."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)
    lines: set[int] = set()
    functions: dict[int, str] = {}
    for code in _code_objects(module):
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        if code is not module and code.co_flags & 0x1 and not code.co_name.startswith("<"):  # CO_OPTIMIZED: a function body
            functions[code.co_firstlineno] = code.co_qualname
    return lines, functions


def source_tree(root: Path = REPO_ROOT) -> tuple[dict[str, set[int]], dict[tuple[str, int], str]]:
    """Executable lines per ``src/`` file and every named function, keyed by repo-relative path."""
    executable, functions = {}, {}
    for path in sorted((root / SRC).rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        executable[relative], found = analyse(path)
        functions.update({(relative, line): name for line, name in found.items()})
    return executable, functions


# -- classification: the report, as a pure function of the hit sets ----------------------------------


def package_of(path: str) -> str:
    """``src/repro/core/state.py`` -> ``repro.core``."""
    return ".".join(Path(path).parent.relative_to(SRC).parts)


@dataclass
class Report:
    #: package -> (executable lines, reached by tier-1, reached by non-test code); ``total`` last.
    packages: dict[str, tuple[int, int, int]]
    functions: int
    entered: dict[str, int]
    #: Key of each function tier-1 enters and non-test code does not.
    test_only: list[str]
    #: Key of each function neither group enters.
    never_entered: list[str]


def classify(executable: dict[str, set[int]], functions: dict[tuple[str, int], str], tier1: Hits, other: Hits) -> Report:
    """Per-package line reach of both groups, and the functions only the tests enter or nothing enters."""
    counts: dict[str, list[int]] = {}
    for path, lines in sorted(executable.items()):
        row = counts.setdefault(package_of(path), [0, 0, 0])
        row[0] += len(lines)
        row[1] += len(lines & tier1.lines.get(path, set()))
        row[2] += len(lines & other.lines.get(path, set()))
    packages = {name: tuple(row) for name, row in sorted(counts.items())}
    packages["total"] = tuple(sum(row[i] for row in counts.values()) for i in range(3))
    keys = {(path, line): f"{path} {name}" for (path, line), name in functions.items()}
    test_only = sorted(key for function, key in keys.items() if function in tier1.entered and function not in other.entered)
    never_entered = sorted(key for function, key in keys.items() if function not in tier1.entered and function not in other.entered)
    entered = {
        "tier1": len(functions.keys() & tier1.entered),
        "non-test": len(functions.keys() & other.entered),
        "neither": len(never_entered),
    }
    return Report(packages, len(functions), entered, test_only, never_entered)


def read_keep_list(text: str) -> dict[str, set[str]]:
    """The keys listed under each ``[group]`` header; ``#`` starts a comment, blank lines are skipped."""
    listed: dict[str, set[str]] = {TEST_ONLY: set(), NEVER_ENTERED: set()}
    group = None
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            group = line[1:-1]
            if group not in listed:
                raise ValueError(f"line {number}: unknown section [{group}]")
        elif group is None:
            raise ValueError(f"line {number}: entry before the first section header")
        else:
            listed[group].add(" ".join(line.split()))
    return listed


def gate(report: Report, listed: dict[str, set[str]]) -> list[str]:
    """One line per function in a group but not listed there, and one per listed entry no longer in its group."""
    findings = []
    for group, found in ((TEST_ONLY, set(report.test_only)), (NEVER_ENTERED, set(report.never_entered))):
        findings += [f"[{group}] {key}: not on the keep-list; delete it, give it a caller, or list it with a reason"
                     for key in sorted(found - listed[group])]
        findings += [f"[{group}] {key}: listed but no longer in this group (or gone); drop the entry"
                     for key in sorted(listed[group] - found)]
    return findings


def render(report: Report) -> list[str]:
    def share(part: int, whole: int) -> str:
        return f"{100.0 * part / whole:7.1f} %" if whole else "      - "

    out = [f"{'package':<24} {'lines':>7} {'tier-1':>9} {'non-test':>9}"]
    for name, (lines, tier1, other) in report.packages.items():
        out.append(f"{name:<24} {lines:>7} {share(tier1, lines)} {share(other, lines)}")
    out.append("")
    out.append(
        f"functions: {report.functions}; tier-1 enters {report.entered['tier1']}, non-test code "
        f"{report.entered['non-test']}, neither {report.entered['neither']}; only tests enter {len(report.test_only)}"
    )
    return out


# -- dynamic side: one traced process per file ----------------------------------------------------


def _tracer(prefix: str):
    """(global trace function, line hits by filename, entered (filename, first line)) for files under *prefix*."""
    lines: dict[str, set[int]] = {}
    entered: set[tuple[str, int]] = set()
    wanted: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        keep = wanted.get(code.co_filename)
        if keep is None:
            keep = wanted[code.co_filename] = os.path.abspath(code.co_filename).startswith(prefix)
        if not keep:
            return None
        lines.setdefault(code.co_filename, set())
        entered.add((code.co_filename, code.co_firstlineno))
        return local

    return on_call, lines, entered


def _run_target(kind: str, target: str, args: list[str]) -> None:
    import runpy

    sys.argv = [target, *args]
    if kind == "pytest":
        import pytest

        # A fixed hypothesis seed, like PYTHONHASHSEED below: a function only a drawn input reaches must not
        # move between the groups from one run to the next.
        pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", target, *args])
    elif kind == "script":
        runpy.run_path(target, run_name="__main__")
    else:
        runpy.run_module(target, run_name="__main__", alter_sys=True)


def child(out: Path, kind: str, target: str, args: list[str]) -> None:
    """Trace one run of *target* and write its ``src/`` hits to *out* as JSON."""
    sys.path[:0] = [str(REPO_ROOT / "benchmarks")]
    results = out.with_suffix(".results")
    results.mkdir()
    for name in ("benchmarks._results", "_results"):  # keep the committed BENCH_*.json documents untouched
        __import__(name)
        sys.modules[name].RESULTS_DIR = results
    on_call, lines, entered = _tracer(str(REPO_ROOT / SRC) + os.sep)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        _run_target(kind, target, args)
    except SystemExit:
        pass
    finally:
        sys.settrace(None)
        threading.settrace(None)
    document = {
        "lines": {os.path.abspath(name): sorted(hit) for name, hit in lines.items() if hit},
        "entered": sorted({(os.path.abspath(name), line) for name, line in entered}),
    }
    out.write_text(json.dumps(document))


def jobs_for(group: str, root: Path = REPO_ROOT) -> list[tuple[str, str, list[str]]]:
    """(kind, target, args) of every traced run in *group*."""
    if group == "tier1":
        return [("pytest", path.relative_to(root).as_posix(), []) for path in sorted((root / "tests").glob("test_*.py"))]
    # pytest-benchmark pauses tracing while it times a benchmark unless it is disabled.
    benches = sorted((root / "benchmarks").glob("bench_*.py"))
    runs = [("pytest", path.relative_to(root).as_posix(), ["--benchmark-disable"]) for path in benches]
    runs += [("script", path.relative_to(root).as_posix(), []) for path in sorted((root / "examples").glob("*.py"))]
    # Imported here, not at the top: a child imports nothing of ``src/`` before its tracer starts.
    sys.path.insert(0, str(root))
    from benchmarks.perf import cli, harness

    smoke = types.SimpleNamespace(smoke=True, iterations=None, scale=None)  # ``run --smoke``'s arguments
    for name in cli.WORKLOADS:
        args = ["--workload", name, "--seed", str(harness.DEFAULT_SEED), *cli._worker_args(smoke, name, trace=True)]
        runs.append(("module", "benchmarks.perf", ["worker", *args]))
    runs.append(("module", "benchmarks.perf", ["probes", "--seconds", str(SMOKE_PROBE_SECONDS)]))
    return runs


def _traced(job: tuple[str, str, list[str]], scratch: Path, index: int) -> Hits | None:
    kind, target, args = job
    out = scratch / f"{index}.json"
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join([str(REPO_ROOT / SRC), str(REPO_ROOT)]))
    command = [sys.executable, str(Path(__file__).resolve()), "--child", str(out), kind, target, *args]
    subprocess.run(command, cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if not out.exists():
        return None
    document = json.loads(out.read_text())

    def relative(name: str) -> str:
        return Path(name).relative_to(REPO_ROOT).as_posix()

    lines = {relative(name): set(hit) for name, hit in document["lines"].items()}
    return Hits(lines, {(relative(name), line) for name, line in document["entered"]})


def collect(group: str) -> tuple[Hits, list[str]]:
    """Merged hits of every run in *group*, and the targets whose run wrote nothing."""
    runs = jobs_for(group)
    merged, failed = Hits(), []
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch, ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = pool.map(lambda item: _traced(item[1], Path(scratch), item[0]), enumerate(runs))
        for (kind, target, args), hits in zip(runs, results):
            if hits is None:
                failed.append(" ".join([target, *args]))
            else:
                merged.update(hits)
    return merged, failed


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        child(Path(argv[1]), argv[2], argv[3], argv[4:])
        return 0
    hits, failed = {}, []
    for group in GROUPS:
        hits[group], missing = collect(group)
        failed += missing
    executable, functions = source_tree()
    report = classify(executable, functions, hits["tier1"], hits["non-test"])
    findings = gate(report, read_keep_list(KEEP_LIST.read_text(encoding="utf-8")))
    for line in render(report):
        print(line)
    for target in failed:
        print(f"no hits written by {target}")
    for finding in findings:
        print(finding)
    print(f"reach: {len(findings)} finding(s) against {KEEP_LIST.relative_to(REPO_ROOT).as_posix()}")
    return 1 if failed or findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
