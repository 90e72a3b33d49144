"""Deterministic seeding: reproducibility rests on no ambient randomness.

The chaos harness promises bit-for-bit reproduction from a single seed.  That
only holds if every random draw in ``src/`` flows from an explicitly seeded
generator — one ``random.Random(seed)`` threaded through the chaos runner and
fault plans, and seeded ``numpy`` generators in the traffic module.  These
tests grep the source tree for module-level randomness (the global
``random.*`` functions and the global ``np.random.*`` mutable state) and
verify end-to-end reproducibility of representative workloads.
"""

from __future__ import annotations

import ast
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Module-level random calls: `random.<fn>(` not preceded by `.` (which would
#: be an instance's own `rng.random(...)`) and not `random.Random(` itself.
GLOBAL_RANDOM = re.compile(r"(?<![.\w])random\.(?!Random\b)\w+\s*\(")

#: Global numpy randomness: anything under np.random except default_rng /
#: Generator (seeded object construction).
GLOBAL_NP_RANDOM = re.compile(r"np\.random\.(?!default_rng\b|Generator\b)\w+\s*\(")

#: Wall-clock reads and real sleeps: only the realtime runtime package may
#: touch them; everywhere else must schedule through the shared
#: runtime interface to keep simulated runs deterministic.
WALL_CLOCK = re.compile(r"(?<![.\w])time\.(time|monotonic|perf_counter|sleep)\s*\(")

#: The one package allowed to read the wall clock or block.
RUNTIME_PACKAGE = pathlib.PurePath("repro", "runtime")


def _imported_modules(tree: ast.AST, package: list) -> set:
    """Absolute dotted names a module imports (relative ones resolved against *package*)."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - (node.level - 1)] if node.level else []
            imported.add(".".join(base + ([node.module] if node.module else [])))
            if not node.module:  # ``from . import name`` imports a module too
                imported.update(".".join(base + [alias.name]) for alias in node.names)
    return imported


def _source_lines():
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.split("#", 1)[0]
            if stripped.strip():
                yield path.relative_to(SRC_ROOT), number, stripped


class TestNoAmbientRandomness:
    def test_no_module_level_random_calls_in_src(self):
        offenders = [
            f"{path}:{number}: {line.strip()}"
            for path, number, line in _source_lines()
            if GLOBAL_RANDOM.search(line)
        ]
        assert not offenders, (
            "module-level random.* usage breaks seeded chaos reproducibility; "
            "thread a random.Random(seed) instead:\n" + "\n".join(offenders)
        )

    def test_no_global_numpy_randomness_in_src(self):
        offenders = [
            f"{path}:{number}: {line.strip()}"
            for path, number, line in _source_lines()
            if GLOBAL_NP_RANDOM.search(line)
        ]
        assert not offenders, (
            "global np.random state breaks seeded reproducibility; "
            "use np.random.default_rng(seed):\n" + "\n".join(offenders)
        )

    def test_no_wall_clock_reads_outside_the_runtime_package(self):
        offenders = [
            f"{path}:{number}: {line.strip()}"
            for path, number, line in _source_lines()
            if WALL_CLOCK.search(line) and RUNTIME_PACKAGE not in path.parents
        ]
        assert not offenders, (
            "wall-clock reads or sleeps outside src/repro/runtime/ break simulated-mode "
            "determinism; use the runtime's `now`/`schedule` instead:\n" + "\n".join(offenders)
        )

    def test_no_asyncio_and_no_threading_anywhere(self):
        """There is one event kernel on one thread under both clocks: a second
        event loop is a second scheduler, and a thread is a second driver."""
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            roots = {name.split(".")[0] for name in _imported_modules(ast.parse(path.read_text()), [])}
            if roots & {"asyncio", "threading"}:
                offenders.append(str(path.relative_to(SRC_ROOT)))
        assert not offenders, f"asyncio / threading imported under src/: {offenders}"


class TestEngineLayering:
    def test_the_arq_engine_imports_nothing_from_core_or_net(self):
        """``core`` and ``net`` both import the engine, so it may import neither.

        Relative imports are resolved against the module's own package
        (``repro.runtime``), so ``from ..core import x`` is caught as well.
        """
        path = SRC_ROOT / "repro" / "runtime" / "arq.py"
        imported = _imported_modules(ast.parse(path.read_text()), ["repro", "runtime"])
        offenders = sorted(name for name in imported if name.split(".")[0] == "repro")
        assert not offenders, f"repro.runtime.arq needs only the standard library, but imports {offenders}"

    @pytest.mark.parametrize("module", ["operations", "transaction"])
    def test_an_operation_reaches_the_world_only_through_its_port(self, module):
        """``core/operations.py`` and ``core/transaction.py`` hold no closure and import no kernel, wire or controller.

        A pending reply or completion is a bound method and its arguments,
        never a ``lambda`` or nested ``def`` (data that can be hashed and
        compared); the runtime, channel, sharding, southbound agent and
        controller are reached through the port only, so a move and a
        transaction each run bare behind a fake one.  Imports under
        ``if TYPE_CHECKING:`` are annotations, not dependencies.
        """
        path = SRC_ROOT / "repro" / "core" / f"{module}.py"
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        nested = {inner.lineno for outer in functions for inner in ast.walk(outer) if inner is not outer and inner in functions}
        lambdas = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Lambda)}
        assert not nested and not lambdas, f"{module}.py defines closures: nested defs at {sorted(nested)}, lambdas at {sorted(lambdas)}"
        annotations_only = [
            node for node in tree.body if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
        ]
        runtime = ast.Module(body=[node for node in tree.body if node not in annotations_only], type_ignores=[])
        imported = _imported_modules(runtime, ["repro", "core"])
        banned = ("repro.net", "repro.runtime") + tuple(
            f"repro.core.{name}" for name in ("controller", "channel", "sharding", "southbound")
        )
        offenders = sorted(name for name in imported if name.startswith(banned))
        assert not offenders, f"repro.core.{module} reaches past its port: imports {offenders}"

    def test_the_shard_layer_knows_no_operation(self):
        """``core/sharding.py`` imports nothing from ``core.operations``, not even under ``if TYPE_CHECKING:``.

        A shard is a CPU lane and a ring position; the controller keeps the
        one table of live operations and decides which of them an event
        reaches, so the layers depend one way: operations never reach a
        shard's internals, and a shard never names an operation.
        """
        path = SRC_ROOT / "repro" / "core" / "sharding.py"
        imported = _imported_modules(ast.parse(path.read_text()), ["repro", "core"])
        offenders = sorted(name for name in imported if name == "repro.core.operations" or name.startswith("repro.core.operations."))
        assert not offenders, f"repro.core.sharding imports {offenders}"

    def test_each_northbound_call_is_defined_once_on_the_northbound_api(self):
        """The paper's calls belong to ``NorthboundAPI``; ``MBController`` carries them out and re-exports none.

        None of the ten names is an attribute of ``MBController``, and under
        ``src/repro/core`` each is a method of exactly one class,
        ``NorthboundAPI``.  ``Transaction.write_config`` / ``end_transfer``
        declare a transaction step that runs the northbound call later, and
        ``core/messages.py``'s module-level ``enable_events`` /
        ``disable_events`` build a wire request: neither issues the call, so
        neither counts.
        """
        from repro.core import MBController

        calls = [
            *("read_config", "write_config", "write_config_tree", "query_stats", "enable_events"),
            *("disable_events", "end_transfer", "move_internal", "clone_support", "merge_internal"),
        ]
        assert [name for name in calls if hasattr(MBController, name)] == []
        owners = {name: [] for name in calls}
        for path in sorted((SRC_ROOT / "repro" / "core").glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.ClassDef) and node.name != "Transaction":
                    for member in node.body:
                        if isinstance(member, ast.FunctionDef) and member.name in owners:
                            owners[member.name].append(f"{path.name}:{node.name}")
        expected = {name: ["northbound.py:NorthboundAPI"] for name in calls}
        for name in ("write_config_tree", "query_stats"):  # the controller's spellings; the API's are write_config and stats
            expected[name] = []
        assert owners == expected

    def test_the_realtime_runtime_is_the_simulator_kernel_under_another_clock(self):
        """One heap, one lane, one process driver, one stuck diagnosis.

        ``RealtimeRuntime`` may override what the clock changes (``now``,
        ``schedule``/``schedule_at``, the drive loop) but must inherit the
        rest of the kernel — futures included — and no second copy of a kernel
        class may appear anywhere under ``src/``.
        """
        definitions: dict = {}
        for path in sorted(SRC_ROOT.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    definitions.setdefault(node.name, []).append((path.relative_to(SRC_ROOT), node))
        for name in ("SimulatedLane", "_Process", "all_of", "RealtimeRuntime"):
            where = [str(path) for path, _ in definitions.get(name, [])]
            assert len(where) == 1, f"{name} must be defined exactly once under src/, found {where}"
        (module, runtime_class), = definitions["RealtimeRuntime"]
        assert [ast.unparse(base) for base in runtime_class.bases] == ["Simulator"]
        classes = [n.name for n in ast.parse((SRC_ROOT / module).read_text()).body if isinstance(n, ast.ClassDef)]
        assert classes == ["RealtimeRuntime"], f"{module} defines {classes}"
        own = {node.name for node in runtime_class.body if isinstance(node, ast.FunctionDef)}
        reimplemented = own & {"event", "lane", "timeout", "_stuck", "pending_events"}
        assert not reimplemented, f"RealtimeRuntime re-implements inherited kernel parts: {sorted(reimplemented)}"

    def test_what_a_frame_reuses_has_one_writer(self):
        """The per-frame path trusts two resolved-once structures.

        ``FlowTable``'s exact-match cache is right only while every change to
        ``_rules`` drops it: each method that assigns to, deletes from or
        calls a mutating list method on ``self._rules`` must call
        ``self._invalidate()``, and nothing outside ``FlowTable`` may touch
        ``_rules`` at all.  ``Link._ends`` is right only while it cannot
        change: it is written in ``Link.__init__`` and nowhere else.
        """
        mutating = {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse"}

        def is_attr(node, name):
            return isinstance(node, ast.Attribute) and node.attr == name

        def writes(tree, name):
            """Nodes under *tree* that rebind, delete from or mutate ``<obj>.<name>``."""
            found = []
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr in mutating | {"update", "setdefault"} and is_attr(node.func.value, name):
                        found.append(node)
                elif isinstance(node, (ast.Attribute, ast.Subscript)) and not isinstance(node.ctx, ast.Load):
                    target = node.value if isinstance(node, ast.Subscript) else node
                    if is_attr(target, name):
                        found.append(node)
            return found

        trees = {path: ast.parse(path.read_text()) for path in sorted(SRC_ROOT.rglob("*.py"))}

        def methods(path, class_name):
            (cls,) = [n for n in trees[path].body if isinstance(n, ast.ClassDef) and n.name == class_name]
            return cls, {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}

        flowtable = SRC_ROOT / "repro" / "net" / "flowtable.py"
        links = SRC_ROOT / "repro" / "net" / "links.py"
        table_class, table_methods = methods(flowtable, "FlowTable")
        mutators = {name for name, node in table_methods.items() if name != "__init__" and writes(node, "_rules")}
        assert {"add", "remove_by_cookie"} <= mutators
        for name in sorted(mutators):
            calls = [n for n in ast.walk(table_methods[name]) if isinstance(n, ast.Call) and is_attr(n.func, "_invalidate")]
            assert calls, f"FlowTable.{name} changes _rules without calling _invalidate()"
        inside = {id(node) for node in ast.walk(table_class)}
        _, link_methods = methods(links, "Link")
        in_link_init = {id(node) for node in ast.walk(link_methods["__init__"])}
        assert writes(link_methods["__init__"], "_ends")
        offenders = []
        for path, tree in trees.items():
            for node in ast.walk(tree):
                if is_attr(node, "_rules") and id(node) not in inside:
                    offenders.append(f"{path.relative_to(SRC_ROOT)}:{node.lineno} touches _rules")
            for node in writes(tree, "_ends"):
                if path != links or id(node) not in in_link_init:
                    offenders.append(f"{path.relative_to(SRC_ROOT)}:{node.lineno} writes _ends")
        assert not offenders, "\n".join(offenders)

    def test_one_scenario_program_and_one_auditor_under_every_topology(self):
        """Topology is an axis of the chaos harness, not a second program.

        Under ``src/repro/testing/`` exactly one function starts the workload
        move; ``run_chaos`` and ``run_federated_chaos`` are a docstring and one
        call each (they hand the one program a topology); nothing in
        ``chaos.py`` takes or branches on a ``federated`` flag — topologies
        differ through their hooks; and the neighbour comparison behind "no
        reordering" (``... for a, b in zip(seqs, seqs[1:])``) is written once
        under ``src/``, in the auditor's ``strictly_increasing``.
        """
        testing = SRC_ROOT / "repro" / "testing"
        trees = {path: ast.parse(path.read_text()) for path in sorted(SRC_ROOT.rglob("*.py"))}

        def functions(tree):
            return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

        def calls(function, name):
            return [
                node
                for node in ast.walk(function)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == name
            ]

        movers = [
            f"{path.relative_to(SRC_ROOT)}:{function.name}"
            for path, tree in trees.items()
            if testing in path.parents
            for function in functions(tree)
            if calls(function, "move_internal")
        ]
        assert len(movers) == 1, f"exactly one function under repro/testing may start the move, found {movers}"

        chaos = trees[testing / "chaos.py"]
        entry_points = {function.name: function for function in chaos.body if isinstance(function, ast.FunctionDef)}
        for name in ("run_chaos", "run_federated_chaos"):
            docstring, only = entry_points[name].body
            assert isinstance(docstring.value, ast.Constant) and isinstance(docstring.value.value, str)
            assert isinstance(only, ast.Return) and isinstance(only.value, ast.Call), f"{name} must be one call"
            assert [arg.arg for arg in entry_points[name].args.kwonlyargs] == ["runtime"]
        flagged = [
            f"chaos.py:{node.lineno}"
            for node in ast.walk(chaos)
            if (isinstance(node, ast.arg) and node.arg == "federated")
            or (isinstance(node, ast.Name) and node.id == "federated")
            or (isinstance(node, ast.Attribute) and node.attr == "federated")
        ]
        assert not flagged, f"a federated flag is threaded through the scenario program: {flagged}"

        def compares_neighbours(node):
            """A comprehension over ``zip(x, x[1:])`` that compares each pair."""
            if not isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                return False
            for generator in node.generators:
                call = generator.iter
                if not (isinstance(call, ast.Call) and ast.unparse(call.func) == "zip" and len(call.args) == 2):
                    continue
                if ast.unparse(call.args[1]) == f"{ast.unparse(call.args[0])}[1:]":
                    return any(isinstance(part, ast.Compare) for part in [node.elt, *generator.ifs])
            return False

        sites = [
            f"{path.relative_to(SRC_ROOT)}:{function.name}"
            for path, tree in trees.items()
            for function in functions(tree)
            if any(compares_neighbours(node) for node in ast.walk(function))
        ]
        assert sites == ["repro/testing/chaos.py:strictly_increasing"], sites

    def test_only_the_messages_module_reads_a_message_body(self):
        """The wire format of every body lives behind ``core/messages.py``.

        Anywhere else a ``.body`` attribute access — ``.body[...]``,
        ``.body.get(...)`` or an alias taken of it — is a second copy of the
        format; the other modules take typed fields from ``messages.parse``
        and build messages with the constructors (``body=`` keywords are not
        attribute accesses).
        """
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if path.relative_to(SRC_ROOT) == pathlib.PurePath("repro", "core", "messages.py"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr == "body":
                    offenders.append(f"{path.relative_to(SRC_ROOT)}:{node.lineno}")
        assert not offenders, "message bodies read outside core/messages.py:\n" + "\n".join(offenders)

    def test_table_1_is_declared_once_and_the_payload_format_lives_in_one_module(self):
        """A middlebox states its cells; nothing restates the taxonomy or the payload format.

        Under ``src/repro/middleboxes/`` no function is named ``serialize_*`` /
        ``deserialize_*``; ``to_payload`` / ``from_payload`` are defined only by
        classes whose wire form is not their fields (``PacketCache``); the second
        chunk type and its seal / wire pairs are gone from ``src/``; the tuple
        ``(StateRole.SUPPORTING, StateRole.REPORTING)`` is spelled nowhere
        outside ``core/state.py`` — roles come from the taxonomy, which therefore
        has readers in ``middleboxes/base.py`` and ``core/operations.py``.
        """
        explicit_pair_allowed = {"PacketCache"}
        gone = {"SharedChunk", "seal_shared", "unseal_shared", "encode_shared_chunk", "decode_shared_chunk"}
        state_module = pathlib.PurePath("repro", "core", "state.py")
        offenders, taxonomy_readers = [], set()
        for path in sorted(SRC_ROOT.rglob("*.py")):
            relative = path.relative_to(SRC_ROOT)
            text = path.read_text()
            tree = ast.parse(text)
            offenders.extend(f"{relative} names {name}" for name in sorted(gone) if name in text)
            for owner in ast.walk(tree):
                for node in ast.iter_child_nodes(owner):
                    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    hook = node.name.startswith(("serialize_", "deserialize_")) and "middleboxes" in relative.parts
                    pair = node.name in ("to_payload", "from_payload") and not (
                        isinstance(owner, ast.ClassDef) and owner.name in explicit_pair_allowed
                    )
                    if hook or pair:
                        offenders.append(f"{relative}:{node.lineno} defines {node.name}")
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and node.id in ("TAXONOMY", "state_class"):
                    taxonomy_readers.add(relative)
                if isinstance(node, ast.Tuple) and relative != state_module:
                    if [ast.unparse(item) for item in node.elts] == ["StateRole.SUPPORTING", "StateRole.REPORTING"]:
                        offenders.append(f"{relative}:{node.lineno} enumerates the two roles by hand")
        assert not offenders, "\n".join(offenders)
        for reader in ("middleboxes/base.py", "core/operations.py"):
            assert pathlib.PurePath("repro", reader) in taxonomy_readers, f"{reader} no longer reads the taxonomy"

    def test_the_counters_type_exists_once(self):
        """Telemetry is ``repro.obs.Counters``: no ``*Stats`` / ``*Counters`` / ``*Summary`` dataclass under ``src/``.

        ``MonitorStats`` is Table 1 middlebox state (the monitor's shared
        report, moved and merged like any other state), so it stays a
        dataclass.  ``ControllerStats`` is a ``Counters`` with the operation
        archive beside it.
        """
        offenders, controller_bases = [], None
        for path in sorted(SRC_ROOT.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ClassDef):
                    continue
                decorators = [ast.unparse(item.func if isinstance(item, ast.Call) else item) for item in node.decorator_list]
                dataclass = any(name.split(".")[-1] == "dataclass" for name in decorators)
                if dataclass and node.name.endswith(("Stats", "Counters", "Summary")) and node.name != "MonitorStats":
                    offenders.append(f"{path.relative_to(SRC_ROOT)}:{node.lineno} {node.name}")
                if node.name == "ControllerStats":
                    controller_bases = [ast.unparse(base) for base in node.bases]
        assert not offenders, f"stats dataclasses beside repro.obs.Counters: {offenders}"
        from repro.core.stats import ControllerStats
        from repro.obs import Counters

        assert controller_bases == ["Counters"] and issubclass(ControllerStats, Counters)


class TestIdsAreNumberedByTheirOwner:
    """No id lives in process-global state: a scenario's bytes depend on its seed and topology alone."""

    def test_no_module_binds_a_mutable_id_counter(self):
        """A counter belongs to the object owning what it numbers; a module-level one
        (or ``global`` rebinding module state) numbers across every run in the process."""
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in [*tree.body, *(node for node in ast.walk(tree) if isinstance(node, ast.Global))]:
                calls = [ast.unparse(call.func) for call in ast.walk(node) if isinstance(call, ast.Call)]
                binds = isinstance(node, (ast.Assign, ast.AnnAssign))
                if isinstance(node, ast.Global) or (binds and {"count", "itertools.count"} & set(calls)):
                    offenders.append(f"{path.relative_to(SRC_ROOT)}:{node.lineno}: {ast.unparse(node)}")
        assert not offenders, "\n".join(offenders)

    def test_the_southbound_transcript_does_not_depend_on_what_ran_before(self):
        """The southbound-golden scenario, 50 chaos scenarios, then the golden scenario
        again, all in this process: the two transcripts are byte-identical."""
        from test_southbound_golden import record

        from repro.testing import ChaosSpec, run_chaos

        first = record()
        cells = itertools.cycle(itertools.product(("loss_free", "order_preserving"), ("snapshot", "precopy"), ("lossy", "chaotic")))
        for seed, (guarantee, mode, profile) in zip(range(50), cells):
            run_chaos(ChaosSpec(seed=seed, guarantee=guarantee, mode=mode, profile=profile)).assert_ok()
        assert record() == first


class TestSeededReproducibility:
    def test_traffic_generators_reproduce_from_seed(self):
        from repro.traffic.generators import constant_rate_trace, enterprise_cloud_trace

        first = enterprise_cloud_trace(http_flows=10, other_flows=4, seed=5)
        second = enterprise_cloud_trace(http_flows=10, other_flows=4, seed=5)
        assert [record.payload for record in first.records] == [
            record.payload for record in second.records
        ]
        assert constant_rate_trace(rate=500, duration=0.1, seed=7).records[3].payload == (
            constant_rate_trace(rate=500, duration=0.1, seed=7).records[3].payload
        )

    def test_traffic_generators_accept_a_shared_rng(self):
        """One master generator can be threaded through several traces."""
        from repro.traffic.generators import constant_rate_trace, redundancy_trace

        master = np.random.default_rng(123)
        first = constant_rate_trace(rate=500, duration=0.05, rng=master)
        second = redundancy_trace(packets=20, rng=master)
        replay_master = np.random.default_rng(123)
        first_again = constant_rate_trace(rate=500, duration=0.05, rng=replay_master)
        second_again = redundancy_trace(packets=20, rng=replay_master)
        assert [r.payload for r in first.records] == [r.payload for r in first_again.records]
        assert [r.payload for r in second.records] == [r.payload for r in second_again.records]

    def test_chaos_runs_reproduce_from_seed(self):
        from repro.testing import ChaosSpec, run_chaos

        spec = ChaosSpec(seed=31337, guarantee="loss_free", mode="precopy", profile="chaotic", shards=4)
        first = run_chaos(spec)
        second = run_chaos(spec)
        assert first.executed_events == second.executed_events
        assert first.settled_at == second.settled_at
        assert first.retransmits == second.retransmits
        assert first.drops == second.drops


#: A small ``concurrent_moves``: four order-preserving ``/25`` moves on four
#: controller shards with live re-process events, every store ``indexed=True``
#: — so each get exports the server address's posting bucket, filtered by the
#: ``/25``, in whatever order that bucket iterates.  Prints what it observed.
INDEXED_MOVES = """
import json, random
from repro.core import ControllerConfig, FlowPattern, MBController, NorthboundAPI, PerFlowStateStore
from repro.middleboxes import DummyMiddlebox
from repro.net import Simulator

rng = random.Random(12)
sim = Simulator()
controller = MBController(sim, ControllerConfig(quiescence_timeout=0.1, num_shards=4, dispatch_tick=0.5e-3))
northbound = NorthboundAPI(controller)
pairs = []
for index in range(4):
    src = DummyMiddlebox(sim, f"src-{index}", subnet=f"10.{index}")
    dst = DummyMiddlebox(sim, f"dst-{index}", subnet=f"10.{index}")
    for middlebox in (src, dst):
        middlebox.support_store = PerFlowStateStore(middlebox.support_store.granularity, indexed=True)
        middlebox.report_store = PerFlowStateStore(middlebox.report_store.granularity, indexed=True)
    src.populate(100)
    controller.register(src)
    controller.register(dst)
    pairs.append((src, dst))
for src, _ in pairs:
    phase = rng.random() / 400.0
    for n in range(20):
        sim.schedule(phase + (n + 1) / 400.0, src.generate_reprocess_event, rng.randrange(100))
handles = [
    northbound.move_internal(src.name, dst.name, FlowPattern(nw_src=f"{src.subnet}.1.0/25", nw_dst="192.0.2.10"), spec="order_preserving")
    for src, dst in pairs
]
for handle in handles:
    sim.run_until(handle.finalized, limit=5_000)
sim.run(until=sim.now + 2.0)
channels = [controller.channel_for(middlebox.name) for pair in pairs for middlebox in pair]
print(json.dumps({
    "events": sim.executed_events,
    "bytes": [stats.bytes for channel in channels for stats in (channel.to_mb, channel.to_controller)],
    "durations": [handle.record.finalized_at - handle.record.started_at for handle in handles],
    "chunks": [handle.record.chunks_transferred for handle in handles],
}))
"""


class TestHashSeedIndependence:
    def test_an_indexed_move_schedule_does_not_depend_on_the_hash_seed(self):
        """String hashing is salted per process, so a ``set`` of flow keys iterates in a
        different order under each ``PYTHONHASHSEED``.  Export order is wire order: were an
        index bucket a ``set``, the events, bytes and durations below would differ between
        the two processes.  A bucket is insertion-ordered, so they are identical."""
        observed = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC_ROOT)}
            done = subprocess.run([sys.executable, "-c", INDEXED_MOVES], env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            observed.append(json.loads(done.stdout))
        assert observed[0]["chunks"] == [200] * 4
        assert observed[0] == observed[1]
