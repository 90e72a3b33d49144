"""Transactional northbound API: composite operations as one operation graph.

The paper's value proposition is *joint* control of middlebox state and
routing, but the six primitives of section 5 leave the joint part to every
control application: clone the configuration, query stats, move state, and
only then re-route — hand-sequenced with raw futures.  This module turns that
recurring choreography into a first-class object:

``nb.transaction()`` yields a :class:`Transaction` on which an application
declares **steps** — ``clone_config``, ``write_config``, ``stats``,
``end_transfer``, ``move``, ``clone``, ``merge``, ``reroute``, ``barrier``,
``call`` — plus the **composite verbs** ``migrate`` and ``drain``, which
expand into the paper's sequences.  ``commit()`` returns a
:class:`TransactionHandle` with per-step progress, aggregate statistics, and
all-or-nothing failure semantics.

A transaction reaches the world only through its *port*, which
:class:`~repro.core.northbound.NorthboundAPI` implements and a test can fake:

* the clock — ``now``, ``schedule(delay, fn, *args)`` and ``event(name)``;
* the operation launchers ``move_internal``, ``clone_support`` and
  ``merge_internal``, each returning an
  :class:`~repro.core.operations.OperationHandle`, and ``abort_operation``;
* the pass-through calls ``clone_config``, ``write_config``, ``stats`` and
  ``end_transfer``, each returning a future;
* ``quiesce(handles)``, the cross-shard barrier.

A step is data: its kind, its arguments, its ``(step, point)`` dependency
edges, and its :class:`StepRecord`.  There are four kinds — *call* (run a
function and await the future it returns), *operation* (a move, clone or
merge), *reroute* (a declarative route swap through an SDN controller, undone
on abort) and *barrier*.  The transaction counts each step's unmet edges; a
pending completion is a bound method and its arguments, never a closure, and
the only future a transaction creates is ``handle.done``.

Three behaviours distinguish a transaction from hand-sequencing:

* **coordinated re-routing** — a ``reroute`` attached to a ``move`` starts as
  soon as the move's per-flow put-ACKs have all arrived
  (``OperationHandle.state_installed``) instead of after whole-operation
  completion, shrinking the window in which traffic still reaches the old
  instance;
* **declarative ordering** — each step depends on the previously declared
  step by default; explicit ``after=`` / ``barrier()`` edges express the rest
  of the operation graph;
* **all-or-nothing failure** — the first failing step aborts the whole
  transaction: pending steps are cancelled, in-flight operations are failed
  (releasing any order-preserving destination packet holds), declarative
  routes are removed, and completed-but-unfinalised operations have their
  destructive post-quiescence step (the source delete) cancelled so the
  source keeps its state.

The legacy primitives (``moveInternal`` & co.) remain available unchanged;
each is semantically a single-step transaction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import TransactionAbortedError, TransactionError
from .flowspace import FlowPattern
from .transfer import TransferSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..net.simulator import Future
    from .operations import OperationHandle


class StepStatus(enum.Enum):
    """Lifecycle of one transaction step."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    ROLLED_BACK = "rolled_back"


@dataclass
class StepRecord:
    """Per-step progress exposed on the transaction handle."""

    step_id: int
    name: str
    status: StepStatus = StepStatus.PENDING
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: Step-specific measurements (operation records, stats replies, ...).
    detail: Dict[str, object] = field(default_factory=dict)


#: The two points of a step a dependency edge can wait for: its completion,
#: or its state-installed point (an operation's put-ACKs; any other step's
#: completion).
DONE, INSTALLED = "done", "installed"


@dataclass(eq=False)
class Step:
    """One node of the operation graph: what runs, and on which points it waits.

    ``args`` are the arguments of the transaction's ``_run_<kind>`` method:
    ``(fn, fn_args, detail_key)`` for a call, ``(launcher, launch_args,
    wait_finalized)`` for an operation, ``(sdn, pattern, path, priority)`` for
    a reroute, and ``(operation steps, finalized, quiesce_shards)`` for a
    barrier.  The fields after ``record`` are progress, kept while it runs.
    """

    kind: str
    args: tuple
    deps: List[Tuple["Step", str]]
    record: StepRecord
    #: The operation's handle, once an operation step launched it.
    handle: Optional["OperationHandle"] = None
    #: The route swap a reroute step installed (what its rollback undoes).
    swap: object = None
    #: Unmet dependency edges before it starts; unresolved futures of a running barrier.
    waiting: int = 0
    #: Whether the step passed its state-installed point / finished (either way).
    installed: bool = False
    settled: bool = False
    error: Optional[BaseException] = None


class TransactionHandle:
    """Progress and outcome of one committed transaction."""

    def __init__(self, txn: "Transaction") -> None:
        self._txn = txn
        #: Resolves with this handle when every step is done; fails with
        #: :class:`TransactionAbortedError` after rollback on the first error.
        self.done: Future = txn.port.event(f"txn{txn.txn_id}.done")

    @property
    def steps(self) -> List[StepRecord]:
        """Per-step progress, in declaration order."""
        return [step.record for step in self._txn.steps]

    @property
    def status(self) -> str:
        """Transaction status: ``running``, ``committed``, or ``aborted``."""
        return self._txn.status

    @property
    def operation_records(self) -> List:
        """Records of every stateful operation the transaction ran."""
        return [step.handle.record for step in self._txn.steps if step.handle is not None]

    def aggregate(self) -> Dict[str, object]:
        """Roll-up statistics across every operation step."""
        records = self.operation_records
        return {
            "operations": len(records),
            "chunks_transferred": sum(r.chunks_transferred for r in records),
            "bytes_transferred": sum(r.bytes_transferred for r in records),
            "events_received": sum(r.events_received for r in records),
            "events_forwarded": sum(r.events_forwarded for r in records),
            "puts_acked": sum(r.puts_acked for r in records),
            "releases_sent": sum(r.releases_sent for r in records),
            "steps_done": sum(1 for s in self.steps if s.status is StepStatus.DONE),
            "steps_total": len(self.steps),
        }


PatternLike = Union[FlowPattern, Dict[str, object], List[str], str, None]


class Transaction:
    """Builder + coordinator for one composite northbound transaction."""

    def __init__(self, port, txn_id: int) -> None:
        self.port = port
        self.txn_id = txn_id
        self.steps: List[Step] = []
        #: ``building``, then ``running``, then ``committed`` or ``aborted``.
        self.status = "building"
        self.handle: Optional[TransactionHandle] = None
        #: Optional callable receiving human-readable step progress messages.
        self.observer: Optional[Callable[[str], None]] = None
        self._done_count = 0
        #: (step id, point) -> the steps waiting on that point, one entry per
        #: edge, in declaration order.
        self._dependents: Dict[Tuple[int, str], List[Step]] = {}

    # -- building -------------------------------------------------------------------------

    @staticmethod
    def _edges(after, op_mode: str = DONE) -> List[Tuple[Step, str]]:
        """Coerce ``after=`` into (step, point) edges.

        Accepts a step, a ``(step, point)`` tuple, or a list of either.  A bare
        step means its completion, except that *operation* steps referenced
        from a reroute (``op_mode=INSTALLED``) mean their state-installed
        point — the coordinated re-route edge.
        """
        if isinstance(after, Step) or (isinstance(after, tuple) and len(after) == 2 and isinstance(after[1], str)):
            after = [after]
        return [dep if isinstance(dep, tuple) else (dep, op_mode if dep.kind == "operation" else DONE) for dep in after]

    def _add(self, kind: str, name: str, args: tuple, after=None, *, op_mode: str = DONE) -> Step:
        """Append a step with its dependency edges (default: the previous step's completion)."""
        if self.status != "building":
            raise TransactionError("cannot add steps after commit()")
        if after is not None:
            deps = self._edges(after, op_mode)
        else:
            deps = [(self.steps[-1], DONE)] if self.steps else []
        step = Step(kind, args, deps, StepRecord(step_id=len(self.steps) + 1, name=name))
        self.steps.append(step)
        return step

    @staticmethod
    def _pattern(pattern: PatternLike) -> Optional[FlowPattern]:
        """Coerce a PatternLike into a FlowPattern, passing None through."""
        if pattern is None or isinstance(pattern, FlowPattern):
            return pattern
        return FlowPattern.parse(pattern)

    def clone_config(self, src: str, dst: str, key: str = "*", *, after=None) -> Step:
        """Duplicate *src*'s configuration (sub)tree onto *dst*."""
        return self._add("call", f"clone_config({src}->{dst})", (self.port.clone_config, (src, dst, key), None), after)

    def write_config(self, mb: str, key: str, values, *, after=None) -> Step:
        """Set configuration values on a middlebox."""
        return self._add("call", f"write_config({mb},{key})", (self.port.write_config, (mb, key, values), None), after)

    def stats(self, mb: str, pattern: PatternLike = None, *, after=None) -> Step:
        """Query state statistics (the reply lands in the step's ``detail["stats"]``)."""
        return self._add("call", f"stats({mb})", (self.port.stats, (mb, self._pattern(pattern)), "stats"), after)

    def end_transfer(self, mb: str, *, after=None) -> Step:
        """Tell *mb* an in-progress clone/merge transfer has completed."""
        return self._add("call", f"end_transfer({mb})", (self.port.end_transfer, (mb,), None), after)

    def move(self, src: str, dst: str, pattern: PatternLike = None, *, spec=None, wait_finalized: bool = False, after=None) -> Step:
        """moveInternal as a step; a reroute ``after=`` it starts at its state-installed point."""
        launch_args = (src, dst, self._pattern(pattern), TransferSpec.parse(spec))
        return self._add("operation", f"move({src}->{dst})", (self.port.move_internal, launch_args, wait_finalized), after)

    def clone(self, src: str, dst: str, *, spec=None, wait_finalized: bool = False, after=None) -> Step:
        """cloneSupport as a step."""
        launch_args = (src, dst, TransferSpec.parse(spec))
        return self._add("operation", f"clone({src}->{dst})", (self.port.clone_support, launch_args, wait_finalized), after)

    def merge(self, src: str, dst: str, *, spec=None, wait_finalized: bool = False, after=None) -> Step:
        """mergeInternal as a step."""
        launch_args = (src, dst, TransferSpec.parse(spec))
        return self._add("operation", f"merge({src}->{dst})", (self.port.merge_internal, launch_args, wait_finalized), after)

    def reroute(
        self,
        sdn=None,
        pattern: PatternLike = None,
        path: Optional[Sequence] = None,
        *,
        priority: int = 100,
        apply: Optional[Callable[[], object]] = None,
        after=None,
        label: Optional[str] = None,
    ) -> Step:
        """Re-route the affected flows.

        ``reroute(sdn, pattern, path)`` swaps the route in through the SDN
        controller (:meth:`~repro.net.sdn.SDNController.swap_routes`), and an
        abort removes it again.  ``reroute(apply=callback)`` is a call step:
        the callback's future is awaited, and nothing can undo what it did.
        When ``after=`` names a move/clone/merge step, either form starts at
        that operation's *state-installed* point — after the relevant
        per-flow put-ACKs — rather than after whole-operation completion.
        """
        resolved = self._pattern(pattern)
        name = label or f"reroute({resolved!r})"
        if apply is not None:
            return self._add("call", name, (apply, (), None), after, op_mode=INSTALLED)
        if sdn is None or resolved is None or path is None:
            raise TransactionError("reroute needs either (sdn, pattern, path) or an apply callback")
        return self._add("reroute", name, (sdn, resolved, list(path), priority), after, op_mode=INSTALLED)

    def call(self, fn: Callable[[], object], *, name: str = "call", after=None) -> Step:
        """Run an arbitrary callable as a step (a returned future is awaited)."""
        return self._add("call", name, (fn, (), None), after)

    def barrier(
        self,
        steps: Optional[Sequence[Step]] = None,
        *,
        finalized: bool = False,
        quiesce_shards: bool = False,
        after=None,
    ) -> Step:
        """Wait for *steps* (default: every step declared so far) to complete.

        Args:
            steps: the steps to wait on; ``None`` covers every step declared
                so far.
            finalized: additionally wait for the post-quiescence finalisation
                of every operation step covered.
            quiesce_shards: additionally wait for the **cross-shard barrier**:
                the controller shards hosting the covered operations must
                drain their event/ACK loops before the barrier completes.
                This is how a transaction orders a step (e.g. a merge) behind
                operations homed on *different* shards — step completion alone
                only proves each shard's own loop reached the completion
                point, not that every shard's in-flight handling for those
                operations has been absorbed.
            after: further explicit dependency edges, as on every other step.

        Returns:
            The barrier step.

        Raises:
            TransactionError: when called after :meth:`commit`.
        """
        covered = list(steps) if steps is not None else list(self.steps)
        # A barrier's edges are all explicit: no default previous-step edge.
        edges = [(dep, DONE) for dep in covered] + (self._edges(after) if after is not None else [])
        operations = tuple(dep for dep in covered if dep.kind == "operation")
        return self._add("barrier", "barrier", (operations, finalized, quiesce_shards), edges)

    # -- composite verbs ---------------------------------------------------------------------

    def migrate(
        self,
        src: str,
        dst: str,
        patterns: Sequence[PatternLike],
        *,
        reroute: Callable[[FlowPattern], object],
        clone_configuration: bool = True,
        spec=None,
        query_stats: bool = False,
        wait_for_finalize: bool = False,
    ) -> List[Step]:
        """The paper's migration sequence for each pattern: (cloneConfig once,)
        stats → moveInternal → re-route after the per-flow put-ACKs.

        ``reroute`` is a per-pattern callback (``reroute(pattern) -> future``).
        Returns the move steps, in pattern order.
        """
        if clone_configuration:
            self.clone_config(src, dst)
        moves: List[Step] = []
        previous: Optional[Step] = None
        for raw in patterns:
            pattern = self._pattern(raw)
            deps = [(previous, DONE)] if previous is not None else None
            if query_stats:
                deps = [(self.stats(src, pattern, after=deps), DONE)]
            move = self.move(src, dst, pattern, spec=spec, wait_finalized=wait_for_finalize, after=deps)
            route = self._add("call", f"reroute({pattern!r})", (reroute, (pattern,), None), move, op_mode=INSTALLED)
            # The next pattern starts only once this one has both returned
            # and been re-routed (the sequential paper choreography).
            previous = self.barrier([move, route])
            moves.append(move)
        return moves

    def drain(
        self,
        src: str,
        dst: str,
        *,
        reroute: Callable[[FlowPattern], object],
        pattern: PatternLike = None,
        spec=None,
        terminate: Optional[Callable[[], object]] = None,
        wait_for_finalize: bool = True,
    ) -> Dict[str, Step]:
        """Consolidate *src* into *dst* (the scale-down sequence): move all
        per-flow state, merge the shared state, re-route, wait for
        finalisation, then terminate the drained instance."""
        resolved = self._pattern(pattern) or FlowPattern.wildcard()
        steps: Dict[str, Step] = {}
        steps["move"] = self.move(src, dst, resolved, spec=spec)
        steps["merge"] = self.merge(src, dst, spec=spec, after=steps["move"])
        steps["reroute"] = self._add("call", f"reroute({resolved!r})", (reroute, (resolved,), None), (steps["merge"], DONE))
        tail = steps["reroute"]
        if wait_for_finalize:
            steps["finalized"] = self.barrier([steps["move"], steps["merge"], tail], finalized=True)
            tail = steps["finalized"]
        if terminate is not None:
            steps["terminate"] = self.call(terminate, name=f"terminate({src})", after=tail)
        return steps

    # -- committing ----------------------------------------------------------------------------

    def commit(self) -> TransactionHandle:
        """Freeze the operation graph and start executing it.

        Every step without dependencies starts on the next scheduling round;
        the others start when their last dependency point is reached.

        Returns:
            The :class:`TransactionHandle` tracking per-step progress.

        Raises:
            TransactionError: when the transaction was already committed.
        """
        if self.status != "building":
            raise TransactionError("transaction already committed")
        self.status = "running"
        self.handle = TransactionHandle(self)
        if not self.steps:
            self.status = "committed"
            self.handle.done.succeed(self.handle)
            return self.handle
        for step in self.steps:
            step.waiting = len(step.deps)
            for dep, point in step.deps:
                self._dependents.setdefault((dep.record.step_id, point), []).append(step)
            if not step.deps:
                self.port.schedule(0.0, self._start, step)
        return self.handle

    # -- running ------------------------------------------------------------------------------

    def _start(self, step: Step) -> None:
        """Mark *step* running and launch it; a launch error fails the transaction."""
        if self.status != "running":
            return  # aborted while the step was still pending
        step.record.status = StepStatus.RUNNING
        step.record.started_at = self.port.now
        self._report(step, "start")
        try:
            getattr(self, f"_run_{step.kind}")(step, *step.args)
        except Exception as exc:  # a step that cannot even launch fails the txn
            self._fail(step, exc)

    def _run_call(self, step: Step, fn: Callable, fn_args: tuple, detail_key: Optional[str]) -> None:
        """Invoke the function; await its result when it is a future."""
        result = fn(*fn_args)
        if hasattr(result, "add_done_callback"):
            result.add_done_callback(partial(self._on_future, step, detail_key))
        else:
            self._succeed(step)

    def _run_operation(self, step: Step, launcher: Callable, launch_args: tuple, wait_finalized: bool) -> None:
        """Launch the operation; its state-installed point and its end become the step's."""
        handle = step.handle = launcher(*launch_args)
        step.record.detail["operation"] = handle.record
        handle.state_installed.add_done_callback(partial(self._on_installed, step))
        (handle.finalized if wait_finalized else handle.completed).add_done_callback(partial(self._on_future, step, None))

    def _run_reroute(self, step: Step, sdn, pattern: FlowPattern, path: list, priority: int) -> None:
        """Swap the route in; the step completes once every switch applied it."""
        step.swap = sdn.swap_routes([(pattern, path)], priority=priority)
        step.swap.installed.add_done_callback(partial(self._on_future, step, None))

    def _run_barrier(self, step: Step, operations: Tuple[Step, ...], finalized: bool, quiesce_shards: bool) -> None:
        """Wait for the covered operations' finalisation and the shard barrier, when asked."""
        handles = [dep.handle for dep in operations if dep.handle is not None]
        futures = [handle.finalized for handle in handles] if finalized else []
        if quiesce_shards:
            futures.append(self.port.quiesce(handles))
        if not futures:
            self._succeed(step)
            return
        step.waiting = len(futures)
        for future in futures:
            future.add_done_callback(partial(self._on_barrier_future, step))

    def _on_installed(self, step: Step, future: Future) -> None:
        """An operation step's state-installed point: start what waits on it."""
        if step.installed:
            return
        step.installed = True
        if future.exception is None:
            self._release(step, INSTALLED)

    def _on_future(self, step: Step, detail_key: Optional[str], future: Future) -> None:
        """The future a step awaits resolved: the step succeeds or fails with it."""
        if future.exception is not None:
            self._fail(step, future.exception)
            return
        if detail_key is not None:
            step.record.detail[detail_key] = future.result
        self._succeed(step)

    def _on_barrier_future(self, step: Step, future: Future) -> None:
        """One future a barrier waits on resolved: the first failure fails it, the last success completes it."""
        if step.settled:
            return
        if future.exception is not None:
            self._fail(step, future.exception)
            return
        step.waiting -= 1
        if step.waiting == 0:
            self._succeed(step)

    def _release(self, step: Step, point: str) -> None:
        """*step* reached *point*: start each dependent whose last unmet edge this was."""
        for dependent in self._dependents.get((step.record.step_id, point), ()):
            dependent.waiting -= 1
            if dependent.waiting == 0:
                self._start(dependent)

    def _succeed(self, step: Step) -> None:
        """Complete *step*: installed-edge dependents, the commit check, then done-edge dependents."""
        if step.settled:
            return
        step.settled = True
        step.record.status = StepStatus.DONE
        step.record.finished_at = self.port.now
        if not step.installed:
            step.installed = True
            self._release(step, INSTALLED)
        if self.status == "running":
            self._done_count += 1
            if self._done_count == len(self.steps):
                self.status = "committed"
                self.handle.done.succeed(self.handle)
        self._report(step, "done")
        self._release(step, DONE)

    def _fail(self, step: Step, exc: BaseException) -> None:
        """Fail *step*: the first failure aborts the transaction."""
        if step.settled:
            return
        step.settled = step.installed = True
        step.record.status = StepStatus.FAILED
        step.record.finished_at = self.port.now
        step.record.error = str(exc)
        step.error = exc
        if self.status == "running":
            self._abort(step)
        self._report(step, "failed")

    def _report(self, step: Step, phase: str) -> None:
        """Tell the observer, if any, how *step* progressed."""
        if self.observer is not None:
            self.observer(f"txn step {step.record.step_id}/{len(self.steps)} {step.record.name}: {phase}")

    # -- abort -----------------------------------------------------------------------------------

    def _abort(self, failed: Step) -> None:
        """First failure: cancel pending steps, abort running ones, roll back done ones."""
        self.status = "aborted"
        abort_exc = TransactionAbortedError(
            f"transaction aborted: step {failed.record.name!r} failed: {failed.error}",
            step=failed.record.name,
            cause=failed.error,
        )
        # 1. Pending steps never start.
        for step in self.steps:
            if step.record.status is StepStatus.PENDING:
                step.record.status = StepStatus.CANCELLED
        # 2. In-flight steps are aborted (operations fail, releasing any
        #    destination packet holds; a half-installed route swap is removed).
        #    The failing step itself is included.
        self._undo(failed, str(abort_exc), in_flight=True)
        for step in self.steps:
            if step is not failed and step.record.status is StepStatus.RUNNING:
                self._undo(step, str(abort_exc), in_flight=True)
        # 3. Completed steps roll back in reverse declaration order.
        for step in reversed(self.steps):
            if step is not failed and step.record.status in (StepStatus.DONE, StepStatus.ROLLED_BACK):
                self._undo(step, "transaction rolled back", in_flight=False)
        self.handle.done.fail(abort_exc)

    def _undo(self, step: Step, reason: str, *, in_flight: bool) -> None:
        """Abort or roll back one step; only operations and declarative reroutes have anything to undo.

        An in-flight operation is failed outright.  A completed one cannot be
        un-done, but its destructive post-quiescence step (the source delete)
        can still be cancelled, so the source keeps its state.
        """
        if step.kind == "operation":
            if step.handle is not None and self.port.abort_operation(step.handle, reason) and not in_flight:
                step.record.status = StepStatus.ROLLED_BACK
        elif step.kind == "reroute" and step.swap is not None:
            step.swap.rollback()
            if step.record.status in (StepStatus.DONE, StepStatus.RUNNING):
                step.record.status = StepStatus.ROLLED_BACK
