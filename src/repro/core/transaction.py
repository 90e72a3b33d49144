"""Transactional northbound API: composite operations as one operation graph.

The paper's value proposition is *joint* control of middlebox state and
routing, but the six primitives of section 5 leave the joint part to every
control application: clone the configuration, query stats, move state, and
only then re-route — hand-sequenced with raw futures.  This module turns that
recurring choreography into a first-class object:

``nb.transaction()`` yields a :class:`Transaction` builder on which an
application declares **steps** — ``clone_config``, ``move``, ``clone``,
``merge``, ``reroute``, ``write_config``, ``end_transfer``, ``barrier``,
``call`` — plus **composite verbs** (``migrate``, ``rebalance``, ``drain``)
that expand into the correct paper sequence.  A single ``commit()`` returns a
:class:`TransactionHandle` with per-step progress, aggregate statistics, and
all-or-nothing failure semantics.

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
  (releasing any order-preserving destination packet holds), installed routes
  are rolled back, and completed-but-unfinalised operations have their
  destructive post-quiescence step (the source delete) cancelled so the
  source keeps its state.

The legacy primitives (``moveInternal`` & co.) remain available unchanged;
each is semantically a single-step transaction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..net.simulator import Future, all_of
from .errors import TransactionAbortedError, TransactionError
from .flowspace import FlowPattern
from .operations import OperationHandle
from .transfer import TransferSpec


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
    #: Step-specific measurements (operation records, route windows, ...).
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        """Seconds from step start to finish (None while pending/running)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


# =========================================================================================
# Steps
# =========================================================================================


class _Step:
    """One node of the operation graph."""

    def __init__(self, txn: "Transaction", name: str) -> None:
        self.txn = txn
        self.record = StepRecord(step_id=len(txn.steps) + 1, name=name)
        #: (step, mode) dependency edges; mode "done" waits for the step's
        #: completion, mode "installed" for its state_installed point.
        self.deps: List[Tuple["_Step", str]] = []
        #: Resolves when the step completes (or fails).
        self.gate: Future = txn.sim.event(name=f"txn{txn.txn_id}.{self.record.step_id}:{name}")
        #: Resolves at the step's state-installed point (operation steps
        #: bridge it to the operation handle; other steps alias the gate).
        self.installed: Future = txn.sim.event(name=f"txn{txn.txn_id}.{self.record.step_id}:{name}.installed")
        self._exception: Optional[BaseException] = None

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> None:
        """Mark the step running and launch it; a launch error fails the txn."""
        self.record.status = StepStatus.RUNNING
        self.record.started_at = self.txn.sim.now
        self.txn._notify(self, "start")
        try:
            self.run()
        except Exception as exc:  # a step that cannot even launch fails the txn
            self._fail(exc)

    def run(self) -> None:
        """Launch the step's work (subclass hook)."""
        raise NotImplementedError

    def _succeed(self, result: object = None) -> None:
        """Complete the step: resolve the gate and notify the coordinator."""
        if self.gate.done:
            return
        self.record.status = StepStatus.DONE
        self.record.finished_at = self.txn.sim.now
        if not self.installed.done:
            self.installed.succeed(result)
        self.txn._notify(self, "done")
        self.gate.succeed(result)

    def _fail(self, exc: BaseException) -> None:
        """Fail the step: record the error and trigger the transaction abort."""
        if self.gate.done:
            return
        self.record.status = StepStatus.FAILED
        self.record.finished_at = self.txn.sim.now
        self.record.error = str(exc)
        self._exception = exc
        if not self.installed.done:
            self.installed.fail(exc)
        self.txn._notify(self, "failed")
        self.gate.fail(exc)

    def _resolve_future(self, future: Future) -> None:
        """Tie the step's outcome to *future*."""
        future.add_done_callback(
            lambda f: self._fail(f.exception) if f.exception is not None else self._succeed(f._result)
        )

    # -- abort support ------------------------------------------------------------------

    def cancel(self) -> None:
        """Called for PENDING steps when the transaction aborts."""
        self.record.status = StepStatus.CANCELLED

    def abort_inflight(self, exc: Exception) -> None:
        """Called for RUNNING steps when another step failed; default: nothing."""

    def rollback(self) -> None:
        """Called (reverse order) for DONE steps when the transaction aborts."""


class _CallStep(_Step):
    """Run an arbitrary callable; a returned future is awaited."""

    def __init__(self, txn: "Transaction", name: str, fn: Callable[[], object]) -> None:
        super().__init__(txn, name)
        self.fn = fn

    def run(self) -> None:
        """Invoke the callable; await its result when it returns a future."""
        result = self.fn()
        if isinstance(result, Future):
            self._resolve_future(result)
        else:
            self._succeed(result)


class _OperationStep(_Step):
    """A stateful operation (move/clone/merge) as one step.

    *launch* issues the northbound call and returns the operation's handle;
    everything keyed on that handle — the record, abort, rollback, what
    ``barrier(finalized=True)`` and ``after=`` see — is shared with the
    re-balance step, whose operation is only chosen at run time.
    """

    def __init__(
        self, txn: "Transaction", name: str, launch: Optional[Callable[[], OperationHandle]] = None, wait_finalized: bool = False
    ) -> None:
        super().__init__(txn, name)
        self.launch = launch
        self.wait_finalized = wait_finalized
        self.handle: Optional[OperationHandle] = None

    def run(self) -> None:
        """Start the operation and bridge its futures to the step's own."""
        self.handle = self.launch()
        self.record.detail["operation"] = self.handle.record
        # Bridge the operation's state-installed point to the step's own
        # future so coordinated reroutes can be declared before the operation
        # exists.
        self.handle.state_installed.add_done_callback(
            lambda f: None
            if self.installed.done
            else (self.installed.fail(f.exception) if f.exception is not None else self.installed.succeed(f._result))
        )
        self._resolve_future(self.handle.finalized if self.wait_finalized else self.handle.completed)

    @property
    def operation_record(self):
        """The operation's measurement record (None before the step runs, or
        when a re-balance needed no move)."""
        return None if self.handle is None else self.handle.record

    def abort_inflight(self, exc: Exception) -> None:
        """Fail the running operation (releases destination packet holds)."""
        if self.handle is not None:
            self.txn.controller.abort_operation(self.handle, str(exc))

    def rollback(self) -> None:
        """Cancel the completed operation's destructive post-quiescence step.

        A completed operation cannot be un-done, but the delete at the source
        can still be cancelled so the source keeps its state after the abort.
        """
        if self.handle is not None:
            if self.txn.controller.abort_operation(self.handle, "transaction rolled back"):
                self.record.status = StepStatus.ROLLED_BACK


RouteChange = Tuple[FlowPattern, Sequence]


class _RerouteStep(_Step):
    """Install routing for one or more patterns, with rollback on abort.

    Two forms:

    * **declarative** (full rollback): ``sdn`` plus ``changes`` — a list of
      ``(pattern, path)`` pairs handed to
      :meth:`~repro.net.sdn.SDNController.swap_routes` (atomic validation,
      make-before-break replacement);
    * **callback**: ``apply()`` returns a future (or a
      :class:`~repro.net.sdn.RouteHandle`); rollback is possible only when
      the callback's result is a route handle and ``sdn`` was provided.
    """

    def __init__(
        self,
        txn: "Transaction",
        *,
        label: str,
        sdn=None,
        changes: Optional[List[RouteChange]] = None,
        replace: Sequence = (),
        priority: int = 100,
        apply: Optional[Callable[[], object]] = None,
    ) -> None:
        super().__init__(txn, label)
        self.sdn = sdn
        self.changes = changes
        self.replace = list(replace)
        self.priority = priority
        self.apply = apply
        self._swap = None
        self._route_handles: List = []

    def run(self) -> None:
        """Install the routes (declarative swap or application callback)."""
        self.record.detail["requested_at"] = self.txn.sim.now
        if self.changes is not None:
            if self.sdn is None:
                raise TransactionError("reroute with explicit paths requires the sdn controller")
            self._swap = self.sdn.swap_routes(self.changes, priority=self.priority, replace=self.replace)
            self._route_handles = list(self._swap.routes)
            self._resolve_future(self._swap.installed)
            return
        if self.apply is None:
            raise TransactionError("reroute needs either (sdn, pattern, path) or an apply callback")
        result = self.apply()
        from ..net.sdn import RouteHandle

        if isinstance(result, RouteHandle):
            self._route_handles = [result]
            self._resolve_future(result.installed if result.installed is not None else self.txn.sim.timeout(0.0))
        elif isinstance(result, Future):
            self._resolve_future(result)
        else:
            self._succeed(result)

    def _succeed(self, result: object = None) -> None:
        """Stamp the route-install time before completing the step."""
        self.record.detail["installed_at"] = self.txn.sim.now
        super()._succeed(result)

    def abort_inflight(self, exc: Exception) -> None:
        """Partially installed routes roll back like completed ones."""
        self.rollback()

    def rollback(self) -> None:
        """Remove installed routes (re-installing any the swap replaced)."""
        rolled = False
        if self._swap is not None:
            self._swap.rollback()
            rolled = True
        elif self.sdn is not None and self._route_handles:
            for handle in self._route_handles:
                self.sdn.remove_route(handle)
            rolled = True
        if rolled and self.record.status in (StepStatus.DONE, StepStatus.RUNNING):
            self.record.status = StepStatus.ROLLED_BACK


class _BarrierStep(_Step):
    """Synchronisation point: completes when all its dependencies have."""

    def __init__(self, txn: "Transaction", label: str = "barrier") -> None:
        super().__init__(txn, label)
        #: Extra futures (e.g. operation ``finalized``) gathered at start.
        self._extra: List[Callable[[], Optional[Future]]] = []

    def run(self) -> None:
        """Gather the extra futures (finalisation, shard quiesce) and wait."""
        futures = [future for thunk in self._extra if (future := thunk()) is not None]
        if futures:
            self._resolve_future(all_of(self.txn.sim, futures))
        else:
            self._succeed(None)


class _RebalanceStep(_OperationStep):
    """Dynamic composite: measure load, move state off the busiest replica,
    and re-route once the moved state is installed (no move when balanced)."""

    def __init__(
        self,
        txn: "Transaction",
        replicas: Sequence[str],
        patterns_by_replica: Dict[str, object],
        update_routing: Callable[[str, FlowPattern], object],
        *,
        spec: Optional[TransferSpec] = None,
        min_imbalance: int = 2,
    ) -> None:
        super().__init__(txn, f"rebalance({','.join(replicas)})")
        self.replicas = list(replicas)
        self.patterns_by_replica = dict(patterns_by_replica)
        self.update_routing = update_routing
        self.spec = spec
        self.min_imbalance = min_imbalance

    def run(self) -> None:
        """Measure per-replica load, then decide whether (and what) to move."""
        measurements = [self.txn.nb.stats(replica, None) for replica in self.replicas]
        all_of(self.txn.sim, measurements).add_done_callback(self._on_loads)

    def _on_loads(self, future: Future) -> None:
        """With loads in hand: no-op when balanced, else move + reroute."""
        if future.exception is not None:
            self._fail(future.exception)
            return
        loads = {
            replica: stats.get("perflow_supporting", 0) + stats.get("perflow_reporting", 0)
            for replica, stats in zip(self.replicas, future.result)
        }
        self.record.detail["loads_before"] = dict(loads)
        busiest = max(loads, key=loads.get)
        idlest = min(loads, key=loads.get)
        if busiest == idlest or loads[busiest] - loads[idlest] < self.min_imbalance:
            self.record.detail["balanced"] = True
            self._succeed(self.record.detail)
            return
        pattern = self.patterns_by_replica.get(busiest)
        if pattern is None:
            self.record.detail["no_pattern_for"] = busiest
            self._succeed(self.record.detail)
            return
        pattern = pattern if isinstance(pattern, FlowPattern) else FlowPattern.parse(pattern)
        self.record.detail["moved_from"] = busiest
        self.record.detail["moved_to"] = idlest
        self.handle = self.txn.nb.move_internal(busiest, idlest, pattern, spec=self.spec)
        self.record.detail["operation"] = self.handle.record
        routed = self.txn.sim.event(name=f"{self.record.name}.routed")

        def reroute(installed: Future) -> None:
            # Coordinated re-routing: install the new route as soon as the
            # moved state is fully installed, overlapping with the tail of
            # the operation (releases/replays) instead of waiting for it.
            if installed.exception is not None:
                routed.fail(installed.exception)
                return
            result = self.update_routing(idlest, pattern)
            if isinstance(result, Future):
                result.add_done_callback(
                    lambda f: routed.fail(f.exception) if f.exception is not None else routed.succeed(f._result)
                )
            else:
                routed.succeed(result)

        self.handle.state_installed.add_done_callback(reroute)
        self._resolve_future(all_of(self.txn.sim, [self.handle.completed, routed]))


# =========================================================================================
# Handle and coordinator
# =========================================================================================


class TransactionHandle:
    """Progress and outcome of one committed transaction."""

    def __init__(self, txn: "Transaction") -> None:
        self._txn = txn
        #: Resolves with this handle when every step is done; fails with
        #: :class:`TransactionAbortedError` after rollback on the first error.
        self.done: Future = txn.sim.event(name=f"txn{txn.txn_id}.done")

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
        records = []
        for step in self._txn.steps:
            record = getattr(step, "operation_record", None)
            if record is not None:
                records.append(record)
        return records

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

    def __init__(self, northbound) -> None:
        self.nb = northbound
        self.controller = northbound.controller
        self.sim = self.controller.sim
        self.txn_id = next(self.controller.txn_ids)
        self.steps: List[_Step] = []
        self.status = "building"
        self.handle: Optional[TransactionHandle] = None
        #: Optional callable receiving human-readable step progress messages.
        self.observer: Optional[Callable[[str], None]] = None
        self._aborting = False
        self._done_count = 0

    # -- building -------------------------------------------------------------------------

    @staticmethod
    def _normalize_deps(after, op_mode: str = "done") -> List[Tuple[_Step, str]]:
        """Coerce ``after=`` into (step, mode) edges.

        Accepts a step, a ``(step, mode)`` tuple, or a list of either.  A bare
        step means its completion, except that *operation* steps referenced
        from a reroute (``op_mode="installed"``) mean their state-installed
        point — the coordinated re-route edge.
        """
        if isinstance(after, tuple) and len(after) == 2 and isinstance(after[1], str):
            after = [after]
        elif isinstance(after, _Step):
            after = [after]
        edges: List[Tuple[_Step, str]] = []
        for dep in after:
            if isinstance(dep, tuple):
                edges.append(dep)
            elif isinstance(dep, _OperationStep):
                edges.append((dep, op_mode))
            else:
                edges.append((dep, "done"))
        return edges

    def _add(self, step: _Step, after=None, *, op_mode: str = "done") -> _Step:
        """Append *step* with its dependency edges (default: previous step)."""
        if self.status != "building":
            raise TransactionError("cannot add steps after commit()")
        if after is None:
            if self.steps:
                step.deps.append((self.steps[-1], "done"))
        else:
            step.deps.extend(self._normalize_deps(after, op_mode))
        self.steps.append(step)
        return step

    def _pattern(self, pattern: PatternLike) -> Optional[FlowPattern]:
        """Coerce a PatternLike into a FlowPattern, passing None through."""
        if pattern is None or isinstance(pattern, FlowPattern):
            return pattern
        return FlowPattern.parse(pattern)

    def clone_config(self, src: str, dst: str, key: str = "*", *, after=None) -> _Step:
        """Duplicate *src*'s configuration (sub)tree onto *dst*."""
        return self.call(lambda: self.nb.clone_config(src, dst, key), name=f"clone_config({src}->{dst})", after=after)

    def write_config(self, mb: str, key: str, values, *, after=None) -> _Step:
        """Set configuration values on a middlebox."""
        return self.call(lambda: self.nb.write_config(mb, key, values), name=f"write_config({mb},{key})", after=after)

    def stats(self, mb: str, pattern: PatternLike = None, *, after=None) -> _Step:
        """Query state statistics (result lands in the step's ``detail``)."""
        resolved = self._pattern(pattern)

        def query() -> Future:
            def stash(future: Future) -> None:
                if future.exception is None:
                    step.record.detail["stats"] = future.result

            future = self.nb.stats(mb, resolved)
            future.add_done_callback(stash)
            return future

        step = self.call(query, name=f"stats({mb})", after=after)
        return step

    def end_transfer(self, mb: str, *, after=None) -> _Step:
        """Tell *mb* an in-progress clone/merge transfer has completed."""
        return self.call(lambda: self.nb.end_transfer(mb), name=f"end_transfer({mb})", after=after)

    def move(
        self,
        src: str,
        dst: str,
        pattern: PatternLike = None,
        *,
        spec=None,
        wait_finalized: bool = False,
        after=None,
    ) -> _OperationStep:
        """moveInternal as a step; exposes ``installed`` for coordinated reroutes."""
        spec, pattern = TransferSpec.parse(spec), self._pattern(pattern)
        launch = lambda: self.nb.move_internal(src, dst, pattern, spec=spec)
        return self._add(_OperationStep(self, f"move({src}->{dst})", launch, wait_finalized), after)

    def clone(self, src: str, dst: str, *, spec=None, wait_finalized: bool = False, after=None) -> _OperationStep:
        """cloneSupport as a step."""
        spec = TransferSpec.parse(spec)
        launch = lambda: self.nb.clone_support(src, dst, spec=spec)
        return self._add(_OperationStep(self, f"clone({src}->{dst})", launch, wait_finalized), after)

    def merge(self, src: str, dst: str, *, spec=None, wait_finalized: bool = False, after=None) -> _OperationStep:
        """mergeInternal as a step."""
        spec = TransferSpec.parse(spec)
        launch = lambda: self.nb.merge_internal(src, dst, spec=spec)
        return self._add(_OperationStep(self, f"merge({src}->{dst})", launch, wait_finalized), after)

    def reroute(
        self,
        sdn=None,
        pattern: PatternLike = None,
        path: Optional[Sequence] = None,
        *,
        changes: Optional[List[RouteChange]] = None,
        replace: Sequence = (),
        priority: int = 100,
        apply: Optional[Callable[[], object]] = None,
        after=None,
        label: Optional[str] = None,
    ) -> _RerouteStep:
        """Install routing for the affected flows, with rollback on abort.

        ``reroute(sdn, pattern, path)`` swaps routes atomically through the
        SDN controller (full rollback); ``reroute(apply=callback)`` defers to
        an application callback (rollback only when the callback returns a
        :class:`~repro.net.sdn.RouteHandle` and ``sdn`` is given).  When
        ``after=`` names a move/clone/merge step, the reroute starts at that
        operation's *state-installed* point — after the relevant per-flow
        put-ACKs — rather than after whole-operation completion.
        """
        resolved = self._pattern(pattern)
        if changes is None and path is not None:
            if resolved is None:
                raise TransactionError("reroute with a path requires a pattern")
            changes = [(resolved, list(path))]
        step = _RerouteStep(
            self,
            label=label or f"reroute({resolved!r})",
            sdn=sdn,
            changes=changes,
            replace=replace,
            priority=priority,
            apply=apply,
        )
        return self._add(step, after, op_mode="installed")

    def call(self, fn: Callable[[], object], *, name: str = "call", after=None) -> _Step:
        """Run an arbitrary callable as a step (a returned future is awaited)."""
        return self._add(_CallStep(self, name, fn), after)

    def barrier(
        self,
        steps: Optional[Sequence[_Step]] = None,
        *,
        finalized: bool = False,
        quiesce_shards: bool = False,
        after=None,
    ) -> _Step:
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
        if self.status != "building":
            raise TransactionError("cannot add steps after commit()")
        covered = list(steps) if steps is not None else list(self.steps)
        barrier = _BarrierStep(self)
        for dep in covered:
            barrier.deps.append((dep, "done"))
        if after is not None:
            barrier.deps.extend(self._normalize_deps(after))
        if finalized:
            for dep in covered:
                if isinstance(dep, _OperationStep):
                    barrier._extra.append(lambda d=dep: None if d.handle is None else d.handle.finalized)
        if quiesce_shards:
            operation_steps = [dep for dep in covered if isinstance(dep, _OperationStep)]

            def shard_barrier() -> Future:
                shard_ids: List[int] = []
                for dep in operation_steps:
                    operation = None if dep.handle is None else dep.handle._operation
                    if operation is not None:
                        shard_ids.extend(shard.shard_id for shard in operation.shards)
                return self.controller.coordinator.barrier(shard_ids or None)

            barrier._extra.append(shard_barrier)
        # A barrier's edges are all explicit; bypass the default previous-step
        # edge _add() would attach.
        self.steps.append(barrier)
        return barrier

    # -- composite verbs ---------------------------------------------------------------------

    def migrate(
        self,
        src: str,
        dst: str,
        patterns: Sequence[PatternLike],
        *,
        clone_configuration: bool = True,
        spec=None,
        reroute: Optional[Callable[[FlowPattern], object]] = None,
        sdn=None,
        paths: Optional[Dict[FlowPattern, Sequence]] = None,
        query_stats: bool = False,
        wait_for_finalize: bool = False,
    ) -> List[_OperationStep]:
        """The paper's migration sequence for each pattern: (cloneConfig once,)
        stats → moveInternal → re-route after the per-flow put-ACKs.

        ``reroute`` is a per-pattern callback (``reroute(pattern) -> future``);
        alternatively ``sdn`` + ``paths`` give declarative routes with full
        rollback.  Returns the move steps, in pattern order.
        """
        if clone_configuration:
            self.clone_config(src, dst)
        moves: List[_OperationStep] = []
        previous: Optional[_Step] = None
        for raw in patterns:
            pattern = self._pattern(raw)
            deps = [(previous, "done")] if previous is not None else None
            if query_stats:
                stat = self.stats(src, pattern, after=deps)
                deps = [(stat, "done")]
            move = self.move(src, dst, pattern, spec=spec, wait_finalized=wait_for_finalize, after=deps)
            route_kwargs: Dict[str, object] = {"after": move}
            if reroute is not None:
                route_kwargs["apply"] = lambda p=pattern: reroute(p)
            elif sdn is not None and paths is not None:
                route_kwargs["sdn"] = sdn
                route_kwargs["changes"] = [(pattern, list(paths[pattern]))]
            else:
                raise TransactionError("migrate needs a reroute callback or sdn + paths")
            route = self.reroute(pattern=pattern, **route_kwargs)
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
        pattern: PatternLike = None,
        spec=None,
        merge_shared: bool = True,
        reroute: Optional[Callable[[FlowPattern], object]] = None,
        sdn=None,
        path: Optional[Sequence] = None,
        terminate: Optional[Callable[[], object]] = None,
        wait_for_finalize: bool = True,
    ) -> Dict[str, _Step]:
        """Consolidate *src* into *dst* (the scale-down sequence): move all
        per-flow state, merge the shared state, re-route, wait for
        finalisation, then terminate the drained instance."""
        resolved = self._pattern(pattern) or FlowPattern.wildcard()
        steps: Dict[str, _Step] = {}
        steps["move"] = self.move(src, dst, resolved, spec=spec)
        previous: _Step = steps["move"]
        if merge_shared:
            steps["merge"] = self.merge(src, dst, spec=spec, after=previous)
            previous = steps["merge"]
        route_kwargs: Dict[str, object] = {"after": (previous, "done"), "pattern": resolved}
        if reroute is not None:
            route_kwargs["apply"] = lambda: reroute(resolved)
        elif sdn is not None and path is not None:
            route_kwargs["sdn"] = sdn
            route_kwargs["changes"] = [(resolved, list(path))]
        else:
            raise TransactionError("drain needs a reroute callback or sdn + path")
        steps["reroute"] = self.reroute(**route_kwargs)
        tail: _Step = steps["reroute"]
        if wait_for_finalize:
            operation_steps = [s for s in steps.values() if isinstance(s, _OperationStep)]
            steps["finalized"] = self.barrier([*operation_steps, tail], finalized=True)
            tail = steps["finalized"]
        if terminate is not None:
            steps["terminate"] = self.call(terminate, name=f"terminate({src})", after=tail)
        return steps

    def rebalance(
        self,
        replicas: Sequence[str],
        patterns_by_replica: Dict[str, object],
        update_routing: Callable[[str, FlowPattern], object],
        *,
        spec=None,
        min_imbalance: int = 2,
        after=None,
    ) -> _RebalanceStep:
        """Measure per-replica load and move state from the busiest to the
        idlest replica, re-routing as soon as the moved state is installed."""
        step = _RebalanceStep(
            self, replicas, patterns_by_replica, update_routing, spec=TransferSpec.parse(spec), min_imbalance=min_imbalance
        )
        return self._add(step, after)

    # -- committing ----------------------------------------------------------------------------

    def commit(self) -> TransactionHandle:
        """Freeze the operation graph and start executing it.

        The committing transaction is adopted by the controller's
        :class:`~repro.core.sharding.ShardCoordinator` (the shared authority
        for cross-shard state) and released when it resolves either way.

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
        coordinator = self.controller.coordinator
        coordinator.adopt_transaction(self)
        self.handle.done.add_done_callback(lambda _future: coordinator.release_transaction(self))
        for step in self.steps:
            self._wire(step)
        return self.handle

    def _wire(self, step: _Step) -> None:
        """Arm *step* to start once its dependency futures all resolve."""
        if not step.deps:
            self.sim.schedule(0.0, step.start)
            return
        futures = [dep.gate if mode == "done" else dep.installed for dep, mode in step.deps]

        def on_ready(future: Future) -> None:
            if self._aborting or future.exception is not None:
                return  # the failing dependency already triggered the abort
            step.start()

        all_of(self.sim, futures).add_done_callback(on_ready)

    def _notify(self, step: _Step, phase: str) -> None:
        """Per-step progress hook: drives completion/abort and the observer."""
        if phase == "failed":
            self._on_step_failed(step)
        elif phase == "done":
            self._on_step_done(step)
        if self.observer is not None:
            self.observer(f"txn step {step.record.step_id}/{len(self.steps)} {step.record.name}: {phase}")

    def _on_step_done(self, step: _Step) -> None:
        """Commit the transaction once the last step completes."""
        if self._aborting:
            return
        self._done_count += 1
        if self._done_count == len(self.steps):
            self.status = "committed"
            if not self.handle.done.done:
                self.handle.done.succeed(self.handle)

    def _on_step_failed(self, step: _Step) -> None:
        """First failure: cancel pending, abort running, roll back done steps."""
        if self._aborting:
            return
        self._aborting = True
        self.status = "aborted"
        cause = step._exception or Exception(step.record.error or "step failed")
        abort_exc = TransactionAbortedError(
            f"transaction aborted: step {step.record.name!r} failed: {cause}",
            step=step.record.name,
            cause=cause,
        )
        # 1. Pending steps never start.
        for other in self.steps:
            if other.record.status is StepStatus.PENDING:
                other.cancel()
        # 2. In-flight steps are aborted (operations fail, releasing any
        #    destination packet holds; partially installed routes roll back).
        #    The failing step itself is included: a composite step can fail on
        #    one half (e.g. a rebalance's reroute) while its other half (the
        #    move) is still running and must not finalise.
        step.abort_inflight(abort_exc)
        for other in self.steps:
            if other is not step and other.record.status is StepStatus.RUNNING:
                other.abort_inflight(abort_exc)
        # 3. Completed steps roll back in reverse declaration order.
        for other in reversed(self.steps):
            if other is not step and other.record.status in (StepStatus.DONE, StepStatus.ROLLED_BACK):
                other.rollback()
        if self.handle is not None and not self.handle.done.done:
            self.handle.done.fail(abort_exc)
