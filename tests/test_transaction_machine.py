"""One transaction, run bare: a :class:`~repro.core.transaction.Transaction` behind a fake port.

The transaction touches the world only through its port (the clock, the
operation launchers and ``abort_operation``, the pass-through calls and the
shard barrier) and the SDN controller a declarative ``reroute`` is handed, so
this file drives it with no ``Simulator``, ``MBController`` or
``SDNController``.  :class:`FakePort` stands in for all of them: every future
it hands out stays pending until a rule resolves it, every operation it
launches advances (state installed, completed, finalised) or fails only when a
rule says so, and :class:`FakeSDN` keeps the set of installed routes.

:class:`TransactionMachine` builds one transaction from a drawn graph of move,
clone, merge, declarative and callback reroute, call, pass-through and barrier
steps, with drawn ``after=`` edges on either point of a step, commits it, and
then, adversarially: fires the next root start, succeeds or fails a pending
call, advances or fails an operation (finalising one only once none is still
transferring, so that completed operations are there to roll back), and
installs or fails a route swap.
After every rule, an aborted transaction must have left no step pending, no
operation running (each failed, finalised, or its source delete cancelled)
and no route installed, and must have rolled back its completed steps in
reverse declaration order.  At teardown it drains the world: every handle resolved,
and a committed transaction has every step done.
"""

from __future__ import annotations

import heapq
import itertools

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.core import FlowPattern, StepStatus, TransactionAbortedError
from repro.core.errors import OperationAbortedError, OperationError
from repro.core.operations import OperationHandle, OperationRecord, OperationType
from repro.core.transaction import Transaction
from repro.net.simulator import Future

PATTERN = FlowPattern(nw_src="10.0.0.0/24")
#: Step kinds, each as often as it appears: moves and declarative reroutes,
#: the steps with something to undo, come up twice as often as the rest.
STEP_KINDS = ("move", "move", "clone", "merge", "reroute", "reroute", "apply", "call", "config", "barrier")
#: How a ``call`` step's function behaves: it returns a future, a plain value, or raises.
CALL_BEHAVIOURS = ("future", "value", "raise")
#: A rule's outcome: success three times as often as failure, so that steps complete before one fails.
OK = st.sampled_from([True, True, True, False])
#: Fake operation states; the last three are terminal.
RUNNING, INSTALLED, COMPLETED, FAILED, FINALIZED, CANCELLED = "running", "installed", "completed", "failed", "finalized", "cancelled"
TERMINAL = (FAILED, FINALIZED, CANCELLED)


class FakeOperation:
    """A move/clone/merge reduced to its handle's three futures, advanced by rules."""

    def __init__(self, port: "FakePort", kind: OperationType, src: str, dst: str) -> None:
        self.handle = OperationHandle(port, OperationRecord(op_id=len(port.operations) + 1, type=kind, src=src, dst=dst))
        self.state = RUNNING

    def advance(self) -> None:
        """The next stage: state installed, then completed, then finalised."""
        handle = self.handle
        if self.state == RUNNING:
            self.state = INSTALLED
            handle.state_installed.succeed(handle.record)
        elif self.state == INSTALLED:
            self.state = COMPLETED
            handle.completed.succeed(handle.record)
        elif self.state == COMPLETED:
            self.state = FINALIZED
            handle.finalized.succeed(handle.record)

    def fail(self, exc: Exception) -> None:
        """Fail every unresolved future, in resolution order, as a failing operation does."""
        self.state = FAILED
        for future in (self.handle.state_installed, self.handle.completed, self.handle.finalized):
            if not future.done:
                future.fail(exc)


class FakeSwap:
    """One route swap: its routes are registered at once, and installed when a rule says so."""

    def __init__(self, sdn: "FakeSDN", route_id: int) -> None:
        self.sdn = sdn
        self.route_id = route_id
        self.installed = Future(None, f"swap-{route_id}")
        self.rolled_back = False

    def rollback(self) -> None:
        if self.rolled_back:
            return
        self.rolled_back = True
        self.sdn.routes.discard(self.route_id)
        self.sdn.port.undo_log.append((self, self.installed.done and self.installed.exception is None))


class FakeSDN:
    """What a declarative reroute sees of the SDN controller: ``swap_routes`` and the installed routes."""

    def __init__(self, port: "FakePort") -> None:
        self.port = port
        self.routes = set()
        self.swaps = []

    def swap_routes(self, changes, *, priority: int = 100) -> FakeSwap:
        assert len(changes) == 1
        swap = FakeSwap(self, len(self.swaps) + 1)
        self.routes.add(swap.route_id)
        self.swaps.append(swap)
        return swap


class FakePort:
    """What the northbound API is to a transaction: clock, launchers, calls, abort and the shard barrier."""

    def __init__(self) -> None:
        self.now = 0.0
        self.timers = []
        self._seqs = itertools.count()
        self.operations = []
        #: Futures handed out by calls and barriers, resolved by rules.
        self.futures = []
        self.sdn = FakeSDN(self)
        #: Each undo, in order: (the swap or operation, whether it undid a completed one).
        self.undo_log = []

    # -- the port ------------------------------------------------------------------------

    def schedule(self, delay, callback, *args) -> None:
        heapq.heappush(self.timers, (self.now + delay, next(self._seqs), callback, args))

    def event(self, name: str) -> Future:
        return Future(None, name)

    def _launch(self, kind: OperationType, src: str, dst: str) -> OperationHandle:
        operation = FakeOperation(self, kind, src, dst)
        self.operations.append(operation)
        return operation.handle

    def move_internal(self, src, dst, pattern=None, spec=None) -> OperationHandle:
        return self._launch(OperationType.MOVE, src, dst)

    def clone_support(self, src, dst, spec=None) -> OperationHandle:
        return self._launch(OperationType.CLONE, src, dst)

    def merge_internal(self, src, dst, spec=None) -> OperationHandle:
        return self._launch(OperationType.MERGE, src, dst)

    def abort_operation(self, handle: OperationHandle, reason: str = "operation aborted") -> bool:
        """As ``MBController.abort_operation``: fail it in flight, or cancel a completed one's finalisation."""
        operation = next(operation for operation in self.operations if operation.handle is handle)
        if operation.state in TERMINAL:
            return False
        if operation.state != COMPLETED:
            operation.fail(OperationAbortedError(reason))
        else:
            operation.state = CANCELLED
            handle.finalized.fail(OperationAbortedError(reason))
        self.undo_log.append((operation, operation.state == CANCELLED and reason == "transaction rolled back"))
        return True

    def pending(self, name: str = "call") -> Future:
        future = Future(None, name)
        self.futures.append(future)
        return future

    def clone_config(self, src, dst, key="*") -> Future:
        return self.pending(f"clone_config({src}->{dst})")

    def write_config(self, mb, key, values) -> Future:
        return self.pending(f"write_config({mb})")

    def stats(self, mb, pattern=None) -> Future:
        return self.pending(f"stats({mb})")

    def end_transfer(self, mb) -> Future:
        return self.pending(f"end_transfer({mb})")

    def quiesce(self, handles) -> Future:
        return self.pending("quiesce")

    # -- what a call step runs -----------------------------------------------------------

    def returns_a_value(self) -> str:
        return "value"

    def raises(self) -> None:
        raise OperationError("the call step cannot launch")

    # -- the world -----------------------------------------------------------------------

    def open_futures(self) -> list:
        return [future for future in self.futures if not future.done]

    def live_operations(self) -> list:
        return [operation for operation in self.operations if operation.state not in TERMINAL]

    def unfinished_operations(self) -> list:
        return [operation for operation in self.operations if operation.state in (RUNNING, INSTALLED)]

    def open_swaps(self) -> list:
        return [swap for swap in self.sdn.swaps if not swap.installed.done]

    def fire_timer(self) -> None:
        due, _, callback, args = heapq.heappop(self.timers)
        self.now = max(self.now, due)
        callback(*args)

    def settle_one(self) -> bool:
        """Let the first thing still pending succeed (root starts, then calls, routes, operations); False when quiet."""
        if self.timers:
            self.fire_timer()
        elif self.open_futures():
            self.open_futures()[0].succeed(True)
        elif self.open_swaps():
            self.open_swaps()[0].installed.succeed(None)
        elif self.unfinished_operations():
            self.unfinished_operations()[0].advance()
        elif self.live_operations():
            self.live_operations()[0].advance()
        else:
            return False
        return True

    def drain(self) -> None:
        """Let everything still pending succeed."""
        for _ in range(10_000):
            if not self.settle_one():
                return
        raise AssertionError("the transaction never went quiet")


#: One step of the drawn graph: kind, ``after=`` (None, the default edge, twice as often; else
#: (earlier step, point) references), a flag (wait_finalized / finalized
#: barrier), a second flag (quiesce_shards), and a call step's behaviour.
STEP = st.tuples(
    st.sampled_from(STEP_KINDS),
    st.none() | st.none() | st.lists(st.tuples(st.integers(0, 7), st.sampled_from(["bare", "done", "installed"])), max_size=3),
    st.booleans(),
    st.booleans(),
    st.sampled_from(CALL_BEHAVIOURS),
)


class TransactionMachine(RuleBasedStateMachine):
    """One transaction under any order of root starts, call results, operation progress and route installs."""

    def __init__(self):
        super().__init__()
        self.port = None
        self.txn = None
        self.handle = None

    @initialize(graph=st.lists(STEP, min_size=1, max_size=8))
    def build(self, graph):
        self.port = port = FakePort()
        self.txn = txn = Transaction(port, 1)
        for index, (kind, refs, flag, quiesce, behaviour) in enumerate(graph):
            after = None
            if refs is not None:
                after = []
                for ref, point in refs:
                    if index:
                        step = txn.steps[ref % index]
                        after.append(step if point == "bare" else (step, point))
            if kind in ("move", "clone", "merge"):
                launch = getattr(txn, kind)
                args = ("src", "dst", None) if kind == "move" else ("src", "dst")
                launch(*args, wait_finalized=flag, after=after)
            elif kind == "reroute":
                txn.reroute(port.sdn, PATTERN, ["a", "b"], after=after)
            elif kind == "apply":
                txn.reroute(apply=port.pending, after=after, label="reroute(apply)")
            elif kind == "call":
                fn = {"future": port.pending, "value": port.returns_a_value, "raise": port.raises}[behaviour]
                txn.call(fn, name=f"call({behaviour})", after=after)
            elif kind == "config":
                txn.write_config("dst", "Some.Key", [1], after=after)
            else:
                covered = None if after is None else [ref if not isinstance(ref, tuple) else ref[0] for ref in after]
                txn.barrier(covered, finalized=flag, quiesce_shards=quiesce)
        self.handle = txn.commit()

    @rule()
    def let_the_first_pending_thing_succeed(self):
        """Always applicable: the drain's next move, or nothing once the world is quiet."""
        self.port.settle_one()

    @precondition(lambda self: bool(self.port.timers))
    @rule()
    def start_a_root(self):
        self.port.fire_timer()

    @precondition(lambda self: bool(self.port.open_futures()))
    @rule(index=st.integers(0, 15), ok=OK)
    def resolve_a_call(self, index, ok):
        futures = self.port.open_futures()
        future = futures[index % len(futures)]
        future.succeed(True) if ok else future.fail(OperationError(f"{future.name} failed"))

    @precondition(lambda self: bool(self.port.unfinished_operations()))
    @rule(index=st.integers(0, 15), ok=OK)
    def advance_an_operation(self, index, ok):
        """Install or complete an operation's state, or fail it."""
        operations = self.port.unfinished_operations()
        operation = operations[index % len(operations)]
        operation.advance() if ok else operation.fail(OperationError("the operation failed"))

    @precondition(lambda self: bool(self.port.live_operations()) and not self.port.unfinished_operations())
    @rule(index=st.integers(0, 15), ok=OK)
    def finalize_an_operation(self, index, ok):
        """Run a completed operation's post-quiescence step, or fail it, once no operation is still transferring."""
        operations = self.port.live_operations()
        operation = operations[index % len(operations)]
        operation.advance() if ok else operation.fail(OperationError("the finalisation failed"))

    @precondition(lambda self: bool(self.port.open_swaps()))
    @rule(index=st.integers(0, 15), ok=OK)
    def install_a_route(self, index, ok):
        swaps = self.port.open_swaps()
        swap = swaps[index % len(swaps)]
        swap.installed.succeed(None) if ok else swap.installed.fail(OperationError("a switch refused the rules"))

    @invariant()
    def an_aborted_transaction_leaves_nothing_behind(self):
        if self.txn is None or self.txn.status != "aborted":
            return
        pending = [step.record.name for step in self.txn.steps if step.record.status is StepStatus.PENDING]
        assert not pending, f"steps {pending} still pending after the abort"
        running = [operation.handle.record.op_id for operation in self.port.live_operations()]
        assert not running, f"operations {running} still run after the abort"
        assert not self.port.sdn.routes, f"routes {sorted(self.port.sdn.routes)} still installed after the abort"
        undone = [self._declared_at(target) for target, completed in self.port.undo_log if completed]
        assert undone == sorted(undone, reverse=True), f"completed steps rolled back in the order {undone}"

    def _declared_at(self, target) -> int:
        """The declaration index of the step that owns *target* (an operation or a route swap)."""
        for index, step in enumerate(self.txn.steps):
            if step.swap is target or (isinstance(target, FakeOperation) and step.handle is target.handle):
                return index
        raise AssertionError(f"{target} belongs to no step")

    @invariant()
    def a_committed_transaction_has_every_step_done(self):
        if self.txn is not None and self.txn.status == "committed":
            assert all(step.record.status is StepStatus.DONE for step in self.txn.steps)

    def teardown(self):
        if self.port is None:
            return
        self.port.drain()
        self.an_aborted_transaction_leaves_nothing_behind()
        self.a_committed_transaction_has_every_step_done()
        assert self.handle.done.done, "the transaction never resolved"
        assert self.txn.status in ("committed", "aborted")
        if self.txn.status == "aborted":
            assert isinstance(self.handle.done.exception, TransactionAbortedError)
        for operation in self.port.operations:
            handle = operation.handle
            assert all(future.done for future in (handle.state_installed, handle.completed, handle.finalized))


TestTransactionMachine = TransactionMachine.TestCase


def test_a_root_cancelled_by_an_earlier_roots_failure_never_starts():
    """Every root step's start is scheduled at commit; one that the abort cancelled stays cancelled."""
    port = FakePort()
    txn = Transaction(port, 1)
    txn.call(port.raises, name="fails at launch")
    late = txn.move("src", "dst", None, after=[])
    handle = txn.commit()
    port.drain()
    assert handle.status == "aborted"
    assert late.record.status is StepStatus.CANCELLED and late.handle is None
    assert not port.operations
