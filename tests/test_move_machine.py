"""One move, run bare: a :class:`~repro.core.operations.MoveOperation` behind a fake port.

The move touches the world only through its port (the clock, ``send``,
``forward_event`` and a few more), so this file drives it with no
``Simulator``, ``ControlChannel``, ``SouthboundAgent`` or ``MBController``.
:class:`FakePort` stands in for all four: each request is served the moment
it is sent (a channel is FIFO, so the serving order is the send order) by a
:class:`Box` — a middlebox reduced to per-flow journals of update seqs — and
its replies queue in that box's FIFO until a rule delivers them.  A source
get snapshots (and, for a frozen transfer, marks) its flows at once, but
streams the chunks out one rule at a time, so an update's event can overtake
the chunk that lacks it, as it does on the wire.  A packet updates a flow's
supporting state only, as every shipped middlebox's per-packet path does; the
reporting chunk still travels, so a flow reopens when it lands after the
supporting chunk's ACK.  The source exports one get at a time, in request
order: the supporting stream before the reporting one.  (A real agent
overlaps the two; when a flow's reporting chunk is ACKed before its
supporting chunk arrives, an update forwarded in between is overwritten —
``test_an_update_forwarded_between_the_roles_chunks_is_overwritten`` pins
that hole.)

:class:`MoveMachine` interleaves, adversarially: delivering the head of the
source's or a destination's reply FIFO, streaming the source's next chunk,
updating a moved flow at the source, firing the next timer, and — with a
standby registered — killing the destination or the standby.  At teardown it drains the world
and checks the chaos invariants on the bare move: every handle future
resolved; after a completed move, ``audit_journals`` finds nothing on the
surviving destination and no packet hold is left; after a
failed one, ``audit_source_retention`` finds nothing on the source.
"""

from __future__ import annotations

import heapq
import itertools
import json
from collections import deque

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule, run_state_machine_as_test

from repro.core import TransferGuarantee, TransferSpec, messages
from repro.core.errors import UnknownMiddleboxError
from repro.core.events import Event, EventCode
from repro.core.flowspace import FlowKey, FlowPattern
from repro.core.messages import Message, MessageType
from repro.core.operations import MoveOperation, _StatefulOperation
from repro.core.state import StateChunk, StateRole
from repro.core.stats import ControllerStats
from repro.net.simulator import Future
from repro.testing import audit_journals, audit_source_retention

FLOWS = [FlowKey(6, f"10.0.0.{index + 1}", "192.0.2.1", 1000 + index, 80) for index in range(3)]
ROLES = (StateRole.SUPPORTING, StateRole.REPORTING)
QUIESCENCE = 0.05


class _Shard:
    """The one home shard: the move reads only its id."""

    shard_id = 0


def _wire(message: Message) -> Message:
    """The message as the far end sees it: encoded, then decoded."""
    return Message.decode(message.encode())


class Box:
    """A middlebox reduced to what a move can observe: per-role, per-flow journals of update seqs."""

    def __init__(self, name: str, flows=()) -> None:
        self.name = name
        self.journals = {(role, key): [] for role in ROLES for key in flows}
        #: Flows frozen by a transfer: an update raises a re-process event.
        self.marked = set()
        #: Per-role dirty tracking (pre-copy): None when off, else the dirtied keys.
        self.dirty = {role: None for role in ROLES}
        #: Destination flows whose packets are held (order-preserving).
        self.held = set()
        #: Replies and events on the wire towards the controller, in order.
        self.fifo = deque()
        #: Source gets still exporting: ``[xid, role, chunks not yet sent]`` each.
        self.streams = []

    def flow_seqs(self) -> dict:
        """``{flow: seqs}`` of the supporting state, as the chaos auditor reads a journal."""
        return {key: seqs for (role, key), seqs in self.journals.items() if role is StateRole.SUPPORTING}

    def serve(self, request: Message) -> None:
        """Apply one request now and queue its reply (a source get streams its chunks later)."""
        fields, kind = messages.parse(request), request.type
        reply = messages.ack(self.name, request.xid)
        if kind in (MessageType.GET_PERFLOW, MessageType.GET_PERFLOW_DELTA):
            role = fields["role"]
            if kind == MessageType.GET_PERFLOW:
                keys = sorted(key for each, key in self.journals if each is role)
                self.dirty[role] = set() if fields["track_dirty"] else None
                freeze = fields["transfer"]
            else:
                keys, self.dirty[role] = sorted(self.dirty[role] or ()), None if fields["final"] else set()
                freeze = fields["final"]
            if freeze:
                self.marked.update(key for each, key in self.journals if each is role)
            chunks = deque(StateChunk(key, role, json.dumps(self.journals[role, key]).encode()) for key in keys)
            self.streams.append([request.xid, role, chunks])
            return
        if kind in (MessageType.PUT_PERFLOW, MessageType.PUT_PERFLOW_BATCH):
            for chunk in fields["chunks"] if kind == MessageType.PUT_PERFLOW_BATCH else [fields["chunk"]]:
                self.journals[chunk.role, chunk.key] = json.loads(chunk.blob)
                if fields["hold"]:
                    self.held.add(chunk.key)
        elif kind in (MessageType.TRANSFER_RELEASE, MessageType.TRANSFER_HOLD):
            keys = set(fields["keys"])
            if kind == MessageType.TRANSFER_HOLD:
                self.held |= keys
            else:
                self.held -= keys
                self.marked -= keys
        elif kind == MessageType.TRANSFER_END:
            self.dirty = {role: None for role in ROLES}
        elif kind == MessageType.DEL_PERFLOW:
            doomed = [entry for entry in self.journals if entry[0] is fields["role"]]
            for entry in doomed:
                del self.journals[entry]
            reply = messages.ack(self.name, request.xid, removed=len(doomed))
        else:
            raise AssertionError(f"a move sent an unexpected {kind}")
        self.fifo.append(_wire(reply))

    def stream(self) -> None:
        """The source puts the next message of its oldest get on the wire: a chunk, or the completion."""
        xid, role, chunks = self.streams[0]
        if chunks:
            self.fifo.append(_wire(messages.state_chunk(self.name, xid, chunks.popleft())))
            return
        dirty = self.dirty[role]  # what re-dirtied while the round streamed
        self.fifo.append(_wire(messages.get_complete(self.name, xid, role, None if dirty is None else len(dirty))))
        del self.streams[0]


class FakePort:
    """What the controller is to a move: clock, request table, counters — over three boxes."""

    def __init__(self, spec: TransferSpec, *, standby: bool, buffer_events: bool) -> None:
        self.now = 0.0
        self.stats = ControllerStats()
        self.buffer_events = buffer_events
        self.boxes = {"src": Box("src", FLOWS), "dst": Box("dst")}
        if standby:
            self.boxes["stby"] = Box("stby")
        self.alive = set(self.boxes)
        self.handlers = {}
        self.timers = []
        self.active = []
        self._xids, self._seqs, self._event_ids, self._op_ids = (itertools.count(1) for _ in range(4))
        #: Flow -> every seq the source applied (what the owner must end up with).
        self.sent = {key: [] for key in FLOWS}
        self.handle = self.start_move("src", "dst", FlowPattern.wildcard(), spec, standby="stby" if standby else None)

    # -- the port ------------------------------------------------------------------------

    def schedule(self, delay, callback, *args) -> None:
        heapq.heappush(self.timers, (self.now + delay, next(self._seqs), callback, args))

    def event(self, name: str) -> Future:
        return Future(None, name)

    def send(self, mb, message, on_reply=None, *args, shard=None):
        if mb not in self.alive:
            return False
        message.xid = next(self._xids)
        if on_reply is not None:
            self.handlers[mb, message.xid] = (on_reply, args)
        self.boxes[mb].serve(_wire(message))
        return message.xid

    def forward_event(self, dst, event, on_reply=None, *args, shard=None) -> str:
        if dst not in self.alive:
            raise UnknownMiddleboxError(f"middlebox {dst!r} is not registered with the controller")
        box, xid = self.boxes[dst], next(self._xids)
        box.journals.setdefault((StateRole.SUPPORTING, event.key), []).append(event.values["seq"])
        if on_reply is not None:
            self.handlers[dst, xid] = (on_reply, args)
        box.fifo.append(_wire(messages.ack(dst, xid)))
        return "sent"

    def note_perflow_installed(self, dst, keys, *, operation=None) -> None:
        pass

    def is_registered(self, name: str) -> bool:
        return name in self.alive

    def start_move(self, src, dst, pattern, spec=None, *, standby=None, handle=None):
        move = MoveOperation(
            self,
            src,
            dst,
            pattern,
            spec,
            op_id=next(self._op_ids),
            home_shard=_Shard,
            shards=(_Shard,),
            quiescence_timeout=QUIESCENCE,
            buffer_events=self.buffer_events,
            precopy_live=any(operation.precopy for operation in self.active if operation.src == src),
            standby=standby,
            handle=handle,
        )
        self.stats.operations_started += 1
        self.active.append(move)
        move.start()
        return move.handle

    def operation_finished(self, operation) -> None:
        self.active.remove(operation)
        self.stats.archive(operation.record)

    # -- the world -----------------------------------------------------------------------

    def update(self, key: FlowKey) -> None:
        """A packet updates *key* at the source: journal it, dirty it, and raise an event when frozen."""
        self.now += 1e-4
        src, seq = self.boxes["src"], next(self._seqs)
        src.journals[StateRole.SUPPORTING, key].append(seq)
        if src.dirty[StateRole.SUPPORTING] is not None:
            src.dirty[StateRole.SUPPORTING].add(key)
        self.sent[key].append(seq)
        if key in src.marked:
            values = {"seq": seq}
            src.fifo.append(Event("src", EventCode.REPROCESS, key=key, values=values, raised_at=self.now, event_id=next(self._event_ids)))

    def deliver(self, name: str) -> None:
        """The controller dispatches the head of *name*'s FIFO: an event to the moves, a reply to its entry."""
        head = self.boxes[name].fifo.popleft()
        if isinstance(head, Event):
            for operation in [operation for operation in self.active if operation.src == name]:
                operation.on_event(head)
            return
        entry = self.handlers.get((name, head.reply_to))
        if entry is None:
            return
        if head.type != MessageType.STATE_CHUNK:
            del self.handlers[name, head.reply_to]
        entry[0](head, *entry[1])

    def fire_timer(self) -> None:
        due, _, callback, args = heapq.heappop(self.timers)
        self.now = max(self.now, due)
        callback(*args)

    def kill(self, name: str) -> None:
        """As ``MBController.unregister(name, dead=True)``: its replies are lost, its operations learn of it."""
        self.alive.discard(name)
        self.boxes[name].fifo.clear()
        for operation in list(self.active):
            operation.instance_down(name, True)
        for key in [key for key in self.handlers if key[0] == name]:
            owner = getattr(self.handlers.pop(key)[0], "__self__", None)
            if isinstance(owner, _StatefulOperation):
                owner.instance_down(name, True)

    def drain(self) -> None:
        """Run everything still pending: the wire first, then the timers."""
        for _ in range(10_000):
            live = [name for name in sorted(self.alive) if self.boxes[name].fifo or self.boxes[name].streams]
            if live:
                box = self.boxes[live[0]]
                box.stream() if box.streams else self.deliver(live[0])
            elif self.timers:
                self.fire_timer()
            else:
                return
        raise AssertionError("the move never went quiet")


class MoveMachine(RuleBasedStateMachine):
    """One move under any interleaving of replies, chunk streaming, source updates, timers and a destination crash."""

    BUFFER_EVENTS = True
    #: None draws the batch size; a subclass may pin it.
    BATCH_SIZE = None

    def __init__(self):
        super().__init__()
        self.port = None
        self.guarantee = None

    @initialize(
        guarantee=st.sampled_from(["loss_free", "order_preserving"]),
        precopy=st.booleans(),
        batch_size=st.sampled_from([1, 4]),
        standby=st.booleans(),
    )
    def build(self, guarantee, precopy, batch_size, standby):
        self.guarantee = guarantee
        batch_size = self.BATCH_SIZE or batch_size
        kind = TransferSpec.precopy if precopy else TransferSpec
        spec = kind(guarantee=TransferGuarantee(guarantee), batch_size=batch_size)
        self.port = FakePort(spec, standby=standby, buffer_events=self.BUFFER_EVENTS)

    def _has(self, name, what):
        return name in self.port.alive and bool(getattr(self.port.boxes[name], what))

    @precondition(lambda self: self._has("src", "fifo"))
    @rule()
    def deliver_from_source(self):
        self.port.deliver("src")

    @precondition(lambda self: self._has("dst", "fifo") or self._has("stby", "fifo"))
    @rule(standby=st.booleans())
    def deliver_from_destination(self, standby):
        names = [name for name in ("dst", "stby") if self._has(name, "fifo")]
        self.port.deliver(names[-1] if standby else names[0])

    @precondition(lambda self: self._has("src", "streams"))
    @rule()
    def stream_a_chunk(self):
        self.port.boxes["src"].stream()

    @rule(flow=st.sampled_from(FLOWS))
    def update_at_the_source(self, flow):
        """A packet of a moved flow reaches the source — until the finalised move deleted its state there."""
        if (StateRole.SUPPORTING, flow) in self.port.boxes["src"].journals:
            self.port.update(flow)

    @precondition(lambda self: bool(self.port.timers))
    @rule()
    def fire_a_timer(self):
        self.port.fire_timer()

    @precondition(lambda self: "stby" in self.port.boxes and not self.port.handle.completed.done)
    @rule(standby=st.booleans())
    def kill_a_destination(self, standby):
        """With a standby registered, kill the destination (the retry takes over) or the standby (a later death fails the move)."""
        name = "stby" if standby else "dst"
        if name in self.port.alive:
            self.port.kill(name)

    def teardown(self):
        if self.port is not None:
            self.port.drain()
            assert not audit(self.port, self.guarantee)


def audit(port: FakePort, guarantee: str) -> list:
    """The bare move's termination invariants: every handle future resolved, no update lost or doubled."""
    handle = port.handle
    assert all(future.done for future in (handle.state_installed, handle.completed, handle.finalized))
    if handle.completed.exception is not None:
        violations = audit_source_retention(port.sent, port.boxes["src"].flow_seqs())
    else:
        owner = port.boxes[handle.record.dst]
        assert not owner.held, owner.held
        violations = audit_journals(guarantee, port.sent, owner.flow_seqs(), owner=owner.name)
    return [str(violation) for violation in violations]


TestMoveMachine = MoveMachine.TestCase


class UnbufferedMoveMachine(MoveMachine):
    """The ``buffer_events`` ablation at ``batch_size=4``: replays race the puts that overwrite them."""

    BUFFER_EVENTS = False
    BATCH_SIZE = 4


def test_the_machine_finds_the_lost_update_without_event_buffering():
    """The machine has teeth: generation alone (no shrinking) finds the race."""
    quick = settings(phases=[Phase.explicit, Phase.generate], database=None, deadline=None)
    with pytest.raises(AssertionError, match="lost"):
        run_state_machine_as_test(UnbufferedMoveMachine, settings=quick)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a flow counts as installed once the chunks seen so far are ACKed: when its reporting chunk is ACKed before "
    "its supporting chunk arrives, an update forwarded in between is overwritten by the supporting chunk",
)
def test_an_update_forwarded_between_the_roles_chunks_is_overwritten():
    """The agent overlaps a move's two gets, so a flow's reporting chunk can land first.

    No shipped middlebox keeps state in both per-flow roles (the dummy's
    packets touch only the supporting one), so no scenario reaches this.
    """
    port = FakePort(TransferSpec(), standby=False, buffer_events=True)
    src = port.boxes["src"]
    src.streams.reverse()  # the reporting get exports first
    src.stream()  # the reporting chunk of FLOWS[0]
    port.deliver("src")  # ... is put
    port.deliver("dst")  # ... and ACKed: the flow counts as installed
    port.update(FLOWS[0])
    port.deliver("src")  # its event is replayed at once
    port.drain()  # the supporting chunk, snapshotted before the update, lands last
    assert not audit(port, "loss_free")
