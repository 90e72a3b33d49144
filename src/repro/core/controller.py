"""The MB controller.

The controller is the broker between control applications (which speak the
northbound API) and middleboxes (which speak the southbound message protocol):

* it owns one control channel per registered middlebox;
* it carries out each northbound call of
  :class:`~repro.core.northbound.NorthboundAPI`, which defines them: a plain
  call is one request and its reply (:meth:`request`), a stateful one an
  operation it launches (:meth:`start_move`, :meth:`start_operation`) — the
  state machines in :mod:`repro.core.operations`, which reach the world only
  through the port this class implements: the runtime's clock, :meth:`send`
  and a few more;
* it hands re-process events to the live operations of their source, which
  buffer them until the destination has ACKed the put for the affected state
  and then replay them (paper Figure 5), once per state install at each
  destination: live operations targeting one destination share its
  :class:`~repro.core.operations.ReplayLedger`;
* it runs message handling on one or more **controller shards**
  (:mod:`repro.core.sharding`): each shard is a simulated CPU with a
  per-message processing cost.  With the default single shard, concurrent
  operations contend with each other exactly as the paper's profiling shows
  (section 8.3: thread contention and socket reads dominate); with
  ``num_shards > 1`` the flow space is consistent-hash partitioned and each
  shard runs its own event/ACK loop, so simultaneous operations scale with
  the shard count instead of serialising;
* with ``dispatch_tick`` set it coalesces hot-path southbound requests
  (puts, replays, releases, deletes) per destination channel into one framed
  BATCH message per tick, so the wire does O(batches) instead of O(messages)
  channel round-trips.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from ..net.simulator import Future, Simulator
from . import messages
from .channel import DEFAULT_CONTROL_BANDWIDTH, DEFAULT_CONTROL_LATENCY, ControlChannel
from .errors import OperationAbortedError, OperationError, ProtocolError, UnknownMiddleboxError
from .events import Event, EventCode
from .flowspace import FlowPattern
from .messages import BATCHABLE_REQUESTS, Message, MessageType
from .operations import MoveOperation, OperationHandle, OperationRecord, ReplayLedger
from .operations import _lost, _StatefulOperation
from .sharding import ControllerShard, ShardCoordinator
from .southbound import SouthboundAgent
from .stats import ControllerStats
from .transfer import TransferSpec

if TYPE_CHECKING:  # pragma: no cover - middleboxes import core, not the reverse
    from ..middleboxes.base import Middlebox

#: CPU time the controller spends forwarding one event (buffer lookup plus send).
PER_EVENT_COST = 25e-6

#: Replies that carry part of a get's stream and so do not end its request.
_STREAM_REPLIES = (MessageType.STATE_CHUNK, MessageType.STATE_CHUNK_BATCH)


@dataclass
class ControllerConfig:
    """Tunable controller behaviour."""

    #: Idle time with no events after which a move's source state is deleted
    #: (the paper uses "a fixed amount of time (e.g., 5 seconds)").
    quiescence_timeout: float = 5.0
    #: Buffer re-process events until the destination has ACKed the put for the
    #: affected state (paper Figure 5).  Disabling this is an ablation: replayed
    #: updates can then be overwritten by the chunk that arrives later.
    buffer_events: bool = True
    #: CPU time the controller spends handling one received message.
    per_message_cost: float = 40e-6
    #: Control-channel bandwidth used for newly registered middleboxes (their
    #: latency is the channel's ``DEFAULT_CONTROL_LATENCY``).
    channel_bandwidth: float = DEFAULT_CONTROL_BANDWIDTH
    #: Number of controller shards (event/ACK loops).  1 reproduces the seed's
    #: single-CPU serialisation bit-for-bit; N > 1 partitions the flow space
    #: by consistent hash and runs N independent loops.
    num_shards: int = 1
    #: Southbound batching window in seconds: hot-path requests (put /
    #: re-process / release / delete) to the same middlebox enqueued within
    #: one tick are framed into a single BATCH channel message.  ``0.0``
    #: coalesces requests issued at the same simulated instant; ``None``
    #: (default) disables coalescing entirely (every request is its own
    #: channel message, the seed behaviour).
    dispatch_tick: Optional[float] = None
    #: Liveness: period of the HEARTBEAT beacons every registered agent sends
    #: (and of the controller's liveness sweep).  ``None`` (default) disables
    #: heartbeats entirely — no extra scheduled events, the seed behaviour.
    #: Note that enabled heartbeats keep the simulator's event queue non-empty
    #: while instances are registered; drive the clock with ``run(until=...)``
    #: or ``run_until(future)`` rather than an open-ended ``run()``.
    heartbeat_interval: Optional[float] = None
    #: Liveness: silence threshold after which an instance is declared dead
    #: (its operations abort crash-safe, applications are notified).  Only
    #: meaningful with ``heartbeat_interval`` set; simulated seconds since a
    #: frame new to the controller arrived, delivered yet or not (``ControlChannel.heard_at``).
    liveness_timeout: float = 0.01


@dataclass
class _Registration:
    """Book-keeping for one registered middlebox."""

    middlebox: Middlebox
    channel: ControlChannel
    agent: SouthboundAgent


class MBController:
    """Brokers all middlebox state operations (paper sections 3 and 5)."""

    def __init__(self, sim: Simulator, config: Optional[ControllerConfig] = None) -> None:
        self.sim = sim
        #: The operations' clock, straight from the runtime.
        self.schedule, self.event = sim.schedule, sim.event
        self.config = config or ControllerConfig()
        self.stats = ControllerStats()
        #: Sharded runtime: the coordinator owns the consistent-hash ring, the
        #: per-shard event loops, operation placement, and cross-shard barriers.
        self.coordinator = ShardCoordinator(sim, self.config.num_shards)
        self._registrations: Dict[str, _Registration] = {}
        #: Reply routing, as data: (mb name, request xid) -> (shard id whose
        #: loop the reply is charged to, callback, its extra arguments); each
        #: reply message runs ``callback(reply, *arguments)``.
        self._reply_handlers: Dict[Tuple[str, int], Tuple[int, Callable[..., None], tuple]] = {}
        #: Batched southbound dispatch: per-middlebox queues of coalescible
        #: requests and the set of middleboxes with a flush already scheduled.
        self._outbox: Dict[str, List[Message]] = {}
        self._flush_scheduled: Set[str] = set()
        #: The live operations — from start until they finish — by source MB name, in start order.
        self._active_by_src: Dict[str, List[_StatefulOperation]] = {}
        #: One replay ledger per destination, kept while a live operation targets it.
        self._ledgers: Dict[str, ReplayLedger] = {}
        #: Application subscribers for introspection events.
        self._event_subscribers: List[Callable[[Event], None]] = []
        #: Ids it numbers: its requests, the events it decodes, its operations and transactions.
        self._xids, self._event_ids = itertools.count(1), itertools.count(1)
        self.op_ids, self.txn_ids = itertools.count(1), itertools.count(1)
        #: Liveness: whether the periodic sweep is scheduled.
        self._liveness_sweep_armed = False

    # -- registration -----------------------------------------------------------------------

    def register(self, middlebox: Middlebox, *, channel: Optional[ControlChannel] = None) -> ControlChannel:
        """Connect a middlebox to the controller.

        Creates (or adopts) a control channel, binds the controller side, and
        instantiates the middlebox's southbound agent on the other side.
        """
        if middlebox.name in self._registrations:
            raise OperationError(f"middlebox {middlebox.name!r} is already registered")
        if channel is None:
            channel = ControlChannel(
                self.sim,
                name=f"chan-{middlebox.name}",
                latency=DEFAULT_CONTROL_LATENCY,
                bandwidth=self.config.channel_bandwidth,
            )
        agent = SouthboundAgent(self.sim, middlebox, channel)
        registration = self._registrations[middlebox.name] = _Registration(middlebox, channel, agent)
        channel.bind_controller(partial(self._receive, registration))
        if self.config.heartbeat_interval is not None:
            agent.start_heartbeats(self.config.heartbeat_interval)
            self._arm_liveness_sweep()
        return channel

    def unregister(self, name: str, *, dead: bool = False) -> None:
        """Remove a middlebox (e.g. after scale-down terminates the instance).

        Drops the registration and any in-flight reply routing for the
        removed middlebox, and closes the channel's middlebox end: the
        instance does nothing more, and what it sent before is discarded on
        arrival.  ``dead`` marks a crash (the
        instance vanished rather than being terminated on purpose): in-flight
        operations — and pending plain requests (``readConfig``, ``writeConfig``,
        ``stats``, ``endTransfer``) — then fail with :class:`InstanceDeadError`
        instead of :class:`UnknownMiddleboxError`.

        Either way the orphaned instance object is purged of transfer
        involvement afterwards: the failing operations' cleanup messages can
        no longer be delivered to it, so packet holds, queued packets, and
        pre-copy install-round tags are dropped locally instead of leaking.
        """
        registration = self._registrations.pop(name, None)
        # Operations still transferring state through the removed middlebox can
        # never finish (their replies are about to be discarded): they fail now
        # rather than leaving their futures pending forever.
        for operations in list(self._active_by_src.values()):
            for operation in list(operations):
                operation.instance_down(name, dead)
        # A reply that will never come: a move awaiting it to start its standby
        # retry fails its handle, a plain request (:meth:`request`) its future
        # — once the instance is torn down below — instead of hanging.
        stranded: List[Future] = []
        for key in [key for key in self._reply_handlers if key[0] == name]:
            _, handler, args = self._reply_handlers.pop(key)
            owner = getattr(handler, "__self__", None)
            if isinstance(owner, _StatefulOperation):
                owner.instance_down(name, dead)
            elif handler == self._on_request_reply:
                stranded.append(args[0])
        self._outbox.pop(name, None)
        self._flush_scheduled.discard(name)
        if registration is not None:
            # An unregistered instance must not install late chunks (re-creating
            # the round tags and holds the purge below removes).
            registration.channel.close("middlebox")
            registration.middlebox.purge_transfer_state()
        for future in stranded:
            if not future.done:
                future.fail(_lost(name, dead, f"before replying to {future.name}"))

    # -- liveness ---------------------------------------------------------------------

    def kill(self, name: str, *, declare: bool = True) -> bool:
        """Crash a middlebox instance: close its channel's middlebox end, as if the process died.

        In-flight deliveries to the instance are discarded, and it sends,
        installs and retransmits nothing more.  With ``declare``
        (the default) the controller also declares the instance dead
        immediately; with ``declare=False`` the crash is only discovered by
        the liveness sweep once the instance misses its heartbeat deadline —
        the realistic failure-detection path.  When no liveness sweep exists
        (``heartbeat_interval`` unset), ``declare=False`` is overridden: a
        silent crash would otherwise never be discovered and every operation
        touching the instance would hang forever.  Returns False when *name*
        is not registered.
        """
        registration = self._registrations.get(name)
        if registration is None:
            return False
        registration.channel.close("middlebox")
        self.stats.instances_killed += 1
        if declare or self.config.heartbeat_interval is None:
            self.declare_dead(name, reason="killed")
        return True

    def crash(self) -> None:
        """This controller's process died: close the controller end of every channel and forget every instance.

        The orphans live on for a peer to adopt; the liveness sweep, with nothing to sweep, stops.
        """
        for registration in self._registrations.values():
            registration.channel.close("controller")
        self._registrations.clear()

    def declare_dead(self, name: str, reason: str = "liveness timeout") -> bool:
        """Declare a registered instance dead: crash-safe abort + notification.

        Every in-flight operation touching the instance fails with
        :class:`InstanceDeadError` (a standby retry starts on exactly this), the
        orphaned instance object is purged of transfer involvement (no leaked
        holds or round tags), and applications subscribed to introspection
        events receive an ``openmb.instance_down`` event so failover logic
        can react.  Returns False when *name* is not registered.
        """
        if name not in self._registrations:
            return False
        self.stats.instances_declared_dead += 1
        self.unregister(name, dead=True)
        event = Event(
            mb_name=name,
            code=EventCode.INSTANCE_DOWN,
            values={"reason": reason},
            raised_at=self.sim.now,
            event_id=next(self._event_ids),
        )
        for subscriber in self._event_subscribers:
            subscriber(event)
        return True

    def _arm_liveness_sweep(self) -> None:
        """Schedule the periodic liveness check (one timer at a time)."""
        if self._liveness_sweep_armed or self.config.heartbeat_interval is None:
            return
        self._liveness_sweep_armed = True
        self.sim.schedule(self.config.heartbeat_interval, self._liveness_sweep)

    def _liveness_sweep(self) -> None:
        """Declare dead every instance whose channel brought no new frame for longer than the timeout."""
        self._liveness_sweep_armed = False
        deadline = self.sim.now - self.config.liveness_timeout
        for name in [name for name, reg in self._registrations.items() if reg.channel.heard_at["to_controller"] < deadline]:
            self.declare_dead(name)
        # The sweep stays armed only while instances remain registered, so an
        # emptied controller lets the simulator's event queue drain.
        if self._registrations:
            self._arm_liveness_sweep()

    def middlebox_names(self) -> List[str]:
        return sorted(self._registrations)

    def is_registered(self, name: str) -> bool:
        """Whether a middlebox of that name is currently registered (and alive)."""
        return name in self._registrations

    def channel_for(self, name: str) -> ControlChannel:
        return self._registration(name).channel

    def _registration(self, name: str) -> _Registration:
        registration = self._registrations.get(name)
        if registration is None:
            raise UnknownMiddleboxError(f"middlebox {name!r} is not registered with the controller")
        return registration

    @property
    def now(self) -> float:
        """The runtime's current time (the operations' clock)."""
        return self.sim.now

    # -- message plumbing --------------------------------------------------------------------------

    def send(
        self,
        mb_name: str,
        message: Message,
        on_reply: Optional[Callable[..., None]] = None,
        *args: object,
        shard: Optional[ControllerShard] = None,
    ) -> int:
        """Send a southbound request to a middlebox; optionally route its replies.

        Returns the request's xid (never 0), or False, sending nothing, when
        *mb_name* is not registered — post-quiescence and cleanup messages
        whose target may have been terminated (e.g. scale-down) in the
        meantime just skip it.
        ``on_reply(reply, *args)`` runs for *every* message the middlebox
        sends with ``reply_to`` equal to the request's xid (chunk streams
        produce many) up to and including the reply that ends the request —
        anything but a ``STATE_CHUNK`` or ``STATE_CHUNK_BATCH`` — after which
        the entry is forgotten.
        *shard* names the controller shard whose loop the replies are charged
        to — stateful operations pass their home shard; by default the
        middlebox's hash-assigned shard is used.  With ``dispatch_tick``
        configured, hot-path request types are coalesced into one framed
        BATCH per destination per tick instead of being sent immediately.
        """
        registration = self._registrations.get(mb_name)
        if registration is None:
            return False
        if shard is None:
            shard = self.coordinator.shard_for_name(mb_name)
        message.xid = next(self._xids)
        if on_reply is not None:
            self._reply_handlers[(mb_name, message.xid)] = (shard.shard_id, on_reply, args)
        self.stats.messages_sent += 1
        if self.config.dispatch_tick is not None and message.type in BATCHABLE_REQUESTS:
            self._outbox.setdefault(mb_name, []).append(message)
            if mb_name not in self._flush_scheduled:
                self._flush_scheduled.add(mb_name)
                self.sim.schedule(self.config.dispatch_tick, self._flush_outbox, mb_name)
            return message.xid
        # A non-batchable request flushes the destination's queue first so the
        # channel still delivers in send order (per-channel FIFO).
        if self.config.dispatch_tick is not None:
            self._flush_outbox(mb_name)
        registration.channel.send_to_middlebox(message)
        return message.xid

    def _flush_outbox(self, mb_name: str) -> None:
        """Frame and send every request queued for *mb_name* (if still registered)."""
        self._flush_scheduled.discard(mb_name)
        queued = self._outbox.pop(mb_name, None)
        if not queued:
            return
        registration = self._registrations.get(mb_name)
        if registration is None:
            return  # unregistered while queued: drop, like any late message
        if len(queued) > 1:
            self.stats.batches_dispatched += 1
            self.stats.messages_coalesced += len(queued)
        registration.channel.send_many_to_middlebox(queued)

    def _shard_for_message(self, mb_name: str, message: Message) -> ControllerShard:
        """Route an incoming message to the shard whose loop must handle it.

        Events carrying a flow key go to the shard owning that flow (the
        flow-space partition); replies go to the shard recorded when the
        request was sent (the operation's home loop); everything else goes to
        the middlebox's hash-assigned shard.
        """
        if message.type == MessageType.EVENT:
            key = messages.parse(message, "key")["key"]
            if key is not None:
                return self.coordinator.shard_for_key(key)
            return self.coordinator.shard_for_name(mb_name)
        if message.reply_to is not None:
            entry = self._reply_handlers.get((mb_name, message.reply_to))
            if entry is not None:
                return self.coordinator.shards[entry[0]]
        return self.coordinator.shard_for_name(mb_name)

    def _receive(self, registration: _Registration, message: Message) -> None:
        """Entry point for every message arriving from a middlebox (dropped once *registration* is over)."""
        mb_name = registration.middlebox.name
        if self._registrations.get(mb_name) is not registration:
            return
        self.stats.messages_received += 1
        if message.type == MessageType.HEARTBEAT:
            self.stats.heartbeats_received += 1
            return  # liveness beacon only; nothing to dispatch
        try:
            shard = self._shard_for_message(mb_name, message)
        except ProtocolError:
            return  # an event with a malformed key: dropped, counted as received only
        cost = PER_EVENT_COST if message.type == MessageType.EVENT else self.config.per_message_cost
        shard.on_cpu(cost, self._dispatch, mb_name, message, shard)

    def _dispatch(self, mb_name: str, message: Message, shard: ControllerShard) -> None:
        """Hand an event to the operations, a reply to the handler of its request.

        Malformed events and unsolicited non-event messages are ignored but
        counted as received; reply handlers read bodies through
        :func:`messages.parse_reply`, where a malformed one reads as an ERROR.
        """
        if message.type == MessageType.EVENT:
            try:
                event = messages.decode_event(message)
            except ProtocolError:
                return
            event.event_id = next(self._event_ids)
            self._handle_event(mb_name, event, shard)
            return
        request = (mb_name, message.reply_to)
        entry = self._reply_handlers.get(request)
        if entry is not None:
            if message.type not in _STREAM_REPLIES:
                # Every reply but a chunk of a stream ends its request: forget
                # the handler with it, or a long-lived controller retains every
                # operation it ever ran (and a duplicated reply is handled twice).
                del self._reply_handlers[request]
            entry[1](message, *entry[2])

    def _handle_event(self, mb_name: str, event: Event, shard: ControllerShard) -> None:
        self.stats.events_received += 1
        shard.stats.events += 1
        if event.is_reprocess:
            # Deliver to the live operations from this source whose pattern
            # could own flows on the shard owning the event's flow, in start
            # order.  With one shard that is every operation from the source;
            # with several, an exact-pattern operation only sees events its
            # own shard owns.
            for operation in [op for op in self._active_by_src.get(mb_name, ()) if shard in op.shards]:
                operation.on_event(event)
        else:
            self.stats.introspection_events += 1
            for subscriber in self._event_subscribers:
                subscriber(event)

    def subscribe_events(self, callback: Callable[[Event], None]) -> None:
        """Register an application callback for introspection events."""
        self._event_subscribers.append(callback)

    # -- plain requests --------------------------------------------------------------------

    def request(
        self, mb_name: str, message: Message, name: str, expect: str = MessageType.ACK, extract: str = ""
    ) -> Future:
        """Send *message* and return a future, named *name*, for its one reply.

        The future yields the reply's *extract* field (True when none is
        named) once a reply of type *expect* arrives, and fails with
        :class:`OperationError` on ERROR.  The northbound API's plain calls
        (``readConfig``, ``writeConfig``, ``stats``, ``endTransfer`` and the
        event switches) each build their request and send it through here.
        """
        future = self.sim.event(name=name)
        if not self.send(mb_name, message, self._on_request_reply, future, expect, extract, message.type):
            self._registration(mb_name)  # raises UnknownMiddleboxError
        return future

    @staticmethod
    def _on_request_reply(reply: Message, future: Future, expect: str, extract: str, request_type: str) -> None:
        """Resolve a :meth:`request` future from its reply: *extract* (or True) on *expect*, failed on ERROR."""
        if future.done:
            return  # the caller gave up on the request (or failed it) before the reply came
        kind, fields = messages.parse_reply(reply)
        if kind == expect:
            future.succeed(fields[extract] if extract else True)
        elif kind == MessageType.ERROR:
            future.fail(OperationError(fields["reason"] or f"{request_type} failed"))

    # -- stateful operations: the launchers behind moveInternal, cloneSupport and mergeInternal --------------

    def start_move(
        self,
        src: str,
        dst: str,
        pattern: FlowPattern,
        spec: Optional[TransferSpec] = None,
        *,
        standby: Optional[str] = None,
        handle: Optional[OperationHandle] = None,
    ) -> OperationHandle:
        """Build and start one move attempt; a standby retry passes the *handle* it continues."""
        precopy_live = any(operation.precopy for operation in self._active_by_src.get(src, ()))
        return self.start_operation(MoveOperation, src, dst, pattern, spec, precopy_live=precopy_live, standby=standby, handle=handle)

    def start_operation(self, kind: type, src: str, dst: str, pattern, spec, **extra) -> OperationHandle:
        """Build an operation of *kind* with the values the controller fixes for it, then start it."""
        home_shard = self.coordinator.home_shard(pattern)
        operation = kind(
            self,
            src,
            dst,
            pattern,
            spec,
            op_id=next(self.op_ids),
            home_shard=home_shard,
            shards=self.coordinator.shards_for_pattern(pattern),
            ledger=self._ledgers.setdefault(dst, ReplayLedger()),
            quiescence_timeout=self.config.quiescence_timeout,
            buffer_events=self.config.buffer_events,
            **extra,
        )
        self.stats.operations_started += 1
        self._active_by_src.setdefault(src, []).append(operation)
        operation.start()
        return operation.handle

    def abort_operation(self, handle: OperationHandle, reason: str = "operation aborted") -> bool:
        """Abort the operation behind *handle* (transaction rollback support).

        In-flight operations are failed (releasing any destination packet
        holds); completed-but-unfinalised operations have their destructive
        post-quiescence step cancelled so the source keeps its state.  Returns
        True when the abort changed anything.
        """
        operation = handle._operation
        if operation is None:
            return False
        return operation.abort(OperationAbortedError(reason))

    def operation_finished(self, operation: _StatefulOperation) -> None:
        """Called by an operation when it has fully finalised (or failed): it is live no more."""
        live = self._active_by_src[operation.src]
        live.remove(operation)
        if not live:
            del self._active_by_src[operation.src]
        # Another live operation targeting the destination may still hold one
        # of the ledger's events in its buffer: the ledger goes with the last.
        if not any(op.dst == operation.dst for ops in self._active_by_src.values() for op in ops):
            del self._ledgers[operation.dst]
        self.stats.archive(operation.record)

    # -- convenience ---------------------------------------------------------------------------------------

    def active_operations(self) -> List[OperationRecord]:
        """Records of operations that have started but not yet finalised."""
        return [op.record for ops in self._active_by_src.values() for op in ops]

    # -- the stats document ---------------------------------------------------------------------------------

    def shard_summary(self) -> Dict[str, object]:
        """The snapshot's ``sharding`` section: shard count, barriers issued, and each shard's load counters."""
        coordinator = self.coordinator
        return {
            "num_shards": coordinator.num_shards,
            "barriers_issued": coordinator.barriers_issued,
            "shards": [{"shard": shard.shard_id, **shard.stats.as_dict()} for shard in coordinator.shards],
        }

    def snapshot(self) -> Dict[str, object]:
        """Everything this controller counts, as one JSON-serialisable document.

        ``controller``: its own counters plus the chunks and bytes its archived
        operations moved; ``sharding``: :meth:`shard_summary`; ``instances``:
        per registered middlebox, its channel's two directions, its southbound
        agent, its data-plane counters and each state store's memory gauges.
        """
        stats = self.stats
        instances = {}
        for name, registration in sorted(self._registrations.items()):
            channel, middlebox = registration.channel, registration.middlebox
            instances[name] = {
                "channel": {"to_mb": channel.to_mb.as_dict(), "to_controller": channel.to_controller.as_dict()},
                "agent": registration.agent.stats.as_dict(),
                "middlebox": middlebox.counters.as_dict(),
                "stores": {
                    "support": middlebox.support_store.memory_stats().as_dict(),
                    "report": middlebox.report_store.memory_stats().as_dict(),
                },
            }
        return {
            "controller": {**stats.as_dict(), "chunks_transferred": stats.total_chunks(), "bytes_transferred": stats.total_bytes()},
            "sharding": self.shard_summary(),
            "instances": instances,
        }
