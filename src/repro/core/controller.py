"""The MB controller.

The controller is the broker between control applications (which speak the
northbound API) and middleboxes (which speak the southbound message protocol):

* it owns one control channel per registered middlebox;
* it translates each northbound call into the corresponding sequence of
  southbound requests (the state machines in :mod:`repro.core.operations`,
  which reach the world only through the port this class implements: the
  runtime's clock, :meth:`send`, :meth:`forward_event` and a few more);
* it buffers re-process events until the destination has ACKed the put for the
  affected state, then forwards them (paper Figure 5);
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
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..net.simulator import Future, Simulator, all_of
from . import messages
from .channel import DEFAULT_CONTROL_BANDWIDTH, DEFAULT_CONTROL_LATENCY, ControlChannel
from .errors import OperationAbortedError, OperationError, ProtocolError, UnknownMiddleboxError
from .events import Event, EventCode
from .flowspace import FlowKey, FlowPattern
from .messages import BATCHABLE_REQUESTS, Message, MessageType
from .operations import CloneOperation, MergeOperation, MoveOperation, OperationHandle, OperationRecord, _StatefulOperation
from .sharding import ControllerShard, ShardCoordinator
from .southbound import SouthboundAgent
from .stats import ControllerStats
from .transfer import TransferSpec

if TYPE_CHECKING:  # pragma: no cover - middleboxes import core, not the reverse
    from ..middleboxes.base import Middlebox

#: CPU time the controller spends forwarding one event (buffer lookup plus send).
PER_EVENT_COST = 25e-6


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
    #: meaningful with ``heartbeat_interval`` set; expressed in seconds of
    #: simulated time since the last message received from the instance.
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
        #: Operations currently in flight, keyed by source MB name.
        self._active_by_src: Dict[str, List[_StatefulOperation]] = {}
        #: Application subscribers for introspection events.
        self._event_subscribers: List[Callable[[Event], None]] = []
        #: Monotonic sequence tokens stamped on ACKed installs and on replays; the
        #: relative order of a flow's last install and an event's last replay
        #: decides whether the event must be replayed (again).
        self._transfer_seq = itertools.count(1)
        #: Ids it numbers: its requests, the events it decodes, its operations and transactions.
        self._xids, self._event_ids = itertools.count(1), itertools.count(1)
        self.op_ids, self.txn_ids = itertools.count(1), itertools.count(1)
        #: (event id, destination) -> sequence token of the most recent replay.
        #: An event routed to several concurrent operations (e.g. a move and a
        #: merge sharing the same source) is replayed once per state install —
        #: usually exactly once, but a replay is *re-issued* when a later state
        #: chunk overwrote the flow's state at the destination.
        self._forwarded_events: Dict[Tuple[int, str], int] = {}
        #: Replays sent but not yet ACKed, keyed like ``_forwarded_events``.
        #: While a replay is in flight, re-issue decisions are deferred: an
        #: install whose ACK we have already processed was applied *before*
        #: the in-flight replay (the destination ACKs on one FIFO channel),
        #: so the replay's update supersedes it and must not be doubled.
        self._replays_in_flight: Set[Tuple[int, str]] = set()
        #: (destination, canonical flow key) -> sequence token of the last
        #: ACKed per-flow state install at that destination.
        self._installed_state: Dict[Tuple[str, FlowKey], int] = {}
        #: Liveness: last simulated time any message arrived from each
        #: registered middlebox, and whether the periodic sweep is scheduled.
        self._last_seen: Dict[str, float] = {}
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
        channel.bind_controller(lambda message, mb=middlebox.name: self._receive(mb, message))
        agent = SouthboundAgent(self.sim, middlebox, channel)
        self._registrations[middlebox.name] = _Registration(middlebox, channel, agent)
        if self.config.heartbeat_interval is not None:
            self._last_seen[middlebox.name] = self.sim.now
            agent.start_heartbeats(self.config.heartbeat_interval)
            self._arm_liveness_sweep()
        return channel

    def unregister(self, name: str, *, dead: bool = False) -> None:
        """Remove a middlebox (e.g. after scale-down terminates the instance).

        Drops the registration, any in-flight reply routing for the removed
        middlebox, and the channel's controller binding, so late replies and
        events from the terminated instance are discarded instead of being
        dispatched through stale handlers.  ``dead`` marks a crash (the
        instance vanished rather than being terminated on purpose): in-flight
        operations then fail with :class:`InstanceDeadError` instead of
        :class:`UnknownMiddleboxError`.

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
        self._active_by_src.pop(name, None)
        for key in [key for key in self._reply_handlers if key[0] == name]:
            owner = getattr(self._reply_handlers.pop(key)[1], "__self__", None)
            if isinstance(owner, _StatefulOperation):
                # A reply that will never come: a move awaiting it to start
                # its standby retry fails its handle instead of hanging.
                owner.instance_down(name, dead)
        self._outbox.pop(name, None)
        self._flush_scheduled.discard(name)
        self._last_seen.pop(name, None)
        if registration is not None:
            registration.agent.stop_heartbeats()
            registration.channel.unbind_controller()
            # Tear down the delivery direction too: control requests still in
            # flight towards the instance are discarded, not processed — an
            # unregistered instance must not install late chunks (re-creating
            # the round tags and holds the purge below removes).
            registration.channel.set_middlebox_down()
            registration.middlebox.purge_transfer_state()

    # -- liveness ---------------------------------------------------------------------

    def kill(self, name: str, *, declare: bool = True) -> bool:
        """Crash a middlebox instance: sever its channel as if the process died.

        In-flight deliveries to the instance are discarded, its heartbeats
        stop, and retransmissions towards it are abandoned.  With ``declare``
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
        registration.agent.stop_heartbeats()
        registration.channel.set_middlebox_down()
        self.stats.instances_killed += 1
        if declare or self.config.heartbeat_interval is None:
            self.declare_dead(name, reason="killed")
        return True

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
        """Declare dead every instance silent for longer than the timeout."""
        self._liveness_sweep_armed = False
        if self.config.heartbeat_interval is None:
            return
        deadline = self.sim.now - self.config.liveness_timeout
        for name in [name for name, seen in self._last_seen.items() if seen < deadline]:
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
        anything but a ``STATE_CHUNK`` — after which the entry is forgotten.
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

    def _receive(self, mb_name: str, message: Message) -> None:
        """Entry point for every message arriving from a middlebox."""
        self.stats.messages_received += 1
        if mb_name in self._last_seen:
            # Any received message proves liveness, not just heartbeats.
            self._last_seen[mb_name] = self.sim.now
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
            if message.type != MessageType.STATE_CHUNK:
                # Every reply but a chunk of a stream ends its request: forget
                # the handler with it, or a long-lived controller retains every
                # operation it ever ran (and a duplicated reply is handled twice).
                del self._reply_handlers[request]
            entry[1](message, *entry[2])

    def _handle_event(self, mb_name: str, event: Event, shard: ControllerShard) -> None:
        self.stats.events_received += 1
        shard.stats.events += 1
        if event.is_reprocess:
            # Deliver to the operations that broadcast interest in this
            # source onto the shard owning the event's flow.  With one shard
            # this is exactly the seed's every-operation-with-this-source
            # delivery; with several, an exact-pattern operation only sees
            # events its own shard owns.
            for operation in shard.operations_for(mb_name):
                operation.on_event(event)
        else:
            self.stats.introspection_events += 1
            for subscriber in self._event_subscribers:
                subscriber(event)

    def subscribe_events(self, callback: Callable[[Event], None]) -> None:
        """Register an application callback for introspection events."""
        self._event_subscribers.append(callback)

    def note_perflow_installed(self, dst_mb: str, keys: Iterable[FlowKey], *, operation=None) -> None:
        """Record that per-flow state for *keys* was installed (put ACKed) at *dst_mb*.

        Replays of an event are suppressed only while no install for the
        event's flow happened after the last replay; stamping installs here is
        what lets :meth:`forward_event` re-issue a replay whose effect a later
        chunk overwrote.
        """
        for key in keys:
            token = (dst_mb, key)
            self._installed_state[token] = next(self._transfer_seq)
            if operation is not None:
                operation._install_tokens.add(token)

    def forward_event(
        self,
        dst_mb: str,
        event: Event,
        on_reply: Optional[Callable[..., None]] = None,
        *args: object,
        shard: Optional[ControllerShard] = None,
    ) -> str:
        """Replay *event*'s packet at *dst_mb*, exactly once per state install.

        Returns ``"sent"`` when the re-process message was actually sent and
        ``"covered"`` when the event's update is already ensured at the
        destination by a previous replay (no message goes out and *on_reply*
        never runs).  The common case is one replay per (event, destination):
        concurrent operations sharing a destination (e.g. a move and a merge
        with the same source) do not double-replay.  The exception closes the
        cross-operation coordination bug: when a per-flow state chunk was
        installed *after* the event's last replay, that chunk overwrote the
        replayed update at the destination, so the replay is issued again —
        with the shared-state component stripped, because shared puts merge
        (instead of overwriting) and the earlier replay's shared update
        therefore survived.

        ``on_reply(reply, *args)`` routes the destination's ACK back to the
        caller (order-preserving transfers wait for replay ACKs before
        releasing a flow's packet hold).

        Raises:
            UnknownMiddleboxError: when *dst_mb* is not registered.
        """
        token = (event.event_id, dst_mb)
        last_replay = self._forwarded_events.get(token)
        shared_override: Optional[bool] = None
        if last_replay is not None:
            key = event.key.bidirectional() if event.key is not None else None
            installed = self._installed_state.get((dst_mb, key), 0) if key is not None else 0
            if last_replay >= installed:
                return "covered"  # nothing installed since the last replay: still applied
            if token in self._replays_in_flight:
                # The previous replay is still on the wire.  Any install whose
                # ACK we have seen was applied before it (ACKs share one FIFO
                # channel), so that chunk did NOT overwrite the replay — the
                # replay lands after it.  Re-issuing here would double-apply.
                return "covered"
            shared_override = False  # re-replay only the overwritten per-flow component
        seq = next(self._transfer_seq)
        self._forwarded_events[token] = seq
        self._replays_in_flight.add(token)
        replay = messages.reprocess_message(dst_mb, event, shared=shared_override)
        if not self.send(dst_mb, replay, self._on_replay_reply, token, seq, on_reply, args, shard=shard):
            self._registration(dst_mb)  # raises UnknownMiddleboxError
        return "sent"

    def _on_replay_reply(
        self, message: Message, token: Tuple[int, str], seq: int, on_reply: Optional[Callable[..., None]], args: tuple
    ) -> None:
        """Re-stamp a replay's dedup token on its ACK, then run the caller's ``on_reply(message, *args)``.

        ACKs travel back on the same FIFO channel the puts' ACKs use, so
        token order then mirrors the order the destination actually *applied*
        replay vs. chunk.  Without this, a replay sent in a put's send→ACK
        window (but applied after the chunk) would look older than the
        install and be re-issued — a double apply.
        """
        if self._forwarded_events.get(token) == seq:
            self._replays_in_flight.discard(token)
        if message.type == MessageType.ACK and self._forwarded_events.get(token) == seq:
            self._forwarded_events[token] = next(self._transfer_seq)
        if on_reply is not None:
            on_reply(message, *args)

    # -- simple northbound operations --------------------------------------------------------------------

    def _request(
        self, mb_name: str, message: Message, name: str, expect: str = MessageType.ACK, extract: str = ""
    ) -> Future:
        """Send *message* and return a future for its one reply.

        The future yields the reply's *extract* field (True when none is
        named) once a reply of type *expect* arrives, and fails with
        :class:`OperationError` on ERROR.
        """
        future = self.sim.event(name=name)

        def on_reply(reply: Message) -> None:
            kind, fields = messages.parse_reply(reply)
            if kind == expect:
                future.succeed(fields[extract] if extract else True)
            elif kind == MessageType.ERROR:
                future.fail(OperationError(fields["reason"] or f"{message.type} failed"))

        if not self.send(mb_name, message, on_reply):
            self._registration(mb_name)  # raises UnknownMiddleboxError
        return future

    def read_config(self, mb_name: str, key: str = "*") -> Future:
        """readConfig: fetch a middlebox's configuration subtree."""
        request = messages.get_config(mb_name, key)
        return self._request(mb_name, request, f"readConfig({mb_name},{key})", MessageType.CONFIG_VALUE, "values")

    def write_config(self, mb_name: str, key: str, values: list) -> Future:
        """writeConfig: set configuration values on a middlebox."""
        return self._request(mb_name, messages.set_config(mb_name, key, values), f"writeConfig({mb_name},{key})")

    def write_config_tree(self, mb_name: str, values: Dict[str, list]) -> Future:
        """writeConfig with a whole exported configuration tree (key ``"*"`` usage)."""
        futures = [self.write_config(mb_name, key, list(entry)) for key, entry in values.items()]
        return all_of(self.sim, futures)

    def query_stats(self, mb_name: str, pattern: Optional[FlowPattern] = None) -> Future:
        """stats: how much state matching *pattern* exists at a middlebox."""
        request = messages.get_stats(mb_name, pattern or FlowPattern.wildcard())
        return self._request(mb_name, request, f"stats({mb_name})", MessageType.STATS_REPLY, "stats")

    def enable_events(
        self,
        mb_name: str,
        code: str,
        pattern: Optional[FlowPattern] = None,
        until: Optional[float] = None,
    ) -> Future:
        """Enable introspection events with *code* at a middlebox."""
        request = messages.enable_events(mb_name, code, pattern, until)
        return self._request(mb_name, request, f"enableEvents({mb_name},{code})")

    def end_transfer(self, mb_name: str) -> Future:
        """Tell a middlebox that an in-progress clone/merge transfer is over.

        Clears the middlebox's transfer markers so it stops raising re-process
        events.  Control applications call this once the routing change (and
        any related configuration switch) has taken effect; the controller also
        sends it automatically after the quiescence timeout as a fallback.
        """
        return self._request(mb_name, messages.transfer_end(mb_name), f"endTransfer({mb_name})")

    def disable_events(self, mb_name: str, code: str, pattern: Optional[FlowPattern] = None) -> Future:
        """Disable introspection events with *code* at a middlebox."""
        request = messages.disable_events(mb_name, code, pattern)
        return self._request(mb_name, request, f"disableEvents({mb_name},{code})")

    # -- stateful northbound operations --------------------------------------------------------------------

    def move_internal(
        self,
        src: str,
        dst: str,
        pattern: FlowPattern,
        spec: Optional[TransferSpec] = None,
        *,
        standby: Optional[str] = None,
    ) -> OperationHandle:
        """moveInternal: move per-flow supporting and reporting state from src to dst.

        *spec* selects the transfer guarantee (no-guarantee / loss-free /
        order-preserving), the copy mode (single-pass snapshot or iterative
        pre-copy with bounded dirty-delta rounds), and pipeline optimizations
        (parallelism, batching, early release); None keeps the seed's
        loss-free snapshot pipelined default.

        *standby* names a registered fallback destination: when the primary
        destination dies (crash or unregister) mid-move, the move is retried
        from scratch against the standby instead of failing outright — the
        source's state is untouched by the failed attempt, so the retry is
        loss-free.  The returned handle then follows the retry.
        """
        self._registration(src)
        self._registration(dst)
        if standby is not None:
            self._registration(standby)
        return self.start_move(src, dst, pattern, spec, standby=standby)

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
        return self._start(MoveOperation, src, dst, pattern, spec, precopy_live=precopy_live, standby=standby, handle=handle)

    def clone_support(self, src: str, dst: str, spec: Optional[TransferSpec] = None) -> OperationHandle:
        """cloneSupport: clone shared supporting state from src to dst."""
        self._registration(src)
        self._registration(dst)
        return self._start(CloneOperation, src, dst, None, spec)

    def merge_internal(self, src: str, dst: str, spec: Optional[TransferSpec] = None) -> OperationHandle:
        """mergeInternal: merge shared supporting and reporting state of src into dst."""
        self._registration(src)
        self._registration(dst)
        return self._start(MergeOperation, src, dst, None, spec)

    def _start(self, kind: type, src: str, dst: str, pattern, spec, **extra) -> OperationHandle:
        """Build an operation with the values the controller fixes for it, then start it."""
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
            quiescence_timeout=self.config.quiescence_timeout,
            buffer_events=self.config.buffer_events,
            **extra,
        )
        self.stats.operations_started += 1
        self._active_by_src.setdefault(src, []).append(operation)
        # Broadcast the operation's event interest to every shard its pattern
        # could own flows on (one shard for an exact five-tuple, all shards
        # for wildcard/prefix patterns).
        self.coordinator.register_operation(operation)
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
        """Called by an operation when it has fully finalised (or failed)."""
        active = self._active_by_src.get(operation.src, [])
        if operation in active:
            active.remove(operation)
        self.coordinator.release_operation(operation)
        # Prune the operation's replay-dedup and install-sequence tokens so
        # _forwarded_events / _installed_state stay bounded.  A concurrent
        # operation with the same destination may still be holding the same
        # event in its buffer (it forwards only when its flow is ACKed), so
        # tokens for a destination another active operation targets are
        # inherited by that operation instead of being dropped — they are
        # pruned when it finishes.
        still_active = [op for ops in self._active_by_src.values() for op in ops]

        def heir_for(dst: str) -> Optional[_StatefulOperation]:
            return next((op for op in still_active if op.dst == dst), None)

        for token in operation._forward_tokens:
            heir = heir_for(token[1])
            if heir is not None:
                heir._forward_tokens.add(token)
            else:
                self._forwarded_events.pop(token, None)
        operation._forward_tokens.clear()
        for token in operation._install_tokens:
            heir = heir_for(token[0])
            if heir is not None:
                heir._install_tokens.add(token)
            else:
                self._installed_state.pop(token, None)
        operation._install_tokens.clear()
        self.stats.archive(operation.record)

    # -- convenience ---------------------------------------------------------------------------------------

    def active_operations(self) -> List[OperationRecord]:
        """Records of operations that have started but not yet finalised."""
        return [op.record for ops in self._active_by_src.values() for op in ops]

    def shard_summary(self) -> Dict[str, object]:
        """Per-shard load counters (messages, events, busy time, homed ops)."""
        return self.coordinator.summary()
