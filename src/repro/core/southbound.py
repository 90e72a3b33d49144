"""The MB-facing ("southbound") API.

Two pieces live here:

* :class:`MiddleboxInterface` — the abstract API every OpenMB-enabled
  middlebox implements (paper section 4): configuration get/set/del, per-flow
  and shared supporting/reporting state get/put/del, state statistics, event
  subscription management, transfer marking, and side-effect-free packet
  re-processing.
* :class:`SouthboundAgent` — the "common code base" the paper adds to each
  middlebox (~500 LOC in their prototype): it receives protocol messages from
  the controller over the middlebox's control channel, invokes the interface,
  models the middlebox-side processing cost of each operation on the simulated
  clock, streams per-flow chunks back one message at a time, sends ACKs, and
  forwards every event the middlebox raises to the controller.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, List, Optional

from ..net.packet import Packet
from ..net.simulator import Simulator
from . import messages
from .channel import ControlChannel
from .errors import GranularityError, MiddleboxError, OpenMBError, StateError
from .events import Event
from .flowspace import FlowPattern
from .messages import Message, MessageType
from .state import SharedChunk, StateChunk, StateRole


@dataclass
class ProcessingCosts:
    """Simulated middlebox-side costs of packet and API processing (seconds).

    Defaults are calibrated to give the *shapes* the paper reports: get time
    linear in the number of chunks and roughly 6x the cost of puts, per-packet
    latency rising by about 2 % while a get is being serviced, and per-chunk
    costs higher for middleboxes with deep per-flow state (the IDS) than for
    shallow ones (the passive monitor).
    """

    #: Per-packet processing time during normal operation.
    packet_processing: float = 200e-6
    #: Multiplier applied to packet processing while a get/put is in progress.
    transfer_slowdown: float = 1.02
    #: Fixed cost before the first chunk of a per-flow get is produced.
    get_base: float = 2e-3
    #: Cost per entry scanned during a per-flow get (the linear search).
    get_scan_per_entry: float = 1.5e-6
    #: Serialisation + send cost per exported per-flow chunk.
    get_per_chunk: float = 600e-6
    #: Cost to deserialise and install one per-flow chunk (≈ get/6 in the paper).
    put_per_chunk: float = 100e-6
    #: Cost to delete per-flow state matching a pattern (per chunk removed).
    del_per_chunk: float = 10e-6
    #: Fixed cost for exporting shared state plus per-byte serialisation cost.
    shared_get_base: float = 1e-3
    shared_get_per_byte: float = 65e-9
    #: Fixed cost for importing (or merging) shared state plus per-byte cost.
    shared_put_base: float = 1e-3
    shared_put_per_byte: float = 30e-9
    #: Cost of configuration operations and other small control actions.
    config_op: float = 500e-6
    #: Cost for re-processing a replayed packet (no external side effects).
    reprocess_packet: float = 150e-6


class MiddleboxInterface(abc.ABC):
    """Abstract southbound API implemented by every OpenMB-enabled middlebox."""

    name: str
    mb_type: str
    costs: ProcessingCosts

    # -- configuration state (section 4.1.1) ------------------------------------

    @abc.abstractmethod
    def get_config(self, key: str) -> dict:
        """Return the configuration subtree under *key* as a flat mapping."""

    @abc.abstractmethod
    def set_config(self, key: str, values: list) -> None:
        """Set the ordered values stored under *key*."""

    @abc.abstractmethod
    def del_config(self, key: str) -> None:
        """Delete *key* and its subtree."""

    # -- per-flow state (sections 4.1.2-4.1.3) ------------------------------------

    @abc.abstractmethod
    def iter_perflow(
        self,
        role: StateRole,
        pattern: FlowPattern,
        *,
        mark_transfer: bool = False,
        track_dirty: bool = False,
        compress: Optional[bool] = None,
    ) -> Iterator[StateChunk]:
        """Stream sealed per-flow chunks of the given role matching *pattern*.

        The southbound agent pumps this iterator in bounded batches so a
        million-flow export never resides in memory at once; callers that want
        the whole export take ``list(...)`` of it.  ``mark_transfer`` flags the
        exported flows so later packets touching them raise re-process events;
        ``track_dirty`` instead arms dirty-key tracking at the snapshot instant
        (the pre-copy bulk round), leaving the flows un-frozen; ``compress``
        overrides the payload-compression default for this export.  Setup side
        effects (arming tracking, marking) must happen at the *call*, not at
        the first pull: implement this as an eager-setup generator.
        """

    @abc.abstractmethod
    def iter_perflow_dirty(
        self,
        role: StateRole,
        pattern: FlowPattern,
        *,
        mark_transfer: bool = False,
        compress: Optional[bool] = None,
    ) -> Iterator[StateChunk]:
        """Stream chunks for flows dirtied since the last drain (pre-copy round).

        ``mark_transfer`` makes this the final stop-and-copy round: every flow
        matching *pattern* is flagged for re-process events and dirty tracking
        stops — at the call, like :meth:`iter_perflow`'s setup.
        """

    def dirty_perflow_count(self, role: StateRole, pattern: Optional[FlowPattern] = None) -> int:
        """Number of flows currently dirty in the store of the given role.

        With *pattern* the count covers matching flows only (the convergence
        signal for pattern-restricted pre-copy moves).
        """
        return 0

    @abc.abstractmethod
    def put_perflow(self, chunk: StateChunk, *, round: Optional[tuple] = None) -> None:
        """Import one sealed per-flow chunk.

        ``round`` is the pre-copy round tag; an implementation must drop the
        chunk when a newer round already installed state for its flow.
        """

    @abc.abstractmethod
    def del_perflow(self, role: StateRole, pattern: FlowPattern) -> int:
        """Delete per-flow state of the given role matching *pattern*; returns count."""

    # -- shared state ---------------------------------------------------------------

    @abc.abstractmethod
    def get_shared(self, role: StateRole, *, mark_transfer: bool = False) -> Optional[SharedChunk]:
        """Export the sealed shared state of the given role (None when the MB has none)."""

    @abc.abstractmethod
    def put_shared(self, chunk: SharedChunk) -> None:
        """Import shared state, merging with any existing shared state."""

    # -- statistics, events, transfers ----------------------------------------------

    @abc.abstractmethod
    def state_stats(self, pattern: FlowPattern) -> dict:
        """Counts and sizes of state matching *pattern* (the ``stats`` call)."""

    @abc.abstractmethod
    def enable_events(self, code: str, pattern: Optional[FlowPattern] = None, until: Optional[float] = None) -> None:
        """Enable generation of introspection events with *code*."""

    @abc.abstractmethod
    def disable_events(self, code: str, pattern: Optional[FlowPattern] = None) -> None:
        """Disable generation of introspection events with *code*."""

    @abc.abstractmethod
    def end_transfer(self) -> None:
        """Clear transfer markers set by get operations (clone/merge completion)."""

    def end_dirty_tracking(self) -> None:
        """Stop pre-copy dirty tracking without touching transfer markers.

        The scoped cleanup a failed pre-copy move owes its source.  Default:
        no-op, for middleboxes without per-flow stores.
        """

    def end_shared_transfer(self) -> None:
        """Clear only the shared-transfer flag (a clone/merge finalizing).

        Per-flow transfer markers — owned by moves — survive.  The default
        falls back to the whole-middlebox reset for implementations that
        predate the scoped variant.
        """
        self.end_transfer()

    def hold_flows(self, keys: List) -> None:
        """Queue fresh packets for *keys* until :meth:`release_flows` is called.

        Used by order-preserving transfers: the destination must not process
        live packets for a moved flow until the controller has replayed the
        flow's buffered events in order.  The default is a no-op so that
        middleboxes without a data plane still accept order-preserving puts.
        """

    def release_flows(self, keys: List) -> None:
        """End per-flow transfer involvement for *keys* (TRANSFER_RELEASE).

        Lifts any packet hold installed by :meth:`hold_flows` (queued packets
        are processed in arrival order) and clears the flows' transfer markers
        so they stop raising re-process events.  Default: no-op.
        """

    def purge_transfer_state(self) -> int:
        """Drop all transfer involvement locally (crash/teardown cleanup).

        The controller calls this when the instance is unregistered or
        declared dead mid-operation: holds, queued packets, install-round
        tags, dirty tracking, and transfer markers must not outlive the
        operations that owned them.  Returns the number of queued packets
        discarded; the default (for middleboxes without a data plane) is a
        no-op.
        """
        return 0

    @abc.abstractmethod
    def reprocess(self, packet: Packet, *, shared: bool) -> None:
        """Re-process a replayed packet to update state, suppressing side effects."""

    @abc.abstractmethod
    def perflow_count(self, role: StateRole) -> int:
        """Number of per-flow state entries of the given role (for scan-cost modelling)."""

    @abc.abstractmethod
    def set_event_sink(self, sink: Callable[[Event], None]) -> None:
        """Register where raised events are delivered (the southbound agent)."""


@dataclass
class AgentStats:
    """Counters kept by a southbound agent."""

    requests_handled: int = 0
    chunks_sent: int = 0
    chunks_received: int = 0
    events_sent: int = 0
    errors_sent: int = 0
    gets_in_progress: int = 0


class SouthboundAgent:
    """Message-level adapter between one middlebox and its control channel."""

    def __init__(self, sim: Simulator, middlebox: MiddleboxInterface, channel: ControlChannel) -> None:
        self.sim = sim
        self.middlebox = middlebox
        self.channel = channel
        self.stats = AgentStats()
        # The middlebox handles state-import work sequentially (a single control
        # thread in the paper's prototype), so puts queue behind one another:
        # one runtime lane serialises them.
        self._import = sim.lane(f"import:{middlebox.name}")
        #: Liveness beacon period; None (the default) sends no heartbeats, so
        #: the seed's event schedule is untouched unless liveness is enabled.
        self._heartbeat_interval: Optional[float] = None
        channel.bind_middlebox(self.handle_message)
        middlebox.set_event_sink(self.send_event)

    # -- liveness ----------------------------------------------------------------------

    def start_heartbeats(self, interval: float) -> None:
        """Begin sending periodic HEARTBEAT beacons to the controller.

        The loop stops by itself when the instance crashes or is unregistered,
        so a dead agent cannot keep the simulator's event queue alive.
        """
        if self._heartbeat_interval is not None:
            self._heartbeat_interval = interval
            return
        self._heartbeat_interval = interval
        self.sim.schedule(interval, self._heartbeat_tick)

    def stop_heartbeats(self) -> None:
        """Stop the heartbeat loop (instance terminated or crashed)."""
        self._heartbeat_interval = None

    def _heartbeat_tick(self) -> None:
        """Send one beacon and reschedule, unless the agent is dead/detached."""
        if self._heartbeat_interval is None:
            return
        if self.channel.middlebox_down or self.channel.controller_detached:
            self._heartbeat_interval = None
            return
        self.channel.send_to_controller(messages.heartbeat(self.middlebox.name))
        self.sim.schedule(self._heartbeat_interval, self._heartbeat_tick)

    # -- middlebox -> controller -------------------------------------------------------

    def send_event(self, event: Event) -> None:
        """Forward an event raised by the middlebox to the controller."""
        self.stats.events_sent += 1
        self.channel.send_to_controller(messages.event_message(event))

    def _send(self, message: Message) -> None:
        self.channel.send_to_controller(message)

    def _ack(self, request: Message, body: Optional[dict] = None) -> None:
        self._send(Message(MessageType.ACK, reply_to=request.xid, mb=self.middlebox.name, body=body or {}))

    def _error(self, request: Message, reason: str) -> None:
        self.stats.errors_sent += 1
        self._send(Message(MessageType.ERROR, reply_to=request.xid, mb=self.middlebox.name, body={"reason": reason}))

    # -- controller -> middlebox -------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        """Dispatch one request from the controller.

        A BATCH frame is pure framing: it is not counted as a request itself
        (its inner messages are, as they re-enter here), so
        ``requests_handled`` equals the logical request count whether or not
        the controller coalesced the wire.
        """
        if message.type != MessageType.BATCH:
            self.stats.requests_handled += 1
        handler = {
            MessageType.BATCH: self._handle_batch,
            MessageType.GET_CONFIG: self._handle_get_config,
            MessageType.SET_CONFIG: self._handle_set_config,
            MessageType.DEL_CONFIG: self._handle_del_config,
            MessageType.GET_PERFLOW: self._handle_get_perflow,
            MessageType.GET_PERFLOW_DELTA: self._handle_get_perflow_delta,
            MessageType.PUT_PERFLOW: self._handle_put_perflow,
            MessageType.PUT_PERFLOW_BATCH: self._handle_put_perflow_batch,
            MessageType.DEL_PERFLOW: self._handle_del_perflow,
            MessageType.TRANSFER_HOLD: self._handle_transfer_hold,
            MessageType.TRANSFER_RELEASE: self._handle_transfer_release,
            MessageType.GET_SHARED: self._handle_get_shared,
            MessageType.PUT_SHARED: self._handle_put_shared,
            MessageType.GET_STATS: self._handle_get_stats,
            MessageType.ENABLE_EVENTS: self._handle_enable_events,
            MessageType.DISABLE_EVENTS: self._handle_disable_events,
            MessageType.TRANSFER_END: self._handle_transfer_end,
            MessageType.REPROCESS_PACKET: self._handle_reprocess,
        }.get(message.type)
        if handler is None:
            self._error(message, f"unsupported message type {message.type!r}")
            return
        try:
            handler(message)
        except (StateError, GranularityError, MiddleboxError) as exc:
            self._error(message, str(exc))

    def _handle_batch(self, message: Message) -> None:
        """Unframe a BATCH and dispatch its inner requests in order.

        Each inner message runs through the normal handler table, so costs,
        ACKs, and error replies are identical to the unbatched case — the
        batch only saved the channel round-trips.
        """
        for inner in messages.decode_batch(message):
            self.handle_message(inner)

    # configuration ---------------------------------------------------------------------

    def _handle_get_config(self, message: Message) -> None:
        def respond() -> None:
            try:
                values = self.middlebox.get_config(message.body.get("key", "*"))
            except Exception as exc:  # config errors become protocol errors
                self._error(message, str(exc))
                return
            self._send(
                Message(
                    MessageType.CONFIG_VALUE,
                    reply_to=message.xid,
                    mb=self.middlebox.name,
                    body={"values": values},
                )
            )

        self.sim.schedule(self.middlebox.costs.config_op, respond)

    def _handle_set_config(self, message: Message) -> None:
        def respond() -> None:
            try:
                self.middlebox.set_config(message.body["key"], list(message.body.get("values", [])))
            except Exception as exc:
                self._error(message, str(exc))
                return
            self._ack(message)

        self.sim.schedule(self.middlebox.costs.config_op, respond)

    def _handle_del_config(self, message: Message) -> None:
        def respond() -> None:
            try:
                self.middlebox.del_config(message.body["key"])
            except Exception as exc:
                self._error(message, str(exc))
                return
            self._ack(message)

        self.sim.schedule(self.middlebox.costs.config_op, respond)

    # per-flow state ----------------------------------------------------------------------

    def _handle_get_perflow(self, message: Message) -> None:
        role = StateRole(message.body["role"])
        pattern = FlowPattern.parse(message.body.get("pattern"))
        mark_transfer = bool(message.body.get("transfer", False))
        track_dirty = bool(message.body.get("track_dirty", False))
        compress = True if message.body.get("compress") else None
        costs = self.middlebox.costs
        scan_cost = costs.get_base + costs.get_scan_per_entry * self.middlebox.perflow_count(role)
        self.stats.gets_in_progress += 1

        def run_get() -> None:
            try:
                chunks = self.middlebox.iter_perflow(
                    role,
                    pattern,
                    mark_transfer=mark_transfer,
                    track_dirty=track_dirty,
                    compress=compress,
                )
            except OpenMBError as exc:
                self.stats.gets_in_progress -= 1
                self._error(message, str(exc))
                return
            self._pump_chunks(message, role, chunks, pattern if track_dirty else None)

        self.sim.schedule(scan_cost, run_get)

    def _handle_get_perflow_delta(self, message: Message) -> None:
        """One pre-copy round: stream the dirtied chunks, report residual dirt.

        ``final`` requests the stop-and-copy round (mark-transfer the pattern,
        stop tracking).  The GET_COMPLETE reply always carries the dirty count
        *at completion time* — dirt that accumulated while this round was
        being exported — which is what the controller compares against the
        spec's ``dirty_threshold``.

        Unlike the bulk get, the pre-scan cost here is charged per *dirty*
        entry, not per stored entry: the sharded store tracks dirty keys
        explicitly, so a delta round over a million-flow store costs
        O(dirtied) — that is what keeps the stop-and-copy freeze window flat
        as the store scales.
        """
        role = StateRole(message.body["role"])
        pattern = FlowPattern.parse(message.body.get("pattern"))
        final = bool(message.body.get("final", False))
        compress = True if message.body.get("compress") else None
        costs = self.middlebox.costs
        scan_cost = costs.get_base + costs.get_scan_per_entry * self.middlebox.dirty_perflow_count(
            role, pattern
        )
        self.stats.gets_in_progress += 1

        def run_get() -> None:
            try:
                chunks = self.middlebox.iter_perflow_dirty(
                    role, pattern, mark_transfer=final, compress=compress
                )
            except OpenMBError as exc:
                self.stats.gets_in_progress -= 1
                self._error(message, str(exc))
                return
            self._pump_chunks(message, role, chunks, pattern)

        self.sim.schedule(scan_cost, run_get)

    #: Chunks drawn from a middlebox export iterator per pump step.  Bounds the
    #: agent's resident set during a get to one batch of sealed chunks, however
    #: large the matching flow set is.
    GET_STREAM_BATCH = 256

    def _pump_chunks(
        self,
        message: Message,
        role: StateRole,
        chunks: Iterator[StateChunk],
        dirty_pattern: Optional[FlowPattern],
        sent: int = 0,
    ) -> None:
        """Stream an export iterator in bounded batches.

        Draws up to :data:`GET_STREAM_BATCH` chunks, schedules each one chunk
        per message spaced by the per-chunk serialisation cost, and re-arms
        itself after the batch's worth of cost.  The resulting wire schedule is
        identical to materialising the whole list up front — chunk *j* still
        leaves at ``t0 + (j + 1) * get_per_chunk`` and GET_COMPLETE at
        ``t0 + n * get_per_chunk`` — but peak memory is O(batch), not O(flows).
        """
        costs = self.middlebox.costs
        try:
            batch = list(islice(chunks, self.GET_STREAM_BATCH))
        except OpenMBError as exc:
            self.stats.gets_in_progress -= 1
            self._error(message, str(exc))
            return
        for index, chunk in enumerate(batch):
            self.sim.schedule(costs.get_per_chunk * (index + 1), self._send_chunk, message, chunk)
        sent += len(batch)
        if len(batch) == self.GET_STREAM_BATCH:
            self.sim.schedule(
                costs.get_per_chunk * len(batch),
                self._pump_chunks,
                message,
                role,
                chunks,
                dirty_pattern,
                sent,
            )
            return
        self.sim.schedule(
            costs.get_per_chunk * len(batch),
            self._send_get_complete,
            message,
            role,
            sent,
            dirty_pattern,
        )

    def _send_chunk(self, request: Message, chunk: StateChunk) -> None:
        self.stats.chunks_sent += 1
        reply = messages.Message(
            MessageType.STATE_CHUNK,
            reply_to=request.xid,
            mb=self.middlebox.name,
            body={"chunk": messages.encode_chunk(chunk)},
        )
        self._send(reply)

    def _send_get_complete(
        self, request: Message, role: StateRole, count: int, dirty_pattern: Optional[FlowPattern] = None
    ) -> None:
        self.stats.gets_in_progress -= 1
        body = {"role": role.value, "count": count}
        if dirty_pattern is not None:
            # Dirt that accumulated while the chunks were being exported —
            # restricted to the transfer's pattern — is the controller's
            # signal for whether another pre-copy round pays off.
            body["dirty"] = self.middlebox.dirty_perflow_count(role, dirty_pattern)
        self._send(
            Message(
                MessageType.GET_COMPLETE,
                reply_to=request.xid,
                mb=self.middlebox.name,
                body=body,
            )
        )

    @staticmethod
    def _round_tag(message: Message) -> Optional[tuple]:
        """Decode a put's pre-copy round tag (None for snapshot puts)."""
        raw = message.body.get("round")
        return tuple(raw) if raw is not None else None

    def _handle_put_perflow(self, message: Message) -> None:
        chunk = messages.decode_chunk(message.body["chunk"])
        hold = bool(message.body.get("hold", False))
        round_tag = self._round_tag(message)

        def respond() -> None:
            try:
                self.middlebox.put_perflow(chunk, round=round_tag)
            except OpenMBError as exc:
                self._error(message, str(exc))
                return
            if hold:
                self.middlebox.hold_flows([chunk.key])
            self.stats.chunks_received += 1
            self._ack(message, {"key": chunk.key.as_dict(), "role": chunk.role.value})

        self._import.submit(self.middlebox.costs.put_per_chunk, respond)

    def _handle_put_perflow_batch(self, message: Message) -> None:
        chunks = [messages.decode_chunk(body) for body in message.body.get("chunks", [])]
        hold = bool(message.body.get("hold", False))
        round_tag = self._round_tag(message)

        def respond() -> None:
            installed = 0
            try:
                for chunk in chunks:
                    self.middlebox.put_perflow(chunk, round=round_tag)
                    installed += 1
            except OpenMBError as exc:
                self.stats.chunks_received += installed
                self._error(message, str(exc))
                return
            if hold:
                self.middlebox.hold_flows([chunk.key for chunk in chunks])
            self.stats.chunks_received += len(chunks)
            self._ack(message, {"count": len(chunks)})

        # Importing a batch occupies the single import thread for the sum of the
        # per-chunk costs, but produces a single ACK.
        self._import.submit(self.middlebox.costs.put_per_chunk * max(1, len(chunks)), respond)

    def _handle_del_perflow(self, message: Message) -> None:
        role = StateRole(message.body["role"])
        pattern = FlowPattern.parse(message.body.get("pattern"))

        def respond() -> None:
            try:
                removed = self.middlebox.del_perflow(role, pattern)
            except OpenMBError as exc:
                self._error(message, str(exc))
                return
            self._ack(message, {"removed": removed})

        # Model the deletion cost as proportional to the number of entries scanned.
        cost = self.middlebox.costs.del_per_chunk * max(1, self.middlebox.perflow_count(role))
        self.sim.schedule(cost, respond)

    # shared state --------------------------------------------------------------------------

    def _handle_get_shared(self, message: Message) -> None:
        role = StateRole(message.body["role"])
        mark_transfer = bool(message.body.get("transfer", False))
        costs = self.middlebox.costs

        def respond() -> None:
            chunk = self.middlebox.get_shared(role, mark_transfer=mark_transfer)
            if chunk is None:
                self._send(
                    Message(
                        MessageType.GET_COMPLETE,
                        reply_to=message.xid,
                        mb=self.middlebox.name,
                        body={"role": role.value, "count": 0},
                    )
                )
                return
            delay = costs.shared_get_per_byte * chunk.size
            self.sim.schedule(
                delay,
                self._send,
                Message(
                    MessageType.SHARED_STATE,
                    reply_to=message.xid,
                    mb=self.middlebox.name,
                    body={"chunk": messages.encode_shared_chunk(chunk)},
                ),
            )

        self.sim.schedule(costs.shared_get_base, respond)

    def _handle_put_shared(self, message: Message) -> None:
        chunk = messages.decode_shared_chunk(message.body["chunk"])
        costs = self.middlebox.costs
        delay = costs.shared_put_base + costs.shared_put_per_byte * chunk.size

        def respond() -> None:
            try:
                self.middlebox.put_shared(chunk)
            except OpenMBError as exc:
                self._error(message, str(exc))
                return
            self._ack(message, {"role": chunk.role.value})

        self.sim.schedule(delay, respond)

    # statistics, events, transfers -------------------------------------------------------------

    def _handle_get_stats(self, message: Message) -> None:
        pattern = FlowPattern.parse(message.body.get("pattern"))

        def respond() -> None:
            try:
                stats = self.middlebox.state_stats(pattern)
            except OpenMBError as exc:
                self._error(message, str(exc))
                return
            self._send(
                Message(
                    MessageType.STATS_REPLY,
                    reply_to=message.xid,
                    mb=self.middlebox.name,
                    body={"stats": stats},
                )
            )

        self.sim.schedule(self.middlebox.costs.config_op, respond)

    def _handle_enable_events(self, message: Message) -> None:
        pattern = FlowPattern.parse(message.body.get("pattern")) if "pattern" in message.body else None
        self.middlebox.enable_events(message.body["code"], pattern, message.body.get("until"))
        self._ack(message)

    def _handle_disable_events(self, message: Message) -> None:
        pattern = FlowPattern.parse(message.body.get("pattern")) if "pattern" in message.body else None
        self.middlebox.disable_events(message.body["code"], pattern)
        self._ack(message)

    def _handle_transfer_end(self, message: Message) -> None:
        if message.body.get("dirty_only", False):
            # Scoped pre-copy cleanup: stop dirty tracking, leave transfer
            # markers owned by concurrent operations untouched.
            self.middlebox.end_dirty_tracking()
        elif message.body.get("shared_only", False):
            # A finalizing clone/merge only ever armed the shared flag; it
            # must not clear per-flow markers owned by a concurrent move.
            self.middlebox.end_shared_transfer()
        else:
            self.middlebox.end_transfer()
        self._ack(message)

    def _handle_transfer_hold(self, message: Message) -> None:
        from .flowspace import FlowKey

        keys = [FlowKey.from_dict(body) for body in message.body.get("keys", [])]
        self.middlebox.hold_flows(keys)
        self._ack(message, {"count": len(keys)})

    def _handle_transfer_release(self, message: Message) -> None:
        from .flowspace import FlowKey

        keys = [FlowKey.from_dict(body) for body in message.body.get("keys", [])]
        self.middlebox.release_flows(keys)
        self._ack(message, {"count": len(keys)})

    def _handle_reprocess(self, message: Message) -> None:
        packet = messages.decode_packet(message.body["packet"]) if "packet" in message.body else None
        shared = bool(message.body.get("shared", False))

        def respond() -> None:
            if packet is not None:
                self.middlebox.reprocess(packet, shared=shared)
            self._ack(message)

        self.sim.schedule(self.middlebox.costs.reprocess_packet, respond)
