"""The MB-facing ("southbound") API.

The API every OpenMB-enabled middlebox implements (paper section 4) is the
public method set of :class:`~repro.middleboxes.base.Middlebox`. This module
holds what sits between it and the controller:

* :class:`ProcessingCosts` — the simulated middlebox-side cost of each call;
* :class:`SouthboundAgent` — the "common code base" the paper adds to each
  middlebox (~500 LOC in their prototype): it receives protocol messages from
  the controller over the middlebox's control channel, invokes the middlebox,
  models the middlebox-side processing cost of each operation on the simulated
  clock, streams per-flow chunks back one message at a time, sends ACKs, and
  forwards every event the middlebox raises to the controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count, islice
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional

from ..net.packet import Packet
from ..net.simulator import Simulator
from . import messages
from .channel import ControlChannel
from .errors import ConfigError, OpenMBError, ProtocolError
from .events import Event
from .flowspace import FlowKey, FlowPattern
from .messages import Message, MessageType
from .state import StateChunk, StateRole

if TYPE_CHECKING:  # pragma: no cover - middleboxes import core, not the reverse
    from ..middleboxes.base import Middlebox


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


#: Returned by a request's work when it schedules its own reply (a chunk
#: stream, a serialisation delay) instead of handing one back.
_STREAMED = object()


@dataclass
class AgentStats:
    """Counters kept by a southbound agent."""

    requests_handled: int = 0
    chunks_sent: int = 0
    chunks_received: int = 0
    events_sent: int = 0
    errors_sent: int = 0


class SouthboundAgent:
    """Message-level adapter between one middlebox and its control channel."""

    def __init__(self, sim: Simulator, middlebox: Middlebox, channel: ControlChannel) -> None:
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
        self._xids = count(1)  # of every message this agent sends
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
        self._send(messages.heartbeat(self.middlebox.name))
        self.sim.schedule(self._heartbeat_interval, self._heartbeat_tick)

    # -- middlebox -> controller -------------------------------------------------------

    def send_event(self, event: Event) -> None:
        """Forward an event raised by the middlebox to the controller."""
        self.stats.events_sent += 1
        self._send(messages.event_message(event))

    def _send(self, message: Message) -> None:
        message.xid = next(self._xids)
        self.channel.send_to_controller(message)

    def _error(self, request: Message, reason: str) -> None:
        self.stats.errors_sent += 1
        self._send(messages.error(self.middlebox.name, request.xid, reason))

    # -- controller -> middlebox: the serve skeleton -----------------------------------------

    def handle_message(self, message: Message) -> None:
        """Serve one request from the controller.

        A BATCH frame is pure framing: it is not counted as a request itself
        (its inner messages are, as they re-enter here), so
        ``requests_handled`` equals the logical request count whether or not
        the controller coalesced the wire.
        """
        if message.type != MessageType.BATCH:
            self.stats.requests_handled += 1
        self._respond(message, self._accept, (message,))

    def _accept(self, request: Message) -> object:
        """Parse *request* and hand its typed fields to the handler for its type."""
        handler = self._HANDLERS.get(request.type)
        if handler is None:
            raise ProtocolError(f"unsupported message type {request.type!r}")
        handler(self, request, **messages.parse(request))
        return _STREAMED

    def _serve(self, request: Message, cost: Optional[float], work: Callable, *args: object, lane=None) -> None:
        """Charge *cost*, then answer *request* with the outcome of ``work(*args)``.

        The cost is a plain delay, or serialised time on *lane*; None runs the
        work at once.
        """
        if cost is None:
            self._respond(request, work, args)
        elif lane is None:
            self.sim.schedule(cost, self._respond, request, work, args)
        else:
            lane.submit(cost, self._respond, request, work, args)

    def _respond(self, request: Message, work: Callable, args: tuple) -> None:
        """The one reply policy: the Message the work returns, otherwise an empty ACK — or one ERROR.

        A middlebox call's own result is not a reply.  A malformed request
        (``ProtocolError``) and a middlebox refusal (any other
        ``OpenMBError``) both end here.
        """
        try:
            reply = work(*args)
        except OpenMBError as exc:
            self._error(request, str(exc))
            return
        if reply is not _STREAMED:
            self._send(reply if isinstance(reply, Message) else messages.ack(self.middlebox.name, request.xid))

    def _batch(self, request: Message, frames: List[Message]) -> None:
        """Unframe a BATCH and serve its inner requests in order.

        Each inner message runs through the normal skeleton, so costs, ACKs,
        and error replies are identical to the unbatched case — the batch
        only saved the channel round-trips.
        """
        for inner in frames:
            self.handle_message(inner)

    # configuration ---------------------------------------------------------------------

    def _config(self, call: Callable, *args: object) -> object:
        """Run a configuration call; whatever it raises is a refusal.

        Configuration hooks interpret operator-supplied values (``int(None)``,
        ``values[0]`` of an empty list), so any exception means a bad value.
        """
        try:
            return call(*args)
        except Exception as exc:  # config errors become protocol errors
            raise ConfigError(str(exc)) from exc

    def _get_config(self, request: Message, key: str) -> None:
        reply = lambda: messages.config_value(
            self.middlebox.name, request.xid, self._config(self.middlebox.get_config, key)
        )
        self._serve(request, self.middlebox.costs.config_op, reply)

    def _set_config(self, request: Message, key: str, values: list) -> None:
        self._serve(request, self.middlebox.costs.config_op, self._config, self.middlebox.set_config, key, values)

    def _del_config(self, request: Message, key: str) -> None:
        self._serve(request, self.middlebox.costs.config_op, self._config, self.middlebox.del_config, key)

    # per-flow state ----------------------------------------------------------------------

    def _get_perflow(
        self, request: Message, role: StateRole, pattern: FlowPattern, transfer: bool, track_dirty: bool, compress: bool
    ) -> None:
        export = partial(
            self.middlebox.iter_perflow,
            role,
            pattern,
            mark_transfer=transfer,
            track_dirty=track_dirty,
            compress=compress or None,
        )
        self._serve_get(request, role, self.middlebox.perflow_count(role), export, pattern if track_dirty else None)

    def _get_perflow_delta(
        self,
        request: Message,
        role: StateRole,
        pattern: FlowPattern,
        final: bool,
        compress: bool,
    ) -> None:
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
        export = partial(
            self.middlebox.iter_perflow_dirty, role, pattern, mark_transfer=final, compress=compress or None
        )
        self._serve_get(request, role, self.middlebox.dirty_perflow_count(role, pattern), export, pattern)

    def _serve_get(
        self, request: Message, role: StateRole, scanned: int, export: Callable, dirty_pattern: Optional[FlowPattern]
    ) -> None:
        """Charge the pre-scan over *scanned* entries, then open *export* and stream it."""
        costs = self.middlebox.costs
        scan_cost = costs.get_base + costs.get_scan_per_entry * scanned
        self._serve(request, scan_cost, lambda: self._pump_chunks(request, role, export(), dirty_pattern))

    #: Chunks drawn from a middlebox export iterator per pump step.  Bounds the
    #: agent's resident set during a get to one batch of sealed chunks, however
    #: large the matching flow set is.
    GET_STREAM_BATCH = 256

    def _pump_chunks(
        self,
        request: Message,
        role: StateRole,
        chunks: Iterator[StateChunk],
        dirty_pattern: Optional[FlowPattern],
    ) -> object:
        """Stream an export iterator in bounded batches.

        Draws up to :data:`GET_STREAM_BATCH` chunks, schedules each one chunk
        per message spaced by the per-chunk serialisation cost, and re-arms
        itself after the batch's worth of cost.  The resulting wire schedule is
        identical to materialising the whole list up front — chunk *j* still
        leaves at ``t0 + (j + 1) * get_per_chunk`` and GET_COMPLETE at
        ``t0 + n * get_per_chunk`` — but peak memory is O(batch), not O(flows).
        A step the middlebox fails ends the get with one ERROR.
        """
        costs = self.middlebox.costs
        batch = list(islice(chunks, self.GET_STREAM_BATCH))
        for index, chunk in enumerate(batch):
            self.sim.schedule(costs.get_per_chunk * (index + 1), self._send_chunk, request, chunk)
        if len(batch) == self.GET_STREAM_BATCH:
            step = (request, role, chunks, dirty_pattern)
            self.sim.schedule(costs.get_per_chunk * len(batch), self._respond, request, self._pump_chunks, step)
        else:
            self.sim.schedule(costs.get_per_chunk * len(batch), self._send_get_complete, request, role, dirty_pattern)
        return _STREAMED

    def _send_chunk(self, request: Message, chunk: StateChunk) -> None:
        self.stats.chunks_sent += 1
        self._send(messages.state_chunk(self.middlebox.name, request.xid, chunk))

    def _send_get_complete(self, request: Message, role: StateRole, dirty_pattern: Optional[FlowPattern]) -> None:
        # Dirt that accumulated while the chunks were being exported —
        # restricted to the transfer's pattern — is the controller's signal
        # for whether another pre-copy round pays off.
        dirty = None if dirty_pattern is None else self.middlebox.dirty_perflow_count(role, dirty_pattern)
        self._send(messages.get_complete(self.middlebox.name, request.xid, role, dirty))

    def _put_perflow(self, request: Message, chunk: StateChunk, hold: bool, round: Optional[tuple]) -> None:
        self._serve(request, self.middlebox.costs.put_per_chunk, self._install, [chunk], hold, round, lane=self._import)

    def _put_perflow_batch(self, request: Message, chunks: List[StateChunk], hold: bool, round: Optional[tuple]) -> None:
        # Importing a batch occupies the single import thread for the sum of the
        # per-chunk costs, but produces a single ACK.
        cost = self.middlebox.costs.put_per_chunk * max(1, len(chunks))
        self._serve(request, cost, self._install, chunks, hold, round, lane=self._import)

    def _install(self, chunks: List[StateChunk], hold: bool, round: Optional[tuple]) -> None:
        """Import *chunks* in order, counting each one that made it, then hold their flows."""
        for chunk in chunks:
            self.middlebox.put_perflow(chunk, round=round)
            self.stats.chunks_received += 1
        if hold:
            self.middlebox.hold_flows([chunk.key for chunk in chunks])

    def _del_perflow(self, request: Message, role: StateRole, pattern: FlowPattern) -> None:
        # Model the deletion cost as proportional to the number of entries scanned.
        cost = self.middlebox.costs.del_per_chunk * max(1, self.middlebox.perflow_count(role))
        removed = lambda: messages.ack(self.middlebox.name, request.xid, removed=self.middlebox.del_perflow(role, pattern))
        self._serve(request, cost, removed)

    # shared state --------------------------------------------------------------------------

    def _get_shared(self, request: Message, role: StateRole, transfer: bool) -> None:
        self._serve(request, self.middlebox.costs.shared_get_base, self._export_shared, request, role, transfer)

    def _export_shared(self, request: Message, role: StateRole, transfer: bool) -> object:
        chunk = self.middlebox.get_shared(role, mark_transfer=transfer)
        if chunk is None:
            return messages.get_complete(self.middlebox.name, request.xid, role)
        reply = messages.shared_state(self.middlebox.name, request.xid, chunk)
        self.sim.schedule(self.middlebox.costs.shared_get_per_byte * chunk.size, self._send, reply)
        return _STREAMED

    def _put_shared(self, request: Message, chunk: StateChunk) -> None:
        costs = self.middlebox.costs
        delay = costs.shared_put_base + costs.shared_put_per_byte * chunk.size
        self._serve(request, delay, self.middlebox.put_shared, chunk)

    # statistics, events, transfers -------------------------------------------------------------

    def _get_stats(self, request: Message, pattern: FlowPattern) -> None:
        reply = lambda: messages.stats_reply(self.middlebox.name, request.xid, self.middlebox.state_stats(pattern))
        self._serve(request, self.middlebox.costs.config_op, reply)

    def _enable_events(
        self, request: Message, code: str, pattern: Optional[FlowPattern], until: Optional[float]
    ) -> None:
        self._serve(request, None, self.middlebox.enable_events, code, pattern, until)

    def _disable_events(self, request: Message, code: str, pattern: Optional[FlowPattern]) -> None:
        self._serve(request, None, self.middlebox.disable_events, code, pattern)

    def _transfer_end(self, request: Message, dirty_only: bool, shared_only: bool) -> None:
        if dirty_only:
            # Scoped pre-copy cleanup: stop dirty tracking, leave transfer
            # markers owned by concurrent operations untouched.
            end = self.middlebox.end_dirty_tracking
        elif shared_only:
            # A finalizing clone/merge only ever armed the shared flag; it
            # must not clear per-flow markers owned by a concurrent move.
            end = self.middlebox.end_shared_transfer
        else:
            end = self.middlebox.end_transfer
        self._serve(request, None, end)

    def _transfer_hold(self, request: Message, keys: List[FlowKey]) -> None:
        self._serve(request, None, self.middlebox.hold_flows, keys)

    def _transfer_release(self, request: Message, keys: List[FlowKey]) -> None:
        self._serve(request, None, self.middlebox.release_flows, keys)

    def _reprocess_packet(self, request: Message, packet: Optional[Packet], shared: bool) -> None:
        self._serve(request, self.middlebox.costs.reprocess_packet, self._replay, packet, shared)

    def _replay(self, packet: Optional[Packet], shared: bool) -> None:
        if packet is not None:
            self.middlebox.reprocess(packet, shared=shared)

    #: Request type -> handler, called as ``handler(agent, request, **parsed fields)``.
    _HANDLERS = {
        MessageType.BATCH: _batch,
        MessageType.GET_CONFIG: _get_config,
        MessageType.SET_CONFIG: _set_config,
        MessageType.DEL_CONFIG: _del_config,
        MessageType.GET_PERFLOW: _get_perflow,
        MessageType.GET_PERFLOW_DELTA: _get_perflow_delta,
        MessageType.PUT_PERFLOW: _put_perflow,
        MessageType.PUT_PERFLOW_BATCH: _put_perflow_batch,
        MessageType.DEL_PERFLOW: _del_perflow,
        MessageType.TRANSFER_HOLD: _transfer_hold,
        MessageType.TRANSFER_RELEASE: _transfer_release,
        MessageType.GET_SHARED: _get_shared,
        MessageType.PUT_SHARED: _put_shared,
        MessageType.GET_STATS: _get_stats,
        MessageType.ENABLE_EVENTS: _enable_events,
        MessageType.DISABLE_EVENTS: _disable_events,
        MessageType.TRANSFER_END: _transfer_end,
        MessageType.REPROCESS_PACKET: _reprocess_packet,
    }
