"""Middlebox base class.

Every middlebox in the reproduction derives from :class:`Middlebox`, which
provides:

* attachment to the simulated network (it is a
  :class:`~repro.net.topology.Node`: packets arrive via :meth:`receive`, are
  processed after a simulated per-packet cost, and are forwarded onward);
* the internal state containers of the taxonomy — a hierarchical configuration
  tree, per-flow supporting and reporting stores, and optional shared
  supporting/reporting slots — resolved through one lookup per Table 1 cell;
* a full implementation of the southbound
  :class:`~repro.core.southbound.MiddleboxInterface`: sealed export/import of
  per-flow and shared chunks, deletes, statistics, event subscriptions,
  transfer marking, and side-effect-free re-processing;
* re-process event generation: when a packet updates state that is flagged as
  transferred (because a move or clone exported it), the middlebox raises a
  re-process event carrying the packet (paper section 4.2.1);
* introspection event generation subject to the middlebox's event filter.

Subclasses *declare* which native type they keep in each taxonomy cell
(:attr:`Middlebox.STATE`) and implement the middlebox-specific
packet-processing logic (:meth:`process_packet`) — the paper's "small
modification": export and import are derived from the declaration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.chunks import ChunkCodec, payload_codec, serialize_payload
from ..core.config import HierarchicalConfig
from ..core.errors import StateError
from ..core.events import Event, EventCode, EventFilter
from ..core.flowspace import FlowKey, FlowPattern
from ..core.southbound import MiddleboxInterface, ProcessingCosts
from ..core.state import (
    PerFlowStateStore,
    SharedStateSlot,
    StateChunk,
    StateRole,
    StateScope,
    state_class,
)
from ..net.packet import Packet
from ..net.simulator import Simulator
from ..net.topology import Node

FULL_GRANULARITY = ("nw_proto", "nw_src", "nw_dst", "tp_src", "tp_dst")

#: A taxonomy cell: (role, scope), a key of :data:`~repro.core.state.TAXONOMY`.
Cell = Tuple[StateRole, StateScope]
#: The instance attribute holding each transferable cell's store or slot — a
#: plain attribute read at every use, so callers may assign a fresh store.
_CELL_ATTRS: Dict[Cell, str] = {
    (StateRole.SUPPORTING, StateScope.PER_FLOW): "support_store",
    (StateRole.REPORTING, StateScope.PER_FLOW): "report_store",
    (StateRole.SUPPORTING, StateScope.SHARED): "shared_support",
    (StateRole.REPORTING, StateScope.SHARED): "shared_report",
}
_PERFLOW_ATTRS = tuple(attr for (_, scope), attr in _CELL_ATTRS.items() if scope is StateScope.PER_FLOW)


def _resolve_cells(owner: str, declared: Mapping[Cell, type]) -> Dict[Cell, tuple]:
    """Check a declaration against the taxonomy; return ``(attribute, encode, decode)`` per cell."""
    for role, scope in declared:
        if not state_class(role, scope).movable:
            raise StateError(f"{owner}: {role.value} state is written by the controller, not declared")
    return {cell: (attr, *payload_codec(declared.get(cell))) for cell, attr in _CELL_ATTRS.items()}


class Verdict(enum.Enum):
    """What a middlebox decides to do with a processed packet."""

    FORWARD = "forward"
    DROP = "drop"
    CONSUME = "consume"


@dataclass
class ProcessResult:
    """Outcome of processing one packet."""

    verdict: Verdict = Verdict.FORWARD
    #: Packet to forward instead of the original (e.g. an encoded or rewritten copy).
    packet: Optional[Packet] = None
    #: Per-flow keys whose supporting or reporting state this packet updated.
    updated_flows: List[FlowKey] = field(default_factory=list)
    #: True when the packet updated shared supporting or reporting state.
    updated_shared: bool = False


@dataclass
class MiddleboxCounters:
    """Per-middlebox data-plane counters used by the evaluation."""

    packets_received: int = 0
    packets_forwarded: int = 0
    packets_dropped: int = 0
    bytes_received: int = 0
    reprocessed_packets: int = 0
    packets_held: int = 0
    #: Held packets discarded by a crash/teardown purge (they died with the
    #: instance — the chaos harness's conservation invariant accounts them).
    packets_purged: int = 0
    reprocess_events_raised: int = 0
    introspection_events_raised: int = 0
    processing_time_total: float = 0.0
    #: Pre-copy puts ignored because a newer round already installed the flow.
    stale_round_puts: int = 0

    @property
    def mean_processing_latency(self) -> float:
        if self.packets_received == 0:
            return 0.0
        return self.processing_time_total / self.packets_received


class Middlebox(Node, MiddleboxInterface):
    """Base class for all OpenMB-enabled middleboxes."""

    #: Default middlebox type string; subclasses override.
    MB_TYPE = "generic"

    #: The middlebox's Table 1 declaration: taxonomy cell -> the native type it
    #: keeps there (a dataclass, or a class with ``to_payload``/``from_payload``).
    #: Export and import of a declared cell go through that type's
    #: :func:`~repro.core.chunks.payload_codec`; an undeclared cell holds
    #: plain payload values (dicts, lists, scalars) and is passed through.
    STATE: Mapping[Cell, type] = {}
    _cells = _resolve_cells("Middlebox", STATE)

    def __init_subclass__(cls, **kwargs: object) -> None:
        """Validate the subclass's declaration at class creation; resolve each cell's codec once."""
        super().__init_subclass__(**kwargs)
        cls._cells = _resolve_cells(cls.__name__, cls.STATE)

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        costs: Optional[ProcessingCosts] = None,
        granularity: Sequence[str] = FULL_GRANULARITY,
        indexed_store: bool = False,
    ) -> None:
        Node.__init__(self, sim, name)
        self.mb_type = self.MB_TYPE
        self.costs = costs or ProcessingCosts()
        self.config = HierarchicalConfig()
        self.codec = ChunkCodec.for_mb_type(self.mb_type)
        self.support_store: PerFlowStateStore = PerFlowStateStore(tuple(granularity), indexed=indexed_store)
        self.report_store: PerFlowStateStore = PerFlowStateStore(tuple(granularity), indexed=indexed_store)
        #: Shared supporting / reporting slots; subclasses assign these when they have shared state.
        self.shared_support: Optional[SharedStateSlot] = None
        self.shared_report: Optional[SharedStateSlot] = None
        self.event_filter = EventFilter()
        self.counters = MiddleboxCounters()
        #: Flows whose exported per-flow state is flagged for re-process events.
        self._transferred_flows: set = set()
        #: Flows held by an order-preserving transfer: packets queue until release.
        self._held_flows: set = set()
        self._held_packets: Dict[FlowKey, List[Tuple[Packet, Optional[int]]]] = {}
        #: True while exported shared state is flagged for re-process events.
        self._shared_transfer_active = False
        #: True while re-processing a replayed packet (external side effects suppressed).
        self._reprocessing = False
        #: True while re-processing a replay that covers a shared-state transfer.
        self._reprocessing_shared = False
        #: Simulated time until which an API call keeps the middlebox slightly slower.
        self._api_busy_until = 0.0
        self._event_sink: Optional[Callable[[Event], None]] = None
        #: Fixed egress port; when None the packet leaves by "the other" port.
        self.egress_port: Optional[int] = None

    # =====================================================================================
    # Subclass hooks
    # =====================================================================================

    def process_packet(self, packet: Packet) -> ProcessResult:
        """Middlebox-specific packet processing; subclasses must implement."""
        raise NotImplementedError

    def on_config_changed(self, key: str) -> None:
        """Hook invoked after the controller changes configuration state."""

    # =====================================================================================
    # Network data plane
    # =====================================================================================

    def receive(self, packet: Packet, in_port: int) -> None:
        """Packet arrival from the network: schedule processing after the per-packet cost."""
        self.counters.packets_received += 1
        self.counters.bytes_received += packet.wire_size
        cost = self.costs.packet_processing
        if self.sim.now < self._api_busy_until:
            cost *= self.costs.transfer_slowdown
        self.counters.processing_time_total += cost
        self.sim.schedule(cost, self._process_and_forward, packet, in_port)

    def _process_and_forward(self, packet: Packet, in_port: Optional[int]) -> None:
        if self._held_flows:
            key = packet.flow_key().bidirectional()
            if key in self._held_flows:
                # An order-preserving transfer owns this flow: queue the packet
                # until the controller has replayed the flow's buffered events
                # and sent TRANSFER_RELEASE.
                self.counters.packets_held += 1
                self._held_packets.setdefault(key, []).append((packet, in_port))
                return
        result = self.process_packet(packet)
        self._after_processing(packet, result, in_port=in_port, suppress_side_effects=False)

    def _after_processing(
        self,
        packet: Packet,
        result: ProcessResult,
        *,
        in_port: Optional[int],
        suppress_side_effects: bool,
    ) -> None:
        # Dirty tracking (pre-copy transfers): flows the packet updated are
        # marked dirty so the next delta round resends their chunks.  Updates
        # applied through in-place mutation of objects handed out by the store
        # leave no store-level trace, hence the explicit marking here.
        self._mark_dirty_flows(result)
        # Re-process events: raised when the packet updated transferred state.
        if not suppress_side_effects:
            self._maybe_raise_reprocess(packet, result)
        # External side effects (forwarding) are suppressed for replayed packets.
        if suppress_side_effects:
            return
        if result.verdict is Verdict.FORWARD:
            outgoing = result.packet or packet
            out_port = self._choose_output_port(in_port)
            if out_port is not None:
                self.counters.packets_forwarded += 1
                self.send_out(out_port, outgoing)
            else:
                self.counters.packets_dropped += 1
        elif result.verdict is Verdict.DROP:
            self.counters.packets_dropped += 1
        # CONSUME: the middlebox is the packet's destination; nothing to forward.

    def _choose_output_port(self, in_port: Optional[int]) -> Optional[int]:
        if self.egress_port is not None:
            return self.egress_port
        if in_port is None:
            return next(iter(self.ports), None)
        other_ports = [port for port in self.ports if port != in_port]
        if not other_ports:
            return None
        return other_ports[0]

    def _mark_dirty_flows(self, result: ProcessResult) -> None:
        """Mark the packet's updated flows dirty in every tracking store.

        A flow is only marked in a store that actually holds state for it, so
        a packet updating reporting state does not force a pointless resend of
        the flow's (untouched) supporting chunk.
        """
        if not result.updated_flows:
            return
        for store in self._perflow_stores():
            if not store.tracking_dirty:
                continue
            for key in result.updated_flows:
                if key in store:
                    store.mark_dirty(key)

    def _maybe_raise_reprocess(self, packet: Packet, result: ProcessResult) -> None:
        keys_in_transfer = [
            key for key in result.updated_flows if key.bidirectional() in self._transferred_flows
        ]
        shared_in_transfer = result.updated_shared and self._shared_transfer_active
        if not keys_in_transfer and not shared_in_transfer:
            return
        event = Event(
            mb_name=self.name,
            code=EventCode.REPROCESS,
            key=keys_in_transfer[0] if keys_in_transfer else None,
            packet=packet,
            raised_at=self.sim.now,
            # ``shared`` tells the re-processing middlebox that the packet updated
            # shared state whose transfer (clone/merge) is in progress, so the
            # replay must apply the shared-state update too (the source's copy of
            # that update will not survive the transfer).
            shared=shared_in_transfer,
        )
        self.counters.reprocess_events_raised += 1
        self._emit(event)

    # =====================================================================================
    # Events
    # =====================================================================================

    def set_event_sink(self, sink: Callable[[Event], None]) -> None:
        self._event_sink = sink

    def _emit(self, event: Event) -> None:
        if self._event_sink is not None:
            self._event_sink(event)

    def raise_event(self, code: str, key: Optional[FlowKey] = None, **values: object) -> bool:
        """Raise an introspection event if the current filter allows it.

        Returns True when the event was generated.  Subclasses call this at the
        points where they create or update notable state (the paper suggests
        "points where information is written to a log file").
        """
        event = Event(
            mb_name=self.name,
            code=code,
            key=key,
            values=dict(values),
            raised_at=self.sim.now,
        )
        if not self.event_filter.allows(event, now=self.sim.now):
            return False
        self.counters.introspection_events_raised += 1
        self._emit(event)
        return True

    def enable_events(self, code: str, pattern: Optional[FlowPattern] = None, until: Optional[float] = None) -> None:
        self.event_filter.enable(code, pattern, until=until)

    def disable_events(self, code: str, pattern: Optional[FlowPattern] = None) -> None:
        self.event_filter.disable(code, pattern)

    # =====================================================================================
    # Southbound API: configuration state
    # =====================================================================================

    def get_config(self, key: str = "*") -> dict:
        return self.config.export(key)

    def set_config(self, key: str, values: list) -> None:
        self.config.set(key, values)
        self._note_api_activity(self.costs.config_op)
        self.on_config_changed(key)

    def del_config(self, key: str) -> None:
        self.config.delete(key)
        self.on_config_changed(key)

    # =====================================================================================
    # Southbound API: per-flow state
    # =====================================================================================

    def _cell(self, role: StateRole, scope: StateScope) -> tuple:
        """The one cell lookup: ``(store or slot, encode, decode)`` of a taxonomy cell."""
        try:
            attr, encode, decode = self._cells[(role, scope)]
        except KeyError:
            raise StateError(f"{scope.value} operations do not apply to {role.value} state") from None
        return getattr(self, attr), encode, decode

    def _perflow_stores(self) -> List[PerFlowStateStore]:
        """The store of every per-flow cell, as assigned right now."""
        return [getattr(self, attr) for attr in _PERFLOW_ATTRS]

    def iter_perflow(
        self,
        role: StateRole,
        pattern: FlowPattern,
        *,
        mark_transfer: bool = False,
        track_dirty: bool = False,
        compress: Optional[bool] = None,
    ) -> Iterator[StateChunk]:
        """Stream sealed chunks matching *pattern*; optionally mark or track them.

        Setup is eager (it happens at the call, before the first chunk is
        pulled): ``track_dirty`` arms the store's dirty tracking at this
        instant — the pre-copy bulk round — so every mutation from now on is
        either inside the snapshot stream or in the dirty set.  Chunks are
        sealed lazily as the consumer pulls them, so the resident overhead is
        one chunk, not the full export; an update that lands before a flow's
        chunk is sealed is simply included in that chunk.  With
        ``mark_transfer`` each flow is flagged for re-process events at the
        instant its chunk is sealed (the freeze is per flow: an already-sealed
        flow's packets raise events, a not-yet-sealed flow keeps processing
        and its chunk carries the result).  *compress* overrides the codec's
        payload compression for this export (a :class:`TransferSpec`
        negotiation).

        API busy time accrues per sealed chunk from the stream's start, so
        the total is ``get_base + get_per_chunk * chunks`` whatever the pull pacing.
        """
        store, encode, _ = self._cell(role, StateScope.PER_FLOW)
        if track_dirty:
            # Arm tracking before the query so every mutation after this
            # instant is either inside the snapshot or in the dirty set.
            store.begin_dirty_tracking()
        start = self.sim.now
        self._note_api_activity(self.costs.get_base)
        matches = store.iter_matching(pattern)

        def generate() -> Iterator[StateChunk]:
            sealed = 0
            for key, obj in matches:
                chunk = self.codec.seal_perflow(key, encode(obj), role, compress=compress)
                if mark_transfer:
                    self._transferred_flows.add(key.bidirectional())
                sealed += 1
                self._note_api_activity_absolute(
                    start + self.costs.get_base + self.costs.get_per_chunk * sealed
                )
                yield chunk

        return generate()

    def iter_perflow_dirty(
        self,
        role: StateRole,
        pattern: FlowPattern,
        *,
        mark_transfer: bool = False,
        compress: Optional[bool] = None,
    ) -> Iterator[StateChunk]:
        """Stream chunks for the flows dirtied since the last drain (delta round).

        The drain is eager: the dirty set is taken and cleared at the call
        instant, out-of-pattern flows are re-marked for whoever owns them, and
        — with ``mark_transfer``, the final stop-and-copy — every flow
        matching *pattern* is flagged for re-process events and dirty tracking
        stops *before* the first chunk streams out.  The freeze therefore
        happens at the call, not at the first pull; a frozen flow's
        state cannot change while the stream is being pulled (updates surface
        as events), so lazy sealing observes the same bytes.  In non-final
        rounds an update landing mid-stream is included in the flow's chunk
        *and* re-dirties it for the next round — a harmless resend, never a
        loss.  Chunks for flows removed between drain and pull are skipped.
        """
        store, encode, _ = self._cell(role, StateScope.PER_FLOW)
        drained: List[FlowKey] = []
        for key in store.drain_dirty():
            if not pattern.matches_either_direction(key):
                store.mark_dirty(key)  # not ours to move; keep it dirty
                continue
            drained.append(key)
        if mark_transfer:
            for key, _ in store.iter_matching(pattern):
                self._transferred_flows.add(key.bidirectional())
            store.end_dirty_tracking()
        start = self.sim.now
        self._note_api_activity(self.costs.get_base)

        def generate() -> Iterator[StateChunk]:
            sealed = 0
            for key in drained:
                obj = store.get(key)
                if obj is None:
                    continue  # removed after it was dirtied; nothing to resend
                chunk = self.codec.seal_perflow(key, encode(obj), role, compress=compress)
                sealed += 1
                self._note_api_activity_absolute(
                    start + self.costs.get_base + self.costs.get_per_chunk * sealed
                )
                yield chunk

        return generate()

    def dirty_perflow_count(self, role: StateRole, pattern: Optional[FlowPattern] = None) -> int:
        """Flows dirtied (and not yet drained) in the store of the given role.

        With *pattern* only matching flows are counted — the controller's
        convergence signal for a pattern-restricted pre-copy move must not be
        inflated by background traffic on flows the move will never transfer.
        """
        store = self._cell(role, StateScope.PER_FLOW)[0]
        if pattern is None or pattern.is_wildcard:
            return store.dirty_count
        return sum(1 for key in store.dirty_keys() if pattern.matches_either_direction(key))

    def put_perflow(self, chunk: StateChunk, *, round: Optional[Tuple[int, ...]] = None) -> None:
        """Install one sealed chunk; *round* is the pre-copy round tag, if any.

        Round tags order pre-copy installs per (role, flow) — the tag lives in
        the role's store, pruned together with the flow's state: a put tagged
        with an older round than the one already installed is ignored, so a
        stale round can never overwrite newer destination state.  Untagged
        puts (snapshot transfers) always install.
        """
        store, _, decode = self._cell(chunk.role, StateScope.PER_FLOW)
        if round is not None and not store.install_round(chunk.key, tuple(round)):
            self.counters.stale_round_puts += 1
            self._note_api_activity(self.costs.put_per_chunk)
            return
        store.put(chunk.key, decode(self.codec.unseal_perflow(chunk)))
        self._note_api_activity(self.costs.put_per_chunk)

    def del_perflow(self, role: StateRole, pattern: FlowPattern) -> int:
        removed = self._cell(role, StateScope.PER_FLOW)[0].remove_matching(pattern)
        for key, obj in removed:
            self.on_perflow_deleted(role, key, obj)
            self._transferred_flows.discard(key.bidirectional())
        return len(removed)

    def on_perflow_deleted(self, role: StateRole, key: FlowKey, obj: object) -> None:
        """Hook invoked for each per-flow entry removed by a controller delete.

        The default does nothing; the IDS uses it to mark connections as moved
        so their removal does not produce anomaly log entries (the paper's
        "moved flag").
        """

    # =====================================================================================
    # Southbound API: shared state
    # =====================================================================================

    def get_shared(self, role: StateRole, *, mark_transfer: bool = False) -> Optional[StateChunk]:
        slot, encode, _ = self._cell(role, StateScope.SHARED)
        if slot is None:
            return None
        chunk = self.codec.seal_perflow(None, encode(slot.clone_value()), role)
        if mark_transfer:
            self._shared_transfer_active = True
        self._note_api_activity(self.costs.shared_get_base + self.costs.shared_get_per_byte * chunk.size)
        return chunk

    def put_shared(self, chunk: StateChunk) -> None:
        slot, _, decode = self._cell(chunk.role, StateScope.SHARED)
        if slot is None:
            raise StateError(f"{self.name} has no shared {chunk.role.value} state to import into")
        slot.merge_in(decode(self.codec.unseal_perflow(chunk)))
        self._note_api_activity(self.costs.shared_put_base + self.costs.shared_put_per_byte * chunk.size)

    # =====================================================================================
    # Southbound API: statistics, transfers, re-processing
    # =====================================================================================

    def state_stats(self, pattern: FlowPattern) -> dict:
        stats = {}
        for (role, scope), attr in _CELL_ATTRS.items():
            held = getattr(self, attr)
            if scope is StateScope.PER_FLOW:
                stats[f"perflow_{role.value}"] = len(held.query(pattern))
            else:
                stats[f"shared_{role.value}"] = 0 if held is None else 1
        stats["config_keys"] = len(self.config.keys())
        return stats

    def end_transfer(self) -> None:
        # Note: per-flow packet holds are deliberately NOT cleared here.  They
        # belong to an order-preserving move targeting this middlebox, and a
        # TRANSFER_END can arrive from an unrelated operation (a clone/merge
        # whose source this middlebox is); only the owning move's per-flow
        # TRANSFER_RELEASE (or its failure cleanup) may lift a hold.
        # Pre-copy dirty tracking is likewise left alone — it belongs to an
        # in-flight move from this middlebox and is ended by that move's own
        # final round (or its scoped failure cleanup, end_dirty_tracking).
        self._transferred_flows.clear()
        self._shared_transfer_active = False

    def end_dirty_tracking(self) -> None:
        """Stop pre-copy dirty tracking on both stores (scoped failure cleanup).

        Sent by a pre-copy move that failed mid-round, so the source stops
        accumulating dirt for a transfer that will never drain it.  Touches
        nothing else: transfer markers, holds, and install tags owned by
        concurrent operations survive.
        """
        for store in self._perflow_stores():
            store.end_dirty_tracking()

    def end_shared_transfer(self) -> None:
        """Clear only the shared-transfer flag (a finalizing clone/merge).

        Clone/merge operations never arm per-flow markers, so their
        post-quiescence TRANSFER_END must not clear markers a concurrent
        move's freeze depends on.
        """
        self._shared_transfer_active = False

    def hold_flows(self, keys: List[FlowKey]) -> None:
        """Start queueing fresh packets for *keys* (order-preserving puts)."""
        for key in keys:
            self._held_flows.add(key.bidirectional())

    def release_flows(self, keys: List[FlowKey]) -> None:
        """Per-flow TRANSFER_RELEASE: stop transfer involvement for *keys*.

        Clears the flows' transfer markers (they stop raising re-process
        events — the early-release optimization at a source) and lifts any
        packet hold, processing queued packets in arrival order (the
        order-preserving release at a destination).
        """
        stores = self._perflow_stores()
        for key in keys:
            canonical = key.bidirectional()
            self._transferred_flows.discard(canonical)
            self._held_flows.discard(canonical)
            for store in stores:
                store.clear_install_round(canonical)
            for packet, in_port in self._held_packets.pop(canonical, []):
                self._process_and_forward(packet, in_port)

    def purge_transfer_state(self) -> int:
        """Crash/teardown cleanup: drop every trace of transfer involvement.

        Called by the controller when this instance is unregistered or
        declared dead while operations touching it are still in flight.  The
        releases and scoped TRANSFER_ENDs those operations owe this instance
        can no longer be delivered, so the cleanup happens locally instead:
        packet holds are lifted (their queued packets are *discarded* — the
        instance is gone, and processing them now would fabricate updates),
        pre-copy install-round tags are pruned from both stores, dirty
        tracking stops, and transfer markers are cleared.  Returns the number
        of queued packets discarded.
        """
        dropped = sum(len(queued) for queued in self._held_packets.values())
        self._held_packets.clear()
        self._held_flows.clear()
        self._transferred_flows.clear()
        self._shared_transfer_active = False
        for store in self._perflow_stores():
            store.end_dirty_tracking()
            store.clear_install_rounds()
        if dropped:
            self.counters.packets_purged += dropped
            self.counters.packets_dropped += dropped
        return dropped

    def reprocess(self, packet: Packet, *, shared: bool = False) -> None:
        """Re-process a replayed packet, updating state but suppressing side effects.

        ``shared`` is True when the replay belongs to a shared-state transfer
        (clone/merge): in that case the replay must also apply shared-state
        updates, because the source middlebox's own copies of those updates are
        made after the transferred snapshot and will not survive the transfer.
        """
        self.counters.reprocessed_packets += 1
        self._reprocessing = True
        self._reprocessing_shared = shared
        try:
            result = self.process_packet(packet)
        finally:
            self._reprocessing = False
            self._reprocessing_shared = False
        self._after_processing(packet, result, in_port=None, suppress_side_effects=True)

    def perflow_count(self, role: StateRole) -> int:
        return len(self._cell(role, StateScope.PER_FLOW)[0])

    def cell_size_bytes(self, role: StateRole, scope: StateScope, pattern: Optional[FlowPattern] = None) -> int:
        """Serialised size of one cell's state (per-flow: of the entries matching *pattern*).

        Size accounting for the evaluation (the VM-snapshot comparison); not a southbound call.
        """
        held, encode, _ = self._cell(role, scope)
        if scope is StateScope.SHARED:
            return 0 if held is None else len(serialize_payload(encode(held.value)))
        pattern = pattern or FlowPattern.wildcard()
        return sum(
            len(serialize_payload(encode(obj))) for key, obj in held.items() if pattern.matches_either_direction(key)
        )

    # =====================================================================================
    # Helpers for subclasses and the southbound agent
    # =====================================================================================

    @property
    def is_reprocessing(self) -> bool:
        """True while the middlebox is handling a replayed packet."""
        return self._reprocessing

    @property
    def reprocess_covers_shared(self) -> bool:
        """True while handling a replay that must also update shared state."""
        return self._reprocessing_shared

    def transferred_flow_count(self) -> int:
        return len(self._transferred_flows)

    def _note_api_activity(self, duration: float) -> None:
        """Record that an API call occupies the middlebox until ``now + duration``.

        While API activity is pending, packet processing latency rises by the
        configured slowdown factor (the paper's ≈2 % increase during gets).
        """
        self._api_busy_until = max(self._api_busy_until, self.sim.now + duration)

    def _note_api_activity_absolute(self, until: float) -> None:
        """Extend API busy time to an absolute instant.

        Streaming exports charge per sealed chunk relative to the *stream's*
        start, so the accumulated busy horizon is the same whether a consumer
        pulls the whole export at once or pumps it in bounded batches.
        """
        self._api_busy_until = max(self._api_busy_until, until)
