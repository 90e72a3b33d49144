"""LinkGuardian-style link-local loss recovery between adjacent nodes.

Corruption loss — frames that die to a failing cable or transceiver rather
than to congestion — is invisible to the transport until an end-to-end
timeout fires, so even a 10⁻³ loss rate inflates flow-completion times far
out of proportion.  LinkGuardian (SIGCOMM'23) masks that loss *at the link*:
the two switches adjacent to a lossy link run a small protocol that detects
a lost frame by sequence gap and re-sends it from a local hold buffer at
sub-RTT timescales, so the transport above never sees the loss.

:class:`LinkProtection` runs that protocol on one
:class:`~repro.net.links.Link`, both directions independently.  The state
machine — sequence numbers, a bounded hold buffer that pauses the sender
rather than forgetting what it may need to re-send, re-sends on NACK or on a
sub-RTT timer, duplicate discard — is :class:`repro.runtime.arq.ArqDirection`,
the one the control channel runs on; this module is its data-plane carrier:
the ``lg.seq`` annotation on data frames, the ``lg.ctrl`` ACK/NACK frames
(cumulative plus selective, so holds drain; missing numbers NACKed once per
RTO), :class:`ProtectionConfig` and the counters.

With ``strict_order=True`` the receiver holds out-of-order arrivals in a
resequencing buffer and delivers strictly in sequence — loss *and* reordering
are masked, at the cost of gap-fill latency; with ``strict_order=False``
frames are delivered the moment they arrive — minimal added latency, but a
repaired loss is delivered late (out of order), which is exactly the stressor
order-preserving transfers need.

Control frames travel over the same physical wire in the reverse direction
and are themselves subject to the link's fault plan; the retransmission timer
covers every control-loss case.  All protocol state is driven by the link's
runtime, so the same code runs on the deterministic simulator and the
wall-clock realtime runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..obs import Counters
from ..runtime.arq import DEFAULT_RTO_LATENCY_MULTIPLE, ArqDirection
from .links import A_TO_B, B_TO_A
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking only
    from .links import Link
    from .topology import Node

#: Annotation key carrying the per-direction protection sequence number.
SEQ_KEY = "lg.seq"

#: Annotation key marking (and carrying) a protection control frame.
CTRL_KEY = "lg.ctrl"

#: Annotation key carrying the session epoch on data and control frames alike.
EPOCH_KEY = "lg.epoch"


@dataclass
class ProtectionConfig:
    """Tuning knobs for one protected link (both directions share them)."""

    #: Deliver strictly in sequence order (resequencing buffer) when True;
    #: deliver immediately on arrival (repaired losses arrive late) when False.
    strict_order: bool = True
    #: Maximum frames the sender half keeps for retransmission; new frames
    #: queue in a backlog while the buffer is full.
    hold_buffer: int = 128
    #: Retransmissions per frame before the sender gives up (keeps a link
    #: that eats every frame from retrying forever); the abandonment is
    #: counted, never silent.
    max_retries: int = 30


#: Protocol counters for one direction of a protected link.
PROTECTION_COUNTERS = (
    #: Data frames delivered up to the node (after resequencing/dedup).
    "delivered",
    #: Duplicate arrivals discarded by the receiver half.
    "dup_discards",
    #: Missing sequence numbers NACKed (one count per NACKed seq).
    "nacked",
    #: Frames delivered out of sequence order (strict_order=False only).
    "out_of_order",
    #: Frames that arrived out of order but were resequenced before delivery.
    "resequenced",
    #: Holds abandoned after ``max_retries`` (unmaskable persistent loss).
    "abandoned",
)


class LinkProtection:
    """The LinkGuardian protocol instance attached to one link."""

    def __init__(self, link: "Link", config: ProtectionConfig) -> None:
        self.link = link
        self.config = config
        #: Seconds before an unacknowledged hold is re-sent.
        self.retransmit_timeout = max(DEFAULT_RTO_LATENCY_MULTIPLE * link.latency, 1e-6)
        #: Session number, bumped each time the link comes back up; a frame
        #: stamped with another one is a straggler of a session that is gone.
        self.epoch = 0
        self._stats: Dict[str, Counters] = {A_TO_B: Counters(*PROTECTION_COUNTERS), B_TO_A: Counters(*PROTECTION_COUNTERS)}
        self._arq: Dict[str, ArqDirection] = {}
        self._deliver: Dict[str, Callable[[Packet], None]] = {}
        self._wire_up()

    def _wire_up(self) -> None:
        """Start a session: a fresh engine per direction, bound to its end of the wire."""
        for direction, sender in ((A_TO_B, self.link.node_a), (B_TO_A, self.link.node_b)):
            self._wire_up_direction(direction, sender)

    def _wire_up_direction(self, direction: str, sender: "Node") -> None:
        """One direction's engine, bound to its sender, its receiver and both sets of counters."""
        link = self.link
        stats = self._stats[direction]
        wire_stats = link.stats_for(direction)
        receiver = link.other_end(sender)
        in_port = link.port_on(receiver)

        def transmit(packet: Packet, retry: bool) -> Optional[float]:
            if retry:
                wire_stats.retransmits += 1
            return link.transmit_raw(packet, sender)

        def abandon() -> None:
            stats.abandoned += 1

        def deliver(frame: Packet) -> None:
            """Hand one frame up to the node, stripped of protocol annotations."""
            del frame.annotations[SEQ_KEY], frame.annotations[EPOCH_KEY]
            stats.delivered += 1
            receiver.receive(frame, in_port)

        self._deliver[direction] = deliver
        config = self.config
        # The layer above mutates delivered packets (and strips the sequence
        # annotation), so holds and re-sends are copies.
        self._arq[direction] = ArqDirection(
            link.sim,
            self.retransmit_timeout,
            transmit,
            strict=config.strict_order,
            window=config.hold_buffer,
            max_retries=config.max_retries,
            copy=Packet.copy,
            on_abandon=abandon,
        )

    # -- introspection ----------------------------------------------------------

    def is_ctrl(self, packet: Packet) -> bool:
        """True for the protocol's own ACK/NACK frames."""
        return CTRL_KEY in packet.annotations

    def stats_for(self, direction: str) -> Counters:
        """Protocol counters of one direction (by links.A_TO_B / B_TO_A label)."""
        return self._stats[direction]

    def outstanding(self, direction: str) -> int:
        """Held-plus-backlogged frames the sender half still tracks."""
        return self._arq[direction].outstanding

    # -- sender half ------------------------------------------------------------

    def send(self, packet: Packet, sender: "Node") -> Optional[float]:
        """Sequence-stamp *packet* and transmit it with retransmission cover.

        Returns the first physical attempt's delivery time (None when the
        attempt was lost on the wire or the frame is waiting in the backlog —
        either way the protocol re-delivers it, so the return value is only
        the optimistic projection an unprotected link would have given).
        """
        arq = self._arq[self.link.direction_from(sender)]
        packet.annotations[SEQ_KEY] = arq.next_seq
        packet.annotations[EPOCH_KEY] = self.epoch
        return arq.send(packet)

    # -- receiver half ----------------------------------------------------------

    def on_arrival(self, packet: Packet, receiver: "Node", in_port: int, direction: str) -> None:
        """Physical arrival at *receiver* of a frame that travelled *direction*:
        ack/nack absorption or data delivery."""
        annotations = packet.annotations
        if annotations.get(EPOCH_KEY, self.epoch) != self.epoch:
            self.link.stats_for(direction).drops += 1  # outlived its session (link flap)
            return
        ctrl = annotations.get(CTRL_KEY)
        if ctrl is not None:
            # The control frame acknowledges the data direction *receiver*
            # transmits on (it travelled the reverse wire to get here).
            self._arq[self.link.direction_from(receiver)].absorb_ack(
                int(ctrl.get("cum", 0)), ctrl.get("have", ()), ctrl.get("need", ())
            )
            return
        seq = annotations.get(SEQ_KEY)
        if seq is None:
            receiver.receive(packet, in_port)  # pre-protection frame
            return
        arq = self._arq[direction]
        stats = self._stats[direction]
        above_gap = seq != arq.expected
        if not arq.receive(seq, packet, self._deliver[direction]):
            stats.dup_discards += 1
        elif above_gap and self.config.strict_order:
            stats.resequenced += 1
        elif above_gap:
            stats.out_of_order += 1
        # One ACK/NACK control frame back toward the data sender.
        cum, have, need = arq.ack_state()
        stats.nacked += len(need)
        ctrl_frame = Packet(
            nw_src="0.0.0.0",
            nw_dst="0.0.0.0",
            nw_proto=0,
            annotations={CTRL_KEY: {"cum": cum, "have": have, "need": need}, EPOCH_KEY: self.epoch},
        )
        self.link.transmit_raw(ctrl_frame, receiver)

    # -- lifecycle ---------------------------------------------------------------

    def on_link_change(self, up: bool) -> None:
        """The link went administratively down, or came back up.

        Down: held and backlogged frames die with the link, recorded as drops
        on their direction; frames sent while it stays down are not held at
        all — the wire counts each as a drop itself — so no retransmission
        timer keeps a dead wire's event queue alive.  Up: both directions
        start a fresh session — new sequence space, counters kept — under the
        next :attr:`epoch`, so nothing waits on numbers that died with the
        link and an old-epoch frame still in flight is dropped on arrival.
        """
        if not up:
            for direction, arq in self._arq.items():
                self.link.stats_for(direction).drops += arq.close()
        elif self._arq[A_TO_B].closed:  # both directions close together
            self.epoch += 1
            self._wire_up()


def summarize(link: "Link") -> Counters:
    """A (protected) link's loss/recovery accounting, both directions folded together."""
    summary = Counters("sent", "lost_on_wire", "retransmits", "delivered", "abandoned", "ctrl_frames", "dup_discards")
    for direction in (A_TO_B, B_TO_A):
        stats = link.stats_for(direction)
        summary.sent += stats.packets - stats.ctrl_frames
        summary.lost_on_wire += stats.drops + stats.corrupted
        summary.retransmits += stats.retransmits
        summary.ctrl_frames += stats.ctrl_frames
        if link.protection is not None:
            protocol = link.protection.stats_for(direction)
            summary.delivered += protocol.delivered
            summary.abandoned += protocol.abandoned
            summary.dup_discards += protocol.dup_discards
    return summary
