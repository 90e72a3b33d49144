"""Links between network nodes, with latency, bandwidth, and a fault model.

A link connects one port on each of two nodes.  Transmitting a packet takes
``latency + wire_size / bandwidth`` simulated seconds; packets sent in quick
succession queue behind one another on the link (a simple store-and-forward
serialisation model), which is what produces the queueing component of the
per-packet latency measurements in the evaluation.

Each direction of the wire is a :meth:`~repro.net.simulator.Simulator.lane` — the
same serialisation abstraction the control channels and controller shards run
on — so both runtimes drive data-plane wires exactly like control wires:
the seed's ``free_at`` arithmetic, bit for bit on the simulator and on the
wall clock under the realtime runtime.

Two opt-in layers make the data plane imperfect and then repair it:

* a seeded :class:`LinkFaultPlan` (the control channel's
  :class:`~repro.runtime.arq.SeededFaultPlan` with link fault classes) injects
  per-direction random loss, corruption loss, and reordering delay, plus
  scripted one-shot faults ("corrupt the 7th a→b frame") — all drawn from one
  ``random.Random(seed)`` per link so fault sequences reproduce bit for bit;
* a LinkGuardian-style link-local protection protocol
  (:mod:`repro.net.protection`) between the two endpoints masks those losses
  with sub-RTT retransmission; :meth:`Link.enable_protection` attaches it.

Both layers are off by default: a link constructed without a fault plan and
without protection behaves — and schedules — exactly like the seed
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..obs import Counters
from ..runtime.arq import Fate, SeededFaultPlan
from .packet import Packet
from .simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking only
    from .protection import LinkProtection, ProtectionConfig
    from .topology import Node


#: Default link latency (seconds) — 50 microseconds, a LAN-scale value.
DEFAULT_LATENCY = 50e-6

#: Default link bandwidth (bytes/second) — 1 Gbps, the paper's testbed NICs.
DEFAULT_BANDWIDTH = 125_000_000.0

#: Direction labels used by fault plans and stats (a→b is node_a transmitting).
A_TO_B = "a_to_b"
B_TO_A = "b_to_a"


#: Counters kept per link direction (indexed by the transmitting end).
LINK_COUNTERS = (
    "packets", "bytes",
    #: Frames lost outright: downed link, or the fault plan's random loss.
    "drops",
    #: Frames lost to corruption (failed CRC at the receiver's MAC): the
    #: receiving end sees *that* something arrived but not what — the loss
    #: class LinkGuardian-style protection detects by sequence gap.
    "corrupted",
    #: Frames the fault plan delayed past a successor's delivery window.
    "reordered",
    #: Frames re-sent by the link-local protection protocol in this direction.
    "retransmits",
    #: Protection control frames (ACK/NACK) sent in this direction.
    "ctrl_frames",
)


# =========================================================================================
# Fault model
# =========================================================================================


@dataclass(frozen=True)
class LinkFaultProfile:
    """Random fault probabilities for one direction of a link.

    ``loss`` and ``corruption`` are per-frame probabilities of the frame
    disappearing (the latter counted separately as corruption loss, the class
    of loss link-local protection is built to mask); ``reorder`` is the
    per-frame probability of the frame being delayed past roughly one
    successor's delivery window (expressed via extra delivery latency).
    """

    loss: float = 0.0
    corruption: float = 0.0
    reorder: float = 0.0


class LinkFaultPlan(SeededFaultPlan):
    """A seeded, deterministic fault-injection plan for one link.

    ``LinkFaultPlan(seed, a_to_b=LinkFaultProfile(...), b_to_a=..., scripted=[...])``
    or ``LinkFaultPlan.symmetric(seed, corruption=..., ...)``: two runs with
    the same plan (and the same simulated workload) lose and corrupt
    byte-for-byte identical frames.  Scripted faults are
    :class:`~repro.runtime.arq.ScriptedFault` of kind ``"drop"`` or
    ``"corrupt"``, consuming the *nth* data frame (protection control frames
    are not counted) sent :data:`A_TO_B` or :data:`B_TO_A`.
    """

    DIRECTIONS = (A_TO_B, B_TO_A)
    PROFILE = LinkFaultProfile

    def draw(self, profile: LinkFaultProfile, at: float, latency: float) -> Fate:
        """Loss, corruption, reorder — in that order."""
        rng = self.rng
        if rng.random() < profile.loss:
            return "drop", at, False, None
        if rng.random() < profile.corruption:
            return "corrupt", at, False, None
        at, reordered = self.reorder(profile.reorder, at, latency)
        return None, at, reordered, None


# =========================================================================================
# The link
# =========================================================================================


class Link:
    """A bidirectional point-to-point link.

    What a frame needs from its sending end — direction label, that
    direction's counters (:data:`LINK_COUNTERS`), the receiving node, its in-port and the
    direction's serialisation lane — depends on the two attached ends only, so
    it is resolved once at construction (``_ends``) and a transmission pays one
    lookup by sender identity.
    """

    def __init__(
        self,
        sim: Simulator,
        node_a: "Node",
        port_a: int,
        node_b: "Node",
        port_b: int,
        *,
        latency: float = DEFAULT_LATENCY,
        bandwidth: float = DEFAULT_BANDWIDTH,
        name: Optional[str] = None,
        faults: Optional[LinkFaultPlan] = None,
    ) -> None:
        self.sim = sim
        self.node_a = node_a
        self.port_a = port_a
        self.node_b = node_b
        self.port_b = port_b
        self.latency = latency
        self.bandwidth = bandwidth
        self.name = name or f"{node_a.name}:{port_a}<->{node_b.name}:{port_b}"
        self.up = True
        self.faults = faults
        self.stats_a_to_b = Counters(*LINK_COUNTERS)
        self.stats_b_to_a = Counters(*LINK_COUNTERS)
        #: LinkGuardian-style link-local protection; None = unprotected.
        self.protection: Optional["LinkProtection"] = None
        #: Per sending end ``(direction, stats, receiver, in_port, lane)``, keyed
        #: by endpoint *identity* (never by name: two nodes that happen to share
        #: a name must not share a transmitter).
        self._ends = {
            id(node_a): (A_TO_B, self.stats_a_to_b, node_b, port_b, sim.lane(f"{self.name}:{A_TO_B}")),
            id(node_b): (B_TO_A, self.stats_b_to_a, node_a, port_a, sim.lane(f"{self.name}:{B_TO_A}")),
        }

    # -- endpoint helpers -------------------------------------------------------

    def other_end(self, node: "Node") -> "Node":
        """The node on the opposite end from *node*."""
        if node is self.node_a:
            return self.node_b
        if node is self.node_b:
            return self.node_a
        raise ValueError(f"{node.name} is not attached to link {self.name}")

    def port_on(self, node: "Node") -> int:
        """The port number this link occupies on *node*."""
        if node is self.node_a:
            return self.port_a
        if node is self.node_b:
            return self.port_b
        raise ValueError(f"{node.name} is not attached to link {self.name}")

    def direction_from(self, node: "Node") -> str:
        """The direction label (:data:`A_TO_B` / :data:`B_TO_A`) for frames *node* sends."""
        if node is self.node_a:
            return A_TO_B
        if node is self.node_b:
            return B_TO_A
        raise ValueError(f"{node.name} is not attached to link {self.name}")

    def stats_for(self, direction: str) -> Counters:
        """The counters of one direction by label."""
        return self.stats_a_to_b if direction == A_TO_B else self.stats_b_to_a

    # -- protection --------------------------------------------------------------

    def enable_protection(self, config: Optional["ProtectionConfig"] = None) -> "LinkProtection":
        """Attach LinkGuardian-style link-local protection to both directions.

        The two endpoints then run the sequence-stamp / hold-buffer /
        retransmit protocol of :mod:`repro.net.protection`; corruption and
        random loss are masked from the nodes above without end-to-end
        involvement.  Returns the attached :class:`LinkProtection`.
        """
        from .protection import LinkProtection, ProtectionConfig

        self.protection = LinkProtection(self, config or ProtectionConfig())
        return self.protection

    # -- transmission -----------------------------------------------------------

    def transmit(self, packet: Packet, sender: "Node") -> Optional[float]:
        """Send *packet* from *sender* toward the other end.

        Returns the simulated delivery time, or ``None`` when the frame was
        lost on the wire (downed link, random loss, or corruption) — callers
        must never treat a drop as a valid delivery time.  With protection
        enabled the frame is sequence-stamped and tracked for link-local
        retransmission first.
        """
        if self.protection is not None:
            return self.protection.send(packet, sender)
        return self.transmit_raw(packet, sender)

    def transmit_raw(self, packet: Packet, sender: "Node") -> Optional[float]:
        """One physical transmission attempt, bypassing protection.

        This is the wire itself: serialisation-lane occupancy, propagation
        latency, and the fault plan.  The protection layer calls this for
        every (re)transmission and control frame; unprotected links come here
        straight from :meth:`transmit`.
        """
        end = self._ends.get(id(sender))
        if end is None:
            raise ValueError(f"{sender.name} is not attached to link {self.name}")
        direction, stats, receiver, in_port, wire = end
        if not self.up:
            stats.drops += 1
            return None
        size = packet.wire_size
        delivery_time = wire.reserve(size / self.bandwidth if self.bandwidth else 0.0) + self.latency
        stats.packets += 1
        stats.bytes += size
        protection = self.protection
        is_ctrl = protection is not None and protection.is_ctrl(packet)
        if is_ctrl:
            stats.ctrl_frames += 1
        if self.faults is not None:
            lost, delivery_time, reordered, _ = self.faults.decide(direction, not is_ctrl, delivery_time, self.latency)
            if lost:
                if lost == "corrupt":
                    stats.corrupted += 1
                else:
                    stats.drops += 1
                return None
            if reordered:
                stats.reordered += 1
        if protection is not None:
            wire.dispatch_at(delivery_time, protection.on_arrival, packet, receiver, in_port, direction)
        else:
            wire.dispatch_at(delivery_time, receiver.receive, packet, in_port)
        return delivery_time

    def set_up(self, up: bool) -> None:
        """Bring the link up or down (downed links silently drop traffic)."""
        self.up = up
        if self.protection is not None:
            self.protection.on_link_change(up)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} latency={self.latency} bw={self.bandwidth}>"
