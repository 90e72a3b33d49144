"""Control channels between the MB controller and middleboxes.

The paper's prototype uses JSON over UNIX sockets.  Here each middlebox is
connected to the controller by a :class:`ControlChannel` that encodes every
message to its JSON wire form (so sizes are realistic), models transfer time
as ``latency + size / bandwidth``, and delivers the decoded message to the
other side on the simulated clock.  Both directions keep counters used by the
controller-performance benchmarks.

Two opt-in layers harden the channel for the chaos experiments:

* a seeded :class:`FaultPlan` injects per-direction faults — message drops,
  latency jitter, duplicates, reordering — plus scripted one-shot faults
  ("drop the 7th controller→MB message");
* **reliable delivery**: each direction is one
  :class:`~repro.runtime.arq.ArqDirection` (strict order, unbounded window,
  never gives up), so per-channel FIFO survives drops, duplicates, and
  reordering, and retransmitted requests are idempotent at the receiver.  The
  channel's own part is the wire format: a per-direction sequence number
  (``cseq``) stamped on every payload message and lightweight cumulative
  ``CHAN_ACK`` frames.

Both layers are off by default: a channel constructed without a fault plan
(and without ``reliable=True``) behaves — and schedules — exactly like the
seed implementation, byte-for-byte on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Callable, Dict, Optional

from ..net.simulator import Simulator
from ..runtime.arq import DEFAULT_RTO_LATENCY_MULTIPLE, ArqDirection, Fate, SeededFaultPlan
from .messages import Message, MessageType, batch_message, chan_ack, parse

#: Default one-way control-channel latency (seconds): a LAN round trip share.
DEFAULT_CONTROL_LATENCY = 200e-6

#: Default control-channel bandwidth (bytes/second): 1 Gbps.
DEFAULT_CONTROL_BANDWIDTH = 125_000_000.0

#: The two directions of a channel, each the other's acknowledgement path.
REVERSE = {"to_mb": "to_controller", "to_controller": "to_mb"}


# =========================================================================================
# Fault model
# =========================================================================================


@dataclass(frozen=True)
class FaultProfile:
    """Random fault probabilities for one direction of a control channel.

    ``drop``, ``duplicate``, and ``reorder`` are per-message probabilities;
    ``jitter`` is the maximum *extra* delivery latency expressed as a multiple
    of the channel's base latency (``jitter=2.0`` means each message is
    delayed by up to 2x the base latency, uniformly).
    """

    drop: float = 0.0
    duplicate: float = 0.0
    jitter: float = 0.0
    reorder: float = 0.0


class FaultPlan(SeededFaultPlan):
    """A seeded, deterministic fault-injection plan for one control channel.

    ``FaultPlan(seed, to_mb=FaultProfile(...), to_controller=..., scripted=[...])``
    or ``FaultPlan.symmetric(seed, drop=..., ...)``.  Scripted faults are
    :class:`~repro.runtime.arq.ScriptedFault` of kind ``"drop"``: the channel
    silently drops the *nth* payload message (CHAN_ACK frames are not
    counted) transmitted ``"to_mb"`` or ``"to_controller"``.
    """

    DIRECTIONS = ("to_mb", "to_controller")
    PROFILE = FaultProfile

    def draw(self, profile: FaultProfile, at: float, latency: float) -> Fate:
        """Drop, reorder, jitter (only when configured), duplicate — in that order."""
        rng = self.rng
        if rng.random() < profile.drop:
            return "drop", at, False, None
        at, reordered = self.reorder(profile.reorder, at, latency)
        if profile.jitter > 0:
            at += rng.random() * profile.jitter * latency
        duplicate_at = at + latency * rng.random() if rng.random() < profile.duplicate else None
        return None, at, reordered, duplicate_at


# =========================================================================================
# Channel accounting
# =========================================================================================


@dataclass
class ChannelStats:
    """Counters for one direction of a control channel."""

    messages: int = 0
    bytes: int = 0
    #: BATCH frames among ``messages`` (each counts as one wire message).
    batches: int = 0
    #: Requests delivered inside those BATCH frames.
    framed_messages: int = 0
    #: Fault injection: messages lost / delivered twice / delayed out of order.
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    #: Reliable delivery: retransmitted payloads, duplicates discarded at the
    #: receiver, and CHAN_ACK frames sent in this direction.
    retransmits: int = 0
    dedup_discards: int = 0
    chan_acks: int = 0


# =========================================================================================
# The channel
# =========================================================================================


class ControlChannel:
    """A bidirectional message channel between the controller and one middlebox."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        latency: float = DEFAULT_CONTROL_LATENCY,
        bandwidth: float = DEFAULT_CONTROL_BANDWIDTH,
        faults: Optional[FaultPlan] = None,
        reliable: Optional[bool] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.latency = latency
        self.bandwidth = bandwidth
        self.faults = faults
        #: Reliable delivery defaults to on exactly when faults are injected:
        #: a lossy channel without retransmission would wedge every ACK-gated
        #: operation, and a clean channel needs no sequencing overhead.
        self.reliable = (faults is not None) if reliable is None else reliable
        self.retransmit_timeout = max(DEFAULT_RTO_LATENCY_MULTIPLE * latency, 1e-4)
        self.to_mb = ChannelStats()
        self.to_controller = ChannelStats()
        #: Sequencing state per direction: unbounded window, never gives up,
        #: strict order.  A direction is *closed* while its receiving endpoint
        #: is gone — the middlebox crashed (``to_mb``) or the controller side
        #: was detached by an unregister (``to_controller``).
        self._arq: Dict[str, ArqDirection] = {direction: self._new_direction(direction) for direction in REVERSE}
        #: The endpoint handler bound at the receiving end of each direction,
        #: and the arrival callback its wire dispatches to.
        self._handlers: Dict[str, Optional[Callable[[Message], None]]] = dict.fromkeys(REVERSE)
        self._receivers = {direction: partial(self._receive, direction) for direction in REVERSE}
        #: Serialisation points: one runtime lane per direction models wire
        #: occupancy (``reserve``) and delivers in order (``dispatch_at``).
        self._wire = {direction: sim.lane(f"{name}:{direction}") for direction in REVERSE}
        self._xids = count(1)  # numbers the channel's own frames: BATCH and CHAN_ACK

    def _new_direction(self, direction: str) -> ArqDirection:
        return ArqDirection(self.sim, self.retransmit_timeout, partial(self._transmit, direction))

    # -- wiring ---------------------------------------------------------------------

    def bind_controller(self, handler: Callable[[Message], None]) -> None:
        """Register the controller-side message handler.

        Re-binding after :meth:`unbind_controller` revives the channel: the
        MB→controller direction's state is reset wholesale (both the closed
        sender half and the receiver's resequencing expectations) so a
        reused channel starts a fresh, consistent session.
        """
        self._handlers["to_controller"] = handler
        if self.controller_detached:
            self._arq["to_controller"] = self._new_direction("to_controller")

    def unbind_controller(self) -> None:
        """Detach the controller side (the middlebox was unregistered).

        Subsequent middlebox->controller messages — late replies, lingering
        events from a terminated instance — are silently dropped instead of
        being dispatched through a stale binding.  The middlebox-side reliable
        sender stops retransmitting: there is no controller left to ack.
        """
        self._handlers["to_controller"] = None
        self._arq["to_controller"].close()

    def bind_middlebox(self, handler: Callable[[Message], None]) -> None:
        """Register the middlebox-side message handler.

        Re-binding after :meth:`set_middlebox_down` (an instance revived or a
        channel object reused for a replacement) resets the controller→MB
        direction's state wholesale — without this the sender half would stay
        closed and silently stop tracking/retransmitting.
        """
        self._handlers["to_mb"] = handler
        if self.middlebox_down:
            self._arq["to_mb"] = self._new_direction("to_mb")

    def set_middlebox_down(self) -> None:
        """The middlebox instance crashed: stop delivering (and retransmitting) to it.

        Controller->middlebox deliveries already in flight are discarded at
        arrival; the controller-side reliable sender drops its unacked queue
        so a dead instance cannot keep retransmission timers alive forever.
        """
        self._arq["to_mb"].close()

    @property
    def middlebox_down(self) -> bool:
        """True once the middlebox side of the channel was declared crashed."""
        return self._arq["to_mb"].closed

    @property
    def controller_detached(self) -> bool:
        """True once the controller side was detached (middlebox unregistered)."""
        return self._arq["to_controller"].closed

    # -- sending ---------------------------------------------------------------------

    def send_to_middlebox(self, message: Message) -> float:
        """Send a message from the controller to the middlebox; returns delivery time."""
        if self._handlers["to_mb"] is None:
            raise RuntimeError(f"channel {self.name} has no middlebox handler bound")
        return self._send("to_mb", message)

    def send_many_to_middlebox(self, batch: list) -> float:
        """Deliver several requests as one framed BATCH channel message.

        This is the wire half of the controller's batched southbound
        dispatch: the channel pays its per-message latency (and one
        serialisation slot) once for the whole batch instead of once per
        request.  A single-element batch degenerates to a plain send.
        Returns the delivery time of the frame.
        """
        if not batch:
            return self.sim.now
        if len(batch) == 1:
            return self.send_to_middlebox(batch[0])
        frame = batch_message(batch[0].mb, batch)
        frame.xid = next(self._xids)
        self.to_mb.batches += 1
        self.to_mb.framed_messages += len(batch)
        return self.send_to_middlebox(frame)

    def send_to_controller(self, message: Message) -> float:
        """Send a message from the middlebox to the controller; returns delivery time."""
        if self._handlers["to_controller"] is None:
            if self.controller_detached:
                return self.sim.now  # unregistered middlebox: drop silently
            raise RuntimeError(f"channel {self.name} has no controller handler bound")
        return self._send("to_controller", message)

    def _send(self, direction: str, message: Message) -> float:
        """Put a payload message on the wire, sequenced when the channel is reliable.

        The wire carries a stamped copy; the caller's object is left alone,
        so sending it again cannot renumber a tracked entry.  CHAN_ACK frames
        stay unsequenced (they are the ack channel itself).
        """
        if not self.reliable or message.type == MessageType.CHAN_ACK:
            return self._transmit(direction, message)
        arq = self._arq[direction]
        return arq.send(message.stamped(arq.next_seq))

    # -- the wire ---------------------------------------------------------------------

    def _stats_for(self, direction: str) -> ChannelStats:
        return self.to_mb if direction == "to_mb" else self.to_controller

    def _transmit(self, direction: str, message: Message, retry: bool = False) -> float:
        """Serialise, apply faults, and schedule delivery of one message.

        The receiver gets a message re-decoded from the wire bytes, never the
        sender's object.
        """
        stats = self._stats_for(direction)
        if retry:
            stats.retransmits += 1
        wire = self._wire[direction]
        encoded = message.encode()
        stats.messages += 1
        stats.bytes += len(encoded)
        transfer = len(encoded) / self.bandwidth if self.bandwidth else 0.0
        finish = wire.reserve(transfer)
        delivery_time = finish + self.latency
        receiver = self._receivers[direction]
        if self.faults is not None:
            lost, delivery_time, reordered, duplicate_at = self.faults.decide(
                direction, message.type != MessageType.CHAN_ACK, delivery_time, self.latency
            )
            if lost:
                stats.dropped += 1
                return finish + self.latency
            if reordered:
                stats.reordered += 1
            if duplicate_at is not None:
                stats.duplicated += 1
                wire.dispatch_at(duplicate_at, receiver, Message.decode(encoded))
        wire.dispatch_at(delivery_time, receiver, Message.decode(encoded))
        return delivery_time

    # -- receiving ----------------------------------------------------------------------

    def _receive(self, direction: str, message: Message) -> None:
        """Arrival at an endpoint: ack absorption, or in-sequence dispatch and a cumulative ack."""
        handler = self._handlers[direction]
        if handler is None or self._arq[direction].closed:
            return  # crashed middlebox / detached controller: discard silently
        reverse = REVERSE[direction]
        if message.type == MessageType.CHAN_ACK:
            self._arq[reverse].absorb_ack(parse(message)["cum"])
            return
        if not self.reliable or message.cseq is None:
            handler(message)
            return
        arq = self._arq[direction]
        if not arq.receive(message.cseq, message, handler):
            # Retransmission of something already delivered (or already
            # buffered): discarded, but re-acked so the sender stops resending.
            self._stats_for(direction).dedup_discards += 1
        if not self._arq[reverse].closed:  # nobody left on the other end to ack to
            self._stats_for(reverse).chan_acks += 1
            ack = chan_ack(self.name, arq.expected - 1)
            ack.xid = next(self._xids)
            self._transmit(reverse, ack)

    # -- accounting ------------------------------------------------------------------

    @property
    def total_messages(self) -> int:
        return self.to_mb.messages + self.to_controller.messages

    @property
    def total_bytes(self) -> int:
        return self.to_mb.bytes + self.to_controller.bytes

    @property
    def total_retransmits(self) -> int:
        """Retransmitted payload messages across both directions."""
        return self.to_mb.retransmits + self.to_controller.retransmits

    @property
    def total_dropped(self) -> int:
        """Messages lost to injected faults across both directions."""
        return self.to_mb.dropped + self.to_controller.dropped
