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
  (``cseq``) spliced into each payload frame's one encoding, and cumulative
  ``CHAN_ACK`` frames written straight to bytes.

Both layers are off by default: a channel constructed without a fault plan
(and without ``reliable=True``) behaves — and schedules — exactly like the
seed implementation, byte-for-byte on the wire.

A death — of an instance, a controller or a federation domain — is one call,
:meth:`ControlChannel.close` of the dead end: nothing reaches it, and it sends,
re-sends and schedules nothing more.  Only a frame it sent before it died can
still arrive at the live end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Callable, Dict, Optional, Set

from ..net.simulator import Simulator
from ..obs import Counters
from ..runtime.arq import DEFAULT_RTO_LATENCY_MULTIPLE, ArqDirection, Fate, SeededFaultPlan
from .messages import Message, MessageType, batch_message, encode_chan_ack, parse

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


#: Counters for one direction of a control channel.
CHANNEL_COUNTERS = (
    "messages", "bytes",
    #: BATCH frames among ``messages`` (each counts as one wire message).
    "batches",
    #: Requests delivered inside those BATCH frames.
    "framed_messages",
    #: Fault injection: messages lost / delivered twice / delayed out of order.
    "dropped", "duplicated", "reordered",
    #: Reliable delivery: retransmitted payloads, duplicates discarded at the
    #: receiver, and CHAN_ACK frames sent in this direction.
    "retransmits", "dedup_discards", "chan_acks",
)


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
        self.to_mb = Counters(*CHANNEL_COUNTERS)
        self.to_controller = Counters(*CHANNEL_COUNTERS)
        #: Sequencing state per direction: unbounded window, never gives up,
        #: strict order.  Both are *closed* — hold nothing — from a :meth:`close` to the next bind.
        self._arq: Dict[str, ArqDirection] = {direction: self._new_direction(direction) for direction in REVERSE}
        #: The endpoint handler bound at the receiving end of each direction,
        #: and the arrival callback its wire dispatches to.
        self._handlers: Dict[str, Optional[Callable[[Message], None]]] = dict.fromkeys(REVERSE)
        self._receivers = {direction: partial(self._receive, direction) for direction in REVERSE}
        #: Serialisation points: one runtime lane per direction models wire
        #: occupancy (``reserve``) and delivers in order (``dispatch_at``).
        self._wire = {direction: sim.lane(f"{name}:{direction}") for direction in REVERSE}
        self._xids = count(1)  # numbers the channel's own frames: BATCH and CHAN_ACK
        #: Per direction, when a frame new to its receiver last arrived: the sender's liveness evidence.
        self.heard_at = dict.fromkeys(REVERSE, sim.now)
        #: The dead ends, each named by the direction that delivers to it, and the closes so far.
        self._dead: Set[str] = set()
        self.session = 0

    def _new_direction(self, direction: str) -> ArqDirection:
        return ArqDirection(self.sim, self.retransmit_timeout, partial(self._transmit, direction))

    # -- wiring ---------------------------------------------------------------------

    def bind_controller(self, handler: Callable[[Message], None]) -> None:
        """Register the controller-side message handler (see :meth:`_bind`)."""
        self._bind("to_controller", handler)

    def bind_middlebox(self, handler: Callable[[Message], None]) -> None:
        """Register the middlebox-side message handler (see :meth:`_bind`)."""
        self._bind("to_mb", handler)

    def _bind(self, direction: str, handler: Callable[[Message], None]) -> None:
        """Bind the end *direction* delivers to; after a :meth:`close`, both directions start a fresh session."""
        self._handlers[direction] = handler
        self._dead.discard(direction)
        self.heard_at[direction] = self.sim.now
        if self._arq[direction].closed:
            self._arq = {each: self._new_direction(each) for each in REVERSE}

    def close(self, end: str) -> None:
        """The process at *end* (``"controller"`` or ``"middlebox"``) died: the channel's one teardown.

        Nothing reaches the dead end and it sends nothing more; neither
        direction holds or re-sends anything.  :attr:`session` moves on, so the
        work an agent scheduled in the old session is void.
        """
        self._dead.add("to_controller" if end == "controller" else "to_mb")
        self.session += 1
        for arq in self._arq.values():
            arq.close()

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
            raise RuntimeError(f"channel {self.name} has no controller handler bound")
        return self._send("to_controller", message)

    def _send(self, direction: str, message: Message) -> float:
        """Encode a payload message once — numbered, when the channel is reliable — and put it on the wire.

        The next ``cseq`` goes into the bytes, which the hold table keeps; the caller's object is left alone.
        A dead end sends nothing.
        """
        if REVERSE[direction] in self._dead:
            return self.sim.now
        if not self.reliable:
            return self._transmit(direction, message.encode())
        arq = self._arq[direction]
        return arq.send(message.encode(arq.next_seq))

    # -- the wire ---------------------------------------------------------------------

    def _stats_for(self, direction: str) -> Counters:
        return self.to_mb if direction == "to_mb" else self.to_controller

    def _transmit(self, direction: str, encoded: bytes, retry: bool = False, ack: bool = False) -> float:
        """Apply faults to one frame's bytes (*ack*: a CHAN_ACK, which scripted faults skip) and schedule delivery.

        The receiver gets a message decoded from the bytes, never the sender's object.
        """
        stats = self._stats_for(direction)
        if retry:
            stats.retransmits += 1
        wire = self._wire[direction]
        stats.messages += 1
        stats.bytes += len(encoded)
        transfer = len(encoded) / self.bandwidth if self.bandwidth else 0.0
        finish = wire.reserve(transfer)
        delivery_time = finish + self.latency
        receiver = self._receivers[direction]
        if self.faults is not None:
            lost, delivery_time, reordered, duplicate_at = self.faults.decide(direction, not ack, delivery_time, self.latency)
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
        """Arrival at an endpoint: ack absorption, or in-sequence dispatch and a cumulative ack.

        The one liveness rule: a frame new to its receiver, even one held above a gap, moves ``heard_at``."""
        if direction in self._dead:
            return  # nothing reaches a dead end
        handler = self._handlers[direction]
        reverse = REVERSE[direction]
        if message.type == MessageType.CHAN_ACK:
            self._arq[reverse].absorb_ack(parse(message)["cum"])
            return
        if not self.reliable or message.cseq is None:
            self.heard_at[direction] = self.sim.now
            handler(message)
            return
        arq = self._arq[direction]
        if arq.receive(message.cseq, message, handler):
            self.heard_at[direction] = self.sim.now
        else:
            # Retransmission of something already delivered (or already
            # buffered): discarded, but re-acked so the sender stops resending.
            self._stats_for(direction).dedup_discards += 1
        if not self._arq[reverse].closed:  # nobody left on the other end to ack to
            self._stats_for(reverse).chan_acks += 1
            self._transmit(reverse, encode_chan_ack(self.name, arq.expected - 1, next(self._xids)), ack=True)

    # -- accounting ------------------------------------------------------------------

    @property
    def total_messages(self) -> int:
        return self.to_mb.messages + self.to_controller.messages

    @property
    def total_bytes(self) -> int:
        return self.to_mb.bytes + self.to_controller.bytes
