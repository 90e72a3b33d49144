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
  ("drop the 7th controller→MB message", "kill the destination at t=2ms");
* **reliable delivery**: every payload message is stamped with a per-direction
  monotonic channel sequence number (``cseq``), the receiver delivers strictly
  in sequence order (out-of-order arrivals wait in a resequencing buffer,
  duplicates are discarded), acknowledges cumulatively with lightweight
  ``CHAN_ACK`` frames, and the sender retransmits unacknowledged messages on a
  timeout.  Per-channel FIFO therefore survives drops, duplicates, and
  reordering, and retransmitted requests are idempotent at the receiver.

Both layers are off by default: a channel constructed without a fault plan
(and without ``reliable=True``) behaves — and schedules — exactly like the
seed implementation, byte-for-byte on the wire.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from ..net.simulator import Simulator
from .messages import Message, MessageType, batch_message, chan_ack

#: Default one-way control-channel latency (seconds): a LAN round trip share.
DEFAULT_CONTROL_LATENCY = 200e-6

#: Default control-channel bandwidth (bytes/second): 1 Gbps.
DEFAULT_CONTROL_BANDWIDTH = 125_000_000.0

#: Retransmit timeout as a multiple of the one-way channel latency (≈4 RTTs).
DEFAULT_RTO_LATENCY_MULTIPLE = 8.0


# =========================================================================================
# Fault model
# =========================================================================================


@dataclass
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

    @property
    def active(self) -> bool:
        """True when any fault of this profile can actually fire."""
        return self.drop > 0 or self.duplicate > 0 or self.jitter > 0 or self.reorder > 0


@dataclass
class ScriptedFault:
    """One deterministic, one-shot fault from a chaos scenario's script.

    Two kinds are understood:

    * ``kind="drop"`` — the channel silently drops the *nth* payload message
      (1-based; CHAN_ACK frames are not counted) transmitted in *direction*
      (``"to_mb"`` or ``"to_controller"``);
    * ``kind="kill"`` — the middlebox named *mb* crashes at simulated time
      *at*.  Kill faults are not executed by the channel; the chaos runner
      (:mod:`repro.testing.chaos`) reads them from the plan and schedules the
      controller-side crash.
    """

    kind: str
    direction: str = "to_mb"
    nth: int = 0
    mb: str = ""
    at: float = 0.0
    #: Set once the fault has fired (one-shot bookkeeping).
    fired: bool = False


class FaultPlan:
    """A seeded, deterministic fault-injection plan for one control channel.

    All randomness flows from a single ``random.Random(seed)``, so two runs
    with the same plan (and the same simulated workload) inject byte-for-byte
    identical faults — the property the chaos harness's reproducibility
    invariant rests on.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        to_mb: Optional[FaultProfile] = None,
        to_controller: Optional[FaultProfile] = None,
        scripted: Optional[List[ScriptedFault]] = None,
    ) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.to_mb = to_mb or FaultProfile()
        self.to_controller = to_controller or FaultProfile()
        self.scripted: List[ScriptedFault] = list(scripted or [])

    @classmethod
    def symmetric(
        cls,
        seed: int = 0,
        *,
        drop: float = 0.0,
        duplicate: float = 0.0,
        jitter: float = 0.0,
        reorder: float = 0.0,
        scripted: Optional[List[ScriptedFault]] = None,
    ) -> "FaultPlan":
        """A plan applying the same fault probabilities in both directions."""
        return cls(
            seed,
            to_mb=FaultProfile(drop=drop, duplicate=duplicate, jitter=jitter, reorder=reorder),
            to_controller=FaultProfile(drop=drop, duplicate=duplicate, jitter=jitter, reorder=reorder),
            scripted=scripted,
        )

    def profile_for(self, direction: str) -> FaultProfile:
        """The random-fault profile applied to *direction* of the channel."""
        return self.to_mb if direction == "to_mb" else self.to_controller

    def take_scripted_drop(self, direction: str, index: int) -> bool:
        """Consume a scripted drop for the *index*-th message of *direction*."""
        for fault in self.scripted:
            if fault.kind == "drop" and not fault.fired and fault.direction == direction and fault.nth == index:
                fault.fired = True
                return True
        return False

    def kill_faults(self) -> List[ScriptedFault]:
        """The scripted instance-kill faults (executed by the chaos runner)."""
        return [fault for fault in self.scripted if fault.kind == "kill"]


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

    def record(self, size: int) -> None:
        self.messages += 1
        self.bytes += size


class _ReliableDirection:
    """Sender + receiver state for one direction of a reliable channel."""

    __slots__ = ("next_cseq", "unacked", "timer_armed", "expected", "pending", "closed")

    def __init__(self) -> None:
        # Sender side: next sequence number to stamp, unacknowledged messages
        # as cseq -> [message, last transmission time].
        self.next_cseq = 1
        self.unacked: Dict[int, list] = {}
        self.timer_armed = False
        # Receiver side: next sequence expected, out-of-order resequencing buffer.
        self.expected = 1
        self.pending: Dict[int, Message] = {}
        #: True once the receiving endpoint went away: retransmissions stop.
        self.closed = False


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
        reencode: bool = True,
        faults: Optional[FaultPlan] = None,
        reliable: Optional[bool] = None,
        retransmit_timeout: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.latency = latency
        self.bandwidth = bandwidth
        self.reencode = reencode
        self.faults = faults
        #: Reliable delivery defaults to on exactly when faults are injected:
        #: a lossy channel without retransmission would wedge every ACK-gated
        #: operation, and a clean channel needs no sequencing overhead.
        self.reliable = (faults is not None) if reliable is None else reliable
        self.retransmit_timeout = (
            retransmit_timeout
            if retransmit_timeout is not None
            else max(DEFAULT_RTO_LATENCY_MULTIPLE * latency, 1e-4)
        )
        self.to_mb = ChannelStats()
        self.to_controller = ChannelStats()
        self._rel: Dict[str, _ReliableDirection] = {
            "to_mb": _ReliableDirection(),
            "to_controller": _ReliableDirection(),
        }
        #: Payload frames (excluding CHAN_ACKs) transmitted per direction —
        #: the index space scripted "drop the nth message" faults refer to,
        #: kept separate so ack frames and retransmissions do not skew it.
        self._payload_sent: Dict[str, int] = {"to_mb": 0, "to_controller": 0}
        self._controller_handler: Optional[Callable[[Message], None]] = None
        self._mb_handler: Optional[Callable[[Message], None]] = None
        #: True once the controller side was explicitly detached (unregister):
        #: middlebox->controller messages are then dropped instead of raising.
        self._controller_detached = False
        #: True once the middlebox side crashed (kill): controller->middlebox
        #: deliveries are discarded and retransmissions stop.
        self._mb_down = False
        #: Serialisation points: one runtime lane per direction models wire
        #: occupancy (``reserve``) and delivers in order (``dispatch_at``).
        #: On the realtime runtime each direction is its own asyncio task.
        self._wire = {
            "to_mb": sim.lane(f"{name}:to_mb"),
            "to_controller": sim.lane(f"{name}:to_controller"),
        }

    # -- wiring ---------------------------------------------------------------------

    def bind_controller(self, handler: Callable[[Message], None]) -> None:
        """Register the controller-side message handler.

        Re-binding after :meth:`unbind_controller` revives the channel: the
        MB→controller reliable-direction state is reset wholesale (both the
        closed sender half and the receiver's resequencing expectations) so a
        reused channel starts a fresh, consistent session.
        """
        self._controller_handler = handler
        if self._controller_detached:
            self._rel["to_controller"] = _ReliableDirection()
        self._controller_detached = False

    def unbind_controller(self) -> None:
        """Detach the controller side (the middlebox was unregistered).

        Subsequent middlebox->controller messages — late replies, lingering
        events from a terminated instance — are silently dropped instead of
        being dispatched through a stale binding.  The middlebox-side reliable
        sender stops retransmitting: there is no controller left to ack.
        """
        self._controller_handler = None
        self._controller_detached = True
        self._rel["to_controller"].closed = True
        self._rel["to_controller"].unacked.clear()

    def bind_middlebox(self, handler: Callable[[Message], None]) -> None:
        """Register the middlebox-side message handler.

        Re-binding after :meth:`set_middlebox_down` (an instance revived or a
        channel object reused for a replacement) resets the controller→MB
        reliable-direction state wholesale — without this the sender half
        would stay ``closed`` and silently stop tracking/retransmitting.
        """
        self._mb_handler = handler
        if self._mb_down:
            self._rel["to_mb"] = _ReliableDirection()
        self._mb_down = False

    def set_middlebox_down(self) -> None:
        """The middlebox instance crashed: stop delivering (and retransmitting) to it.

        Controller->middlebox deliveries already in flight are discarded at
        arrival; the controller-side reliable sender drops its unacked queue
        so a dead instance cannot keep retransmission timers alive forever.
        """
        self._mb_down = True
        self._rel["to_mb"].closed = True
        self._rel["to_mb"].unacked.clear()

    @property
    def middlebox_down(self) -> bool:
        """True once the middlebox side of the channel was declared crashed."""
        return self._mb_down

    @property
    def controller_detached(self) -> bool:
        """True once the controller side was detached (middlebox unregistered)."""
        return self._controller_detached

    # -- sending ---------------------------------------------------------------------

    def send_to_middlebox(self, message: Message) -> float:
        """Send a message from the controller to the middlebox; returns delivery time."""
        if self._mb_handler is None:
            raise RuntimeError(f"channel {self.name} has no middlebox handler bound")
        return self._transmit(self._stamp_reliable("to_mb", message), "to_mb")

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
        self.to_mb.batches += 1
        self.to_mb.framed_messages += len(batch)
        return self.send_to_middlebox(frame)

    def send_to_controller(self, message: Message) -> float:
        """Send a message from the middlebox to the controller; returns delivery time."""
        if self._controller_handler is None:
            if self._controller_detached:
                return self.sim.now  # unregistered middlebox: drop silently
            raise RuntimeError(f"channel {self.name} has no controller handler bound")
        return self._transmit(self._stamp_reliable("to_controller", message), "to_controller")

    def _stamp_reliable(self, direction: str, message: Message) -> Message:
        """Sequence a payload message and track it for retransmission.

        Returns the stamped copy to put on the wire; the caller's object is
        left alone, so sending it again cannot renumber a tracked entry.
        CHAN_ACK frames stay unsequenced (they are the ack channel itself);
        with the direction's sender half closed (endpoint gone) the message is
        still stamped for receiver-side consistency but no longer tracked.
        """
        if not self.reliable or message.type == MessageType.CHAN_ACK:
            return message
        state = self._rel[direction]
        stamped = replace(message, cseq=state.next_cseq)
        state.next_cseq += 1
        if not state.closed:
            state.unacked[stamped.cseq] = [stamped, self.sim.now]
            self._arm_retransmit(direction)
        return stamped

    # -- the wire ---------------------------------------------------------------------

    def _stats_for(self, direction: str) -> ChannelStats:
        return self.to_mb if direction == "to_mb" else self.to_controller

    def _transmit(self, message: Message, direction: str) -> float:
        """Serialise, apply faults, and schedule delivery of one message."""
        stats = self._stats_for(direction)
        wire = self._wire[direction]
        encoded = message.encode()
        stats.record(len(encoded))
        transfer = len(encoded) / self.bandwidth if self.bandwidth else 0.0
        finish = wire.reserve(transfer)
        delivery_time = finish + self.latency
        if message.type != MessageType.CHAN_ACK:
            self._payload_sent[direction] += 1
        if self.faults is not None:
            delivery_time = self._apply_faults(message, encoded, direction, stats, delivery_time)
            if delivery_time is None:
                return finish + self.latency  # dropped on the wire
        delivered = Message.decode(encoded) if self.reencode else message
        receiver = self._receive_at_middlebox if direction == "to_mb" else self._receive_at_controller
        wire.dispatch_at(delivery_time, receiver, delivered)
        return delivery_time

    def _apply_faults(
        self,
        message: Message,
        encoded: bytes,
        direction: str,
        stats: ChannelStats,
        delivery_time: float,
    ) -> Optional[float]:
        """Mutate one delivery according to the fault plan; None = dropped.

        The random draws happen in a fixed order for every message (drop,
        reorder, jitter, duplicate) so a given seed always produces the same
        fault sequence regardless of which probabilities are zero.
        """
        plan = self.faults
        if message.type != MessageType.CHAN_ACK and plan.take_scripted_drop(
            direction, self._payload_sent[direction]
        ):
            stats.dropped += 1
            return None
        profile = plan.profile_for(direction)
        if not profile.active:
            return delivery_time
        rng = plan.rng
        if rng.random() < profile.drop:
            stats.dropped += 1
            return None
        if rng.random() < profile.reorder:
            # Push the message past roughly one successor's delivery window.
            stats.reordered += 1
            delivery_time += 2.0 * self.latency * (1.0 + rng.random())
        if profile.jitter > 0:
            delivery_time += rng.random() * profile.jitter * self.latency
        if rng.random() < profile.duplicate:
            stats.duplicated += 1
            copy = Message.decode(encoded) if self.reencode else message
            receiver = self._receive_at_middlebox if direction == "to_mb" else self._receive_at_controller
            self._wire[direction].dispatch_at(delivery_time + self.latency * rng.random(), receiver, copy)
        return delivery_time

    # -- receiving (reliability layer) --------------------------------------------------

    def _receive_at_middlebox(self, message: Message) -> None:
        """Arrival at the middlebox endpoint: ack absorption, resequencing, dispatch."""
        if self._mb_down or self._mb_handler is None:
            return
        if message.type == MessageType.CHAN_ACK:
            self._absorb_ack("to_controller", message)
            return
        if not self.reliable or message.cseq is None:
            self._mb_handler(message)
            return
        self._sequenced_deliver("to_mb", message, self._mb_handler, self._ack_to_controller)

    def _receive_at_controller(self, message: Message) -> None:
        """Arrival at the controller endpoint: ack absorption, resequencing, dispatch."""
        if self._controller_handler is None:
            return  # detached (unregistered middlebox): drop silently
        if message.type == MessageType.CHAN_ACK:
            self._absorb_ack("to_mb", message)
            return
        if not self.reliable or message.cseq is None:
            self._controller_handler(message)
            return
        self._sequenced_deliver("to_controller", message, self._controller_handler, self._ack_to_mb)

    def _sequenced_deliver(
        self,
        direction: str,
        message: Message,
        handler: Callable[[Message], None],
        send_ack: Callable[[int], None],
    ) -> None:
        """Deliver in cseq order: buffer gaps, discard duplicates, ack cumulatively."""
        state = self._rel[direction]
        cseq = message.cseq
        if cseq < state.expected or cseq in state.pending:
            # Retransmission of something already delivered (or already
            # buffered): discard, but re-ack so the sender stops resending.
            self._stats_for(direction).dedup_discards += 1
            send_ack(state.expected - 1)
            return
        state.pending[cseq] = message
        while state.expected in state.pending:
            next_message = state.pending.pop(state.expected)
            state.expected += 1
            handler(next_message)
        send_ack(state.expected - 1)

    def _ack_to_controller(self, cumulative: int) -> None:
        """Middlebox endpoint acks controller→MB sequence *cumulative*."""
        if self._controller_detached:
            return
        self.to_controller.chan_acks += 1
        self._transmit(chan_ack(self.name, cumulative), "to_controller")

    def _ack_to_mb(self, cumulative: int) -> None:
        """Controller endpoint acks MB→controller sequence *cumulative*."""
        if self._mb_down:
            return
        self.to_mb.chan_acks += 1
        self._transmit(chan_ack(self.name, cumulative), "to_mb")

    def _absorb_ack(self, direction: str, message: Message) -> None:
        """Drop every unacked message of *direction* covered by a cumulative ack."""
        state = self._rel[direction]
        cumulative = int(message.body.get("cum", 0))
        for cseq in [cseq for cseq in state.unacked if cseq <= cumulative]:
            del state.unacked[cseq]

    # -- retransmission -----------------------------------------------------------------

    def _arm_retransmit(self, direction: str) -> None:
        """Schedule the direction's retransmit check (one timer at a time)."""
        state = self._rel[direction]
        if state.timer_armed:
            return
        state.timer_armed = True
        self.sim.schedule(self.retransmit_timeout, self._retransmit_check, direction)

    def _retransmit_check(self, direction: str) -> None:
        """Resend the oldest unacked message once it ages past the RTO.

        Only the head of the unacked queue is retransmitted: acks are
        cumulative, so a single gap leaves the entire tail unacknowledged even
        though the receiver already buffered it.  Resending just the gap head
        lets the receiver drain its resequencing buffer and jump the
        cumulative ack over the whole tail — without this, one drop in a long
        pipelined chunk stream triggers a go-back-N retransmission storm.
        """
        state = self._rel[direction]
        state.timer_armed = False
        if state.closed or not state.unacked:
            return
        cutoff = self.sim.now - self.retransmit_timeout + 1e-12
        head = min(state.unacked)
        entry = state.unacked[head]
        if entry[1] <= cutoff:
            self._stats_for(direction).retransmits += 1
            entry[1] = self.sim.now
            self._transmit(entry[0], direction)
        self._arm_retransmit(direction)

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
