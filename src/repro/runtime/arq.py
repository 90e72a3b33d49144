"""Sequenced reliable delivery and seeded fault plans, written once.

The paper's loss-free and order-preserving guarantees rest on a FIFO, reliable
controller↔middlebox channel; the data plane repairs corrupting links the
LinkGuardian way.  Both are the same two ideas, and both instantiate them from
here:

* :class:`ArqDirection` — one direction of an automatic-repeat-request
  protocol: numbered frames, a hold table re-sent from on a timer, duplicate
  discard and in-sequence hand-up.  It owns no wire format: a *carrier*
  (:class:`repro.core.channel.ControlChannel`,
  :class:`repro.net.protection.LinkProtection`) stamps the number onto its own
  frame type, moves frames and acknowledgements over its own wire, and keeps
  its own counters.
* :class:`SeededFaultPlan` — per-direction fault probabilities and scripted
  one-shot faults for such a wire, every draw taken from one
  ``random.Random(seed)`` in one place (:meth:`SeededFaultPlan.decide`), so a
  seed reproduces the same fault sequence bit for bit.

This module programs against the runtime's ``now`` and ``schedule`` only and
imports nothing from ``repro.core`` or ``repro.net``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

#: Retransmit timeout as a multiple of the carrier's one-way latency.  A round
#: trip is two latencies; eight keeps recovery well under any end-to-end
#: timeout of a few hops while riding out serialisation jitter.
DEFAULT_RTO_LATENCY_MULTIPLE = 8.0


class ArqDirection:
    """Sender and receiver state of one direction of a sequenced wire.

    Args:
        runtime: anything with ``now`` and ``schedule(delay, callback)``.
        rto: seconds an unacknowledged frame waits before it is re-sent.
        transmit: ``transmit(frame, retry)`` makes one attempt on the
            carrier's wire (*retry* is True for every attempt after the
            first) and returns what the carrier's send should return.
        strict: hand frames up strictly in sequence, buffering arrivals above
            a gap (True), or the moment they arrive (False).
        window: hold-table capacity; frames sent while it is full wait in a
            backlog — the sender is paused, nothing is forgotten.  ``None``
            is unbounded.
        max_retries: re-sends of one frame before the sender gives up on it
            and calls *on_abandon* (so the loss is counted); ``None`` never does.
        copy: frames the layer above mutates are copied into the hold table
            and out of it again for every re-send; ``None`` holds and re-sends
            the frame object itself.
    """

    def __init__(
        self,
        runtime: Any,
        rto: float,
        transmit: Callable[[Any, bool], Optional[float]],
        *,
        strict: bool = True,
        window: Optional[int] = None,
        max_retries: Optional[int] = None,
        copy: Optional[Callable[[Any], Any]] = None,
        on_abandon: Optional[Callable[[], None]] = None,
    ) -> None:
        self._runtime = runtime
        self.rto = rto
        self._transmit = transmit
        self.strict = strict
        self.window = window
        self.max_retries = max_retries
        self._copy = copy
        self._on_abandon = on_abandon
        # Sender half: the number the next frame carries, the hold table
        # seq -> [frame, last transmission time, retries] (filled in sequence
        # order, so its keys ascend), and the frames paused behind a full table.
        self.next_seq = 1
        self.holds: Dict[int, list] = {}
        self.backlog: Deque[Tuple[int, Any]] = deque()
        self._timer_armed = False
        #: True while the receiving end is gone: frames are still numbered but
        #: not held, so a dead peer cannot keep the timer alive forever.
        self.closed = False
        # Receiver half: the next number to hand up, arrivals above it (the
        # frame under strict order; None once handed up under loose order),
        # and when each missing number was last NACKed.
        self.expected = 1
        self.pending: Dict[int, Any] = {}
        self._nacked_at: Dict[int, float] = {}

    # -- sender half ------------------------------------------------------------

    def send(self, frame: Any) -> Optional[float]:
        """Track *frame* — which the carrier stamped with :attr:`next_seq` — and attempt it.

        Returns the first attempt's result, or None while the frame waits in
        the backlog, behind a full table or behind earlier waiting frames.
        """
        seq = self.next_seq
        self.next_seq = seq + 1
        if self.closed:
            return self._transmit(frame, False)
        if self.backlog or (self.window is not None and len(self.holds) >= self.window):
            self.backlog.append((seq, frame))
            return None
        return self._launch(seq, frame)

    def _launch(self, seq: int, frame: Any) -> Optional[float]:
        held = frame if self._copy is None else self._copy(frame)
        self.holds[seq] = [held, self._runtime.now, 0]
        self._arm_timer()
        return self._transmit(frame, False)

    def _drain_backlog(self) -> None:
        """Move paused frames into freed hold slots, in sequence order."""
        backlog = self.backlog
        while backlog and len(self.holds) < self.window:
            self._launch(*backlog.popleft())

    def _arm_timer(self) -> None:
        """One retransmit check at a time per direction."""
        if not self._timer_armed:
            self._timer_armed = True
            self._runtime.schedule(self.rto, self._on_timer)

    def _on_timer(self) -> None:
        """Re-send the oldest held frame once it has aged past the RTO.

        Only the head is re-sent.  Cumulative acks leave the whole tail held
        behind one gap even though the receiver already buffered it, so
        re-sending the gap head lets the receiver drain and jump the ack over
        the tail; re-sending everything would turn one loss in a long
        pipelined stream into a go-back-N storm.
        """
        self._timer_armed = False
        if not self.holds:  # all acknowledged (a backlog only waits behind holds) — or closed
            return
        head = min(self.holds)
        entry = self.holds[head]
        if entry[1] <= self._runtime.now - self.rto + 1e-12:
            if self.max_retries is not None and entry[2] >= self.max_retries:
                del self.holds[head]
                if self._on_abandon is not None:
                    self._on_abandon()
                self._drain_backlog()
            else:
                self._retransmit(entry)
        self._arm_timer()

    def _retransmit(self, entry: list) -> None:
        entry[1] = self._runtime.now
        entry[2] += 1
        self._transmit(entry[0] if self._copy is None else self._copy(entry[0]), True)

    def absorb_ack(self, cum: int, have: Iterable[int] = (), need: Iterable[int] = ()) -> None:
        """Free acknowledged holds and service NACKs.

        *cum* acknowledges every number up to and including it; *have* lists
        numbers the receiver holds above its gap; *need* asks for re-sends.
        The keys ascend, so the cumulative scan stops at the first one above *cum*.
        """
        holds = self.holds
        acked = []
        for seq in holds:
            if seq > cum:
                break
            acked.append(seq)
        for seq in acked:
            del holds[seq]
        for seq in have:
            holds.pop(seq, None)
        for seq in need:
            entry = holds.get(seq)
            if entry is not None:
                self._retransmit(entry)
        self._drain_backlog()

    def close(self) -> int:
        """The receiving end is gone: stop tracking; returns how many frames that forgets."""
        forgotten = self.outstanding
        self.holds.clear()
        self.backlog.clear()
        self.closed = True
        return forgotten

    @property
    def outstanding(self) -> int:
        """Held plus backlogged frames the sender half still tracks."""
        return len(self.holds) + len(self.backlog)

    # -- receiver half ----------------------------------------------------------

    def receive(self, seq: int, frame: Any, deliver: Callable[[Any], None]) -> bool:
        """One arrival numbered *seq*; False when it is a duplicate (discarded).

        Hands up, through *deliver*, whatever the arrival makes deliverable:
        under strict order the run of buffered frames it completes, under
        loose order the frame itself.
        """
        pending = self.pending
        if seq < self.expected or seq in pending:
            return False
        strict = self.strict
        pending[seq] = frame if strict else None
        while self.expected in pending:
            ready = pending.pop(self.expected)
            self._nacked_at.pop(self.expected, None)
            self.expected += 1
            if strict:
                deliver(ready)
        if not strict:
            deliver(frame)
        return True

    def ack_state(self) -> Tuple[int, List[int], List[int]]:
        """``(cum, have, need)`` for the carrier's next acknowledgement.

        ``cum`` is the last number handed up in sequence, ``have`` the numbers
        received above the gap (the sender frees those holds instead of
        re-sending them), ``need`` the missing numbers below the highest
        arrival — each NACKed at most once per RTO.  A carrier that
        acknowledges cumulatively only reads ``expected - 1`` and skips this.
        """
        pending = self.pending
        need: List[int] = []
        if pending:
            now = self._runtime.now
            cutoff = now - self.rto
            nacked_at = self._nacked_at
            for missing in range(self.expected, max(pending)):
                if missing in pending or nacked_at.get(missing, -1.0) > cutoff:
                    continue
                nacked_at[missing] = now
                need.append(missing)
        return self.expected - 1, sorted(pending), need


# =========================================================================================
# Fault model
# =========================================================================================


@dataclass(frozen=True)
class ScriptedFault:
    """One deterministic, one-shot fault from a scenario's script.

    The wire loses the *nth* payload frame (1-based; a carrier's own
    acknowledgement frames are not counted) transmitted in *direction*;
    *kind* says how it is accounted — ``"drop"``, or ``"corrupt"`` on wires
    that tell the two apart.  A plan's per-direction ordinals only grow, so
    the fault fires once per plan; the script itself is never written, and
    every plan built from it fires it.
    """

    kind: str
    direction: str
    nth: int


#: What :meth:`SeededFaultPlan.decide` returns: how the frame was lost (None =
#: it arrives), its delivery time, whether that was pushed past a successor,
#: and when a duplicate of it arrives (None = no duplicate).
Fate = Tuple[Optional[str], float, bool, Optional[float]]


class SeededFaultPlan:
    """A seeded, deterministic fault-injection plan for one two-way wire.

    All randomness flows from a single ``random.Random(seed)``, so two runs
    with the same plan (and the same simulated workload) inject byte-for-byte
    identical faults — the property every reproducibility claim in this
    repository rests on.  A subclass names its two directions (which are also
    the constructor's keyword arguments), its profile (a frozen dataclass of
    one rate per fault class, all zero by default), and the order in which it
    draws.
    """

    DIRECTIONS: Tuple[str, str]
    PROFILE: type

    def __init__(self, seed: int = 0, *, scripted: Optional[List[ScriptedFault]] = None, **profiles: Any) -> None:
        unknown = set(profiles) - set(self.DIRECTIONS)
        if unknown:
            raise TypeError(f"{type(self).__name__} has no direction {sorted(unknown)}")
        self.seed = seed
        self.rng = random.Random(seed)
        self.profiles = {direction: profiles.get(direction) or self.PROFILE() for direction in self.DIRECTIONS}
        #: Directions whose profile can fire at all; the others draw nothing.
        self._active = {d for d, profile in self.profiles.items() if any(rate > 0 for rate in vars(profile).values())}
        self.scripted: List[ScriptedFault] = list(scripted or [])
        #: Payload frames seen per direction — the index space scripted faults
        #: refer to, kept apart from acknowledgement frames so they cannot skew it.
        self._ordinal = dict.fromkeys(self.DIRECTIONS, 0)

    @classmethod
    def symmetric(cls, seed: int = 0, *, scripted: Optional[List[ScriptedFault]] = None, **rates: float):
        """A plan applying the same fault probabilities in both directions."""
        return cls(seed, scripted=scripted, **{direction: cls.PROFILE(**rates) for direction in cls.DIRECTIONS})

    def decide(self, direction: str, payload: bool, at: float, latency: float) -> Fate:
        """The fate of one transmission in *direction*, due to arrive at *at*.

        *payload* is False for the carrier's own acknowledgement frames, which
        scripted faults do not count.  The random draws happen in a fixed
        order for every frame (see :meth:`draw`) so a given seed always
        produces the same fault sequence regardless of which probabilities
        are zero.
        """
        if payload:
            self._ordinal[direction] = ordinal = self._ordinal[direction] + 1
            for fault in self.scripted:
                if fault.direction == direction and fault.nth == ordinal:
                    return fault.kind, at, False, None
        if direction not in self._active:
            return None, at, False, None
        return self.draw(self.profiles[direction], at, latency)

    def draw(self, profile: Any, at: float, latency: float) -> Fate:
        """The subclass's random draws for one frame, in its fixed order."""
        raise NotImplementedError

    def reorder(self, rate: float, at: float, latency: float) -> Tuple[float, bool]:
        """Draw for reordering: push *at* past roughly one successor's delivery window."""
        if self.rng.random() < rate:
            return at + 2.0 * latency * (1.0 + self.rng.random()), True
        return at, False
