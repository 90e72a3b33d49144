"""Northbound operation state machines.

The controller (paper section 5) turns each northbound call into a sequence of
southbound requests.  The sequencing logic for the three stateful operations —
``moveInternal``, ``cloneSupport``, and ``mergeInternal`` — lives here, one
object per operation, parameterised by a
:class:`~repro.core.transfer.TransferSpec`.

An operation touches the world only through its *port*, which
:class:`~repro.core.controller.MBController` implements and a test can fake:

* the clock — ``now``, ``schedule(delay, fn, *args)`` and ``event(name)``;
* ``send(mb, message, on_reply, *args, shard=...)``, which returns False for
  an unregistered instance; a pending reply is data — the bound method the
  reply goes to and its arguments — never a closure;
* ``forward_event``, ``note_perflow_installed``, ``is_registered``,
  ``start_move`` (a standby retry), ``operation_finished`` and the ``stats``
  counters.

What else an operation needs — op id, home shard, shards, the quiescence
timeout, the ``buffer_events`` switch, whether another pre-copy from the same
source is live — is fixed when the controller builds it.

* **move** (Figure 5): issue per-flow supporting and reporting gets at the
  source; stream every chunk to the destination through the spec's pipeline —
  sequential (window of 1), pipelined (bounded or unbounded window), or
  batched (many chunks per ``PUT_PERFLOW_BATCH`` with one ACK); apply the
  spec's guarantee to the re-process events raised meanwhile — dropped
  (``NO_GUARANTEE``), buffered per flow until the destination ACKs that
  flow's state and then replayed (``LOSS_FREE``), or replayed in order behind
  a destination-side per-flow packet hold that ``TRANSFER_RELEASE`` lifts
  (``ORDER_PRESERVING``).  The operation *returns* when both gets have
  completed, every put is ACKed, and (order-preserving) every moved flow is
  released; after a quiescence period with no further events, it deletes the
  moved state at the source.  A move with a standby that loses its
  destination retries once, as a fresh move on the same handle.
* **clone**: get shared supporting state at the source, put it at the
  destination; forward shared re-process events after the put is ACKed; after
  quiescence, tell the source the transfer ended (no delete).
* **merge**: like clone but for shared supporting *and* shared reporting
  state; the destination's own merge logic combines the states.

``TransferSpec.default()`` reproduces the seed's original single flavor:
loss-free with puts issued as chunks stream in.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

from . import messages
from .errors import InstanceDeadError, OperationError, UnknownMiddleboxError
from .events import Event
from .flowspace import FlowKey, FlowPattern
from .messages import Message, MessageType
from .state import TAXONOMY, StateChunk, StateRole, StateScope
from .transfer import TransferGuarantee, TransferMode, TransferSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..net.simulator import Future


class OperationType(enum.Enum):
    """Kinds of northbound operations the controller brokers."""

    READ_CONFIG = "readConfig"
    WRITE_CONFIG = "writeConfig"
    STATS = "stats"
    MOVE = "moveInternal"
    CLONE = "cloneSupport"
    MERGE = "mergeInternal"


@dataclass
class OperationRecord:
    """Measurements collected for one northbound operation."""

    op_id: int
    type: OperationType
    src: str
    dst: str
    pattern: Optional[FlowPattern] = None
    started_at: float = 0.0
    completed_at: Optional[float] = None
    finalized_at: Optional[float] = None
    chunks_transferred: int = 0
    bytes_transferred: int = 0
    events_received: int = 0
    events_buffered: int = 0
    events_forwarded: int = 0
    events_dropped: int = 0
    #: Events raised before this operation started (stale markers left by a
    #: failed predecessor move): their updates are already inside this
    #: operation's snapshot, so replaying them would double-apply.
    events_stale: int = 0
    puts_acked: int = 0
    batches_sent: int = 0
    releases_sent: int = 0
    #: Flows the order-preserving release sweep examined: host work, linear
    #: in the moved flows (never per release ACK).
    closure_scan_steps: int = 0
    #: Frozen flows a late chunk (the flow's other state role) re-held after
    #: their state was ACKed.
    flows_reopened: int = 0
    deleted_chunks: int = 0
    #: Controller shard whose event/ACK loop ran this operation.
    home_shard: int = 0
    #: TransferSpec parameters the operation ran with.
    guarantee: str = TransferGuarantee.LOSS_FREE.value
    parallelism: int = 0
    batch_size: int = 1
    early_release: bool = False
    #: Copy discipline the operation ran under ("snapshot" or "precopy").
    mode: str = TransferMode.SNAPSHOT.value
    #: Pre-copy: copy rounds performed before the stop-and-copy freeze
    #: (the bulk round counts as one; snapshot operations report 0).
    precopy_rounds: int = 0
    #: WAN-adaptive inter-round pacing gain the operation ran with
    #: (see :attr:`~repro.core.transfer.TransferSpec.wan_pacing`).
    wan_pacing: float = 0.0
    #: Per-round measurements: one dict per copy round with ``round``,
    #: ``chunks``, ``bytes``, ``dirty_after`` (flows re-dirtied while the round
    #: streamed), ``duration``, and ``final`` (the stop-and-copy round).
    rounds: List[dict] = field(default_factory=list)
    #: When the freeze (event-buffering window) began: the operation start for
    #: snapshot transfers, the stop-and-copy round for pre-copy transfers.
    freeze_started_at: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        """Time from start until the operation returned (None while running)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    @property
    def freeze_window(self) -> Optional[float]:
        """Length of the event-buffering/freeze window (None while running).

        For snapshot moves this equals :attr:`duration`; for pre-copy moves it
        covers only the final stop-and-copy round — the quantity the pre-copy
        discipline exists to shrink.
        """
        if self.completed_at is None or self.freeze_started_at is None:
            return None
        return self.completed_at - self.freeze_started_at


class OperationHandle:
    """What a control application gets back from a stateful northbound call.

    Three futures resolve in order:

    * ``state_installed`` — every state chunk the source exported has been put
      and ACKed at the destination.  This is the earliest point at which
      re-routing the affected flows is safe, and it is what the transaction
      coordinator orders route installation on (re-process events absorb the
      remaining races);
    * ``completed`` — the operation returns in the paper's sense (all puts
      ACKed, and — for order-preserving transfers — every moved flow
      released);
    * ``finalized`` — the post-quiescence step ran (delete at the source for
      moves, transfer-end for clone/merge).

    A move with a standby keeps its one handle across both attempts:
    ``record`` and ``_operation`` follow the current attempt.
    """

    def __init__(self, port, record: OperationRecord) -> None:
        self.record = record
        self.state_installed: Future = port.event(f"{record.type.value}#{record.op_id}.installed")
        self.completed: Future = port.event(f"{record.type.value}#{record.op_id}")
        self.finalized: Future = port.event(f"{record.type.value}#{record.op_id}.finalized")
        #: Back-reference for transaction abort; set by the operation itself.
        self._operation: Optional["_StatefulOperation"] = None


def _lost(name: str, dead: bool, when: str) -> UnknownMiddleboxError:
    """The error for losing *name* *when*: it crashed (*dead*) or was unregistered."""
    verb = "died" if dead else "was unregistered"
    return (InstanceDeadError if dead else UnknownMiddleboxError)(f"middlebox {name!r} {verb} {when}")


def _roles_where(scope: StateScope, permitted: str) -> Tuple[StateRole, ...]:
    """Roles whose *scope* cell Table 1 marks *permitted* (``movable`` / ``cloneable`` / ``mergeable``), in its order."""
    return tuple(cell.role for cell in TAXONOMY.values() if cell.scope is scope and getattr(cell, permitted))


class _StatefulOperation:
    """Shared machinery for move/clone/merge: the record, the handle, quiescence and failure."""

    op_type: OperationType = OperationType.MOVE
    #: Whether the operation runs the pre-copy discipline (only a move can).
    precopy = False

    def __init__(
        self,
        port,
        src: str,
        dst: str,
        pattern: Optional[FlowPattern],
        spec: Optional[TransferSpec],
        *,
        op_id: int,
        home_shard,
        shards,
        quiescence_timeout: float,
        buffer_events: bool,
        handle: Optional[OperationHandle] = None,
    ) -> None:
        self.port = port
        self.src = src
        self.dst = dst
        self.pattern = pattern
        self.spec = spec or TransferSpec.default()
        #: Home shard: the controller loop that sends this operation's
        #: southbound requests and absorbs their replies/ACKs.
        self.home_shard = home_shard
        #: Every shard the operation's pattern could own flows on; the
        #: controller broadcasts its event interest to all of them.
        self.shards = shards
        self.quiescence_timeout = quiescence_timeout
        self.buffer_events = buffer_events
        self.record = OperationRecord(
            op_id=op_id,
            type=self.op_type,
            src=src,
            dst=dst,
            pattern=pattern,
            started_at=port.now,
            home_shard=home_shard.shard_id,
            guarantee=self.spec.guarantee.value,
            parallelism=self.spec.parallelism,
            batch_size=self.spec.batch_size,
            early_release=self.spec.early_release,
            # PRECOPY with max_rounds=0 degrades to snapshot; record what ran.
            mode=(TransferMode.PRECOPY if self.spec.is_precopy else TransferMode.SNAPSHOT).value,
            wan_pacing=self.spec.wan_pacing,
        )
        if handle is None:
            handle = OperationHandle(port, self.record)
        handle.record = self.record
        handle._operation = self
        self.handle = handle
        self._last_event_at = port.now
        self._finalize_scheduled = False
        self._finalized = False
        self._archived = False
        #: (event id, destination) replay-dedup tokens this operation added;
        #: pruned from the controller when the operation finishes.
        self._forward_tokens: Set[Tuple[int, str]] = set()
        #: (destination, flow key) install-sequence tokens this operation
        #: stamped; pruned alongside the replay tokens.
        self._install_tokens: Set[Tuple[str, FlowKey]] = set()

    # -- inputs from the controller ----------------------------------------------------

    def abort(self, exc: Exception) -> bool:
        """Abort on behalf of a failing transaction; returns True when acted.

        An operation still in flight is failed outright (for order-preserving
        moves this releases the destination's per-flow packet holds via the
        normal failure cleanup).  An operation that already completed but has
        not yet finalised has its destructive post-quiescence step (the source
        delete / transfer-end) cancelled so the source keeps its state.
        """
        if self._archived or self._finalized:
            return False
        if not self.handle.completed.done:
            self._fail(exc)
            return True
        self._finalized = True
        if not self.handle.finalized.done:
            self.handle.finalized.fail(exc)
        self._finish()
        return True

    def instance_down(self, name: str, dead: bool) -> None:
        """*name* crashed (*dead*) or was unregistered: fail if the operation still needs it.

        An operation that already completed is left to finalise; it tolerates
        a missing middlebox (the post-quiescence step's send just fails).
        """
        if self._archived or name not in (self.src, self.dst) or self.handle.completed.done:
            return
        self._fail(_lost(name, dead, f"during {self.op_type.value}"))

    # -- completion and failure ----------------------------------------------------------

    def _complete(self) -> None:
        """Resolve the completed (and, if pending, state_installed) futures."""
        if self.handle.completed.done:
            return
        if not self.handle.state_installed.done:
            self.handle.state_installed.succeed(self.record)
        self.record.completed_at = self.port.now
        self.handle.completed.succeed(self.record)
        self._arm_quiescence()

    def _fail(self, exc: Exception) -> None:
        """Count the failure, fail every unresolved future with *exc*, and archive the operation."""
        if self._archived:
            return
        # Cancel any scheduled quiescence finalisation so the operation cannot
        # be archived a second time after failing.
        self._finalized = True
        if not self.handle.completed.done:
            self.port.stats.operations_failed += 1  # before any caller's callback runs
        self._fail_handle(exc)
        self._finish()

    def _fail_handle(self, exc: Exception) -> None:
        """Fail every unresolved future of the handle with *exc*, in resolution order."""
        for future in (self.handle.state_installed, self.handle.completed, self.handle.finalized):
            if not future.done:
                future.fail(exc)

    def _fail_on_error(self, reply: Message, where: str) -> Optional[dict]:
        """Fail the operation when *reply* is an ERROR (or malformed) from *where*; otherwise its typed fields."""
        kind, fields = messages.parse_reply(reply)
        if kind != MessageType.ERROR:
            return fields
        self._fail(OperationError(f"{self.op_type.value} failed at {where}: {fields['reason']}"))
        return None

    def _finish(self) -> None:
        """Hand the operation back to the controller exactly once."""
        if self._archived:
            return
        self._archived = True
        self.port.operation_finished(self)

    def _forward(self, event: Event, on_reply=None, *args: object) -> bool:
        """Ensure *event* is replayed at the destination; True when a message went out.

        ``events_forwarded`` counts events whose replay at the destination
        this operation ensured — including ones a concurrent operation's
        replay already covers (``"covered"``), where no duplicate message is
        sent and ``on_reply(reply, *args)`` will never run.
        """
        disposition = self.port.forward_event(self.dst, event, on_reply, *args, shard=self.home_shard)
        self.record.events_forwarded += 1
        self._forward_tokens.add((event.event_id, self.dst))
        return disposition == "sent"

    # -- quiescence ------------------------------------------------------------------------

    def _arm_quiescence(self) -> None:
        """Schedule the quiescence check that triggers finalisation."""
        if self._finalize_scheduled or self._finalized:
            return
        self._finalize_scheduled = True
        self.port.schedule(self.quiescence_timeout, self._quiescence_check)

    def _quiescence_check(self) -> None:
        """Finalize if the operation has been idle for the quiescence timeout."""
        self._finalize_scheduled = False
        if self._finalized:
            return
        idle_for = self.port.now - self._last_event_at
        if idle_for + 1e-12 >= self.quiescence_timeout:
            self._finalized = True
            self._finalize()
        else:
            # Events arrived recently; check again once the remaining idle time elapses.
            self._finalize_scheduled = True
            self.port.schedule(self.quiescence_timeout - idle_for, self._quiescence_check)

    def _mark_finalized(self) -> None:
        """Resolve the finalized future and hand the record to the archive."""
        self.record.finalized_at = self.port.now
        if not self.handle.finalized.done:
            self.handle.finalized.succeed(self.record)
        self._finish()


class _Closure:
    """One moved flow on its way held → replaying(n) → releasing → released.

    The stages are separate fields because a late chunk (the flow's other
    state role) can re-hold the flow at any point, and the fresh cycle its
    ACK starts may overlap a release still in flight.
    """

    __slots__ = ("replays", "releasing", "released", "reopened")

    def __init__(self) -> None:
        self.replays = 0  #: replayed events awaiting their destination ACK
        self.releasing = False  #: a TRANSFER_RELEASE is awaiting its ACK
        self.released = False
        self.reopened = False  #: re-held by a chunk not yet ACKed

    @property
    def held(self) -> bool:
        """True while nothing in flight will lift the flow's hold."""
        return not (self.replays or self.releasing or self.released)


class MoveOperation(_StatefulOperation):
    """moveInternal: relocate per-flow supporting and reporting state.

    Runs in one of two copy disciplines selected by ``spec.mode``:

    * **snapshot** (the seed, paper Figure 5): one get per role marks every
      matching flow in-transfer up front, so events buffer for the whole
      transfer.
    * **pre-copy** (``spec.is_precopy``): a bulk round streams the state with
      dirty tracking armed and the source un-frozen; bounded delta rounds
      resend only the dirtied chunks (round-tagged so stale rounds are
      superseded at the destination); once the dirty set reported at the end
      of a round is at most ``spec.dirty_threshold`` — or ``spec.max_rounds``
      delta rounds have run — a final stop-and-copy round freezes (marks) the
      flows and moves only the residual delta, shrinking the event-buffering
      window from O(total state) to O(final dirty set).

    The chunk pipeline: ``parallelism`` bounds the put/batch messages awaiting
    an ACK (0 = unbounded, the seed's put-on-arrival); ``batch_size`` packs
    chunks into one ``PUT_PERFLOW_BATCH``.  When the last chunk of a flow is
    ACKed, the guarantee acts on that flow: loss-free flushes its buffered
    events; order-preserving replays them (each replay ACKed) and then sends
    the flow's ``TRANSFER_RELEASE``, completing once every moved flow is
    released.  Forwarding a flow's events earlier would let the chunk
    overwrite the replayed updates (atomicity requirement (iii)); the
    ``buffer_events`` ablation switch turns that buffering off.

    With a *standby*, losing the destination
    (:class:`~repro.core.errors.UnknownMiddleboxError`, which covers crashes
    and unregisters) while source and standby live on does not fail the
    handle: a fresh move to the standby — new op id, new record — takes it
    over.  That retry is loss-free because a failed move never deletes (or
    finalises) anything at the source: it re-exports the full, current state.
    """

    op_type = OperationType.MOVE
    _roles = _roles_where(StateScope.PER_FLOW, "movable")

    def __init__(
        self,
        port,
        src: str,
        dst: str,
        pattern: FlowPattern,
        spec: Optional[TransferSpec] = None,
        *,
        precopy_live: bool = False,
        standby: Optional[str] = None,
        **fixed,
    ) -> None:
        super().__init__(port, src, dst, pattern, spec, **fixed)
        self.standby = standby
        #: True between the standby-retry decision and the retry's launch
        #: (the source's release ACK is pending).
        self._awaiting_standby = False
        self._order = self.spec.holds_destination_flows
        self._gets_outstanding = 0
        #: The current round's gets have completed (the stream is closed).
        self._source_done = False
        #: Chunks accepted but not yet put on the wire (window closed / batch filling).
        self._queue: Deque[StateChunk] = deque()
        #: Put/batch messages sent and not yet ACKed.
        self._in_flight = 0
        #: Canonical flow key -> chunks sent or queued but not yet ACKed.
        self._pending_chunks: Dict[FlowKey, int] = {}
        #: Flows whose chunks seen so far are all ACKed.
        self._acked_flows: Set[FlowKey] = set()
        #: Every flow whose state entered the pipeline (canonical keys).
        self.flows: Set[FlowKey] = set()
        #: Events held per flow until the guarantee lets them replay.
        self._buffered: Dict[FlowKey, List[Event]] = {}
        #: Order-preserving: each moved flow's replay-then-release progress.
        self._closures: Dict[FlowKey, _Closure] = {}
        #: Flows that may have become held since the last release sweep.
        self._unswept: Set[FlowKey] = set()
        #: Flows mid-replay plus releases in flight; zero means drained.
        #: Counted on stage transitions only: a duplicated ACK fires a reply
        #: handler twice and must not be counted twice.
        self._awaiting = 0
        self._deletes_pending = 0
        self.precopy = self.spec.is_precopy
        if self.precopy and precopy_live:
            # A store has exactly one dirty-tracking context: a second
            # concurrent pre-copy from the same source would clear — and at
            # its own freeze, stop — the first move's tracking and silently
            # lose updates.  Fall back to the snapshot discipline, which
            # composes with anything.
            self.precopy = False
            self.record.mode = TransferMode.SNAPSHOT.value
        #: Pre-copy round state: current round index (0 = bulk), whether the
        #: stop-and-copy freeze has begun, and per-round measurement scratch.
        self._round = 0
        self._in_final_phase = not self.precopy
        self._round_started_at = port.now
        self._round_chunks = 0
        self._round_bytes = 0
        self._round_dirty: Dict[str, int] = {}

    @property
    def _put_round_tag(self) -> Optional[Tuple[int, int]]:
        """Round tag stamped on this round's puts; None keeps snapshot wire identical.

        The tag pairs the operation id with the round index, so it is
        monotonic across rounds *and* across successive operations touching
        the same destination flows (a later move's round 0 always supersedes
        an earlier move's final round).
        """
        if not self.precopy:
            return None
        return (self.record.op_id, self._round)

    # -- copy rounds ---------------------------------------------------------------------

    def start(self) -> None:
        """Issue the first per-role gets: round 0, the only round of a snapshot."""
        if not self.precopy:
            self.record.freeze_started_at = self.record.started_at
        self._begin_copy_round()

    def _begin_copy_round(self) -> None:
        """Start one copy round: bulk (round 0), delta, or final stop-and-copy."""
        self._round_started_at = self.port.now
        self._round_chunks = 0
        self._round_bytes = 0
        self._round_dirty = {}
        self._source_done = False
        for role in self._roles:
            self._gets_outstanding += 1
            if self._round == 0:
                # A snapshot's bulk get freezes the flows behind re-process
                # events; a pre-copy's arms dirty tracking and lets them run.
                message = messages.get_perflow(
                    self.src,
                    role,
                    self.pattern,
                    transfer=not self.precopy,
                    track_dirty=self.precopy,
                    compress=self.spec.compress,
                )
            else:
                message = messages.get_perflow_delta(
                    self.src, role, self.pattern, final=self._in_final_phase, compress=self.spec.compress
                )
            self.port.send(self.src, message, self._on_src_reply, shard=self.home_shard)

    def _record_round(self, dirty_after: int) -> None:
        """Archive the finished round's chunk/byte/dirty measurements."""
        self.record.rounds.append(
            {
                "round": self._round,
                "chunks": self._round_chunks,
                "bytes": self._round_bytes,
                "dirty_after": dirty_after,
                "duration": self.port.now - self._round_started_at,
                "final": self._in_final_phase,
            }
        )

    def _finish_round_and_advance(self) -> None:
        """A warm round drained: decide between another delta round and the freeze."""
        dirty_total = sum(self._round_dirty.values())
        self._record_round(dirty_total)
        if dirty_total <= self.spec.dirty_threshold or self._round >= self.spec.max_rounds:
            self._enter_final_phase()
        else:
            self._round += 1
            # WAN-adaptive pacing: stretch the gap before the next delta round
            # by the measured duration of the round that just drained, scaled
            # by the spec's pacing gain.  Over a slow or jittery inter-domain
            # channel the observed round duration already folds in bandwidth,
            # latency, and jitter, so the pacing self-tunes without probing.
            # A zero gain (the default) keeps today's back-to-back scheduling
            # with no extra simulator events.
            pacing_delay = self.spec.wan_pacing * self.record.rounds[-1]["duration"]
            if pacing_delay > 0:
                self.port.schedule(pacing_delay, self._start_paced_round)
            else:
                self._begin_copy_round()

    def _start_paced_round(self) -> None:
        """Timer continuation for a WAN-paced delta round (no-op if aborted)."""
        if self._archived:
            return
        self._begin_copy_round()

    def _enter_final_phase(self) -> None:
        """Begin the stop-and-copy round: freeze the flows, move the residual delta.

        From this instant events must buffer per flow again: a flow ACKed in
        an earlier round may receive a final delta chunk, and replaying its
        events before that chunk installs would let the chunk overwrite the
        replayed updates.  So the per-flow ACK history is forgotten; flows
        that get no final chunk have their events flushed when the round
        drains — by then every final install has been ACKed.
        """
        self._round += 1
        self._in_final_phase = True
        self.record.precopy_rounds = self._round
        self.record.freeze_started_at = self.port.now
        self._acked_flows.clear()
        if self._order and self.flows:
            # Order preservation covers every moved flow, but only final-round
            # puts carry the hold flag and clean flows get no final put.  Hold
            # them all up front — the channel's FIFO applies this before any
            # final-round install, replay, or release — and the final-phase
            # release sweep lifts each one after its ordered replay.
            self.port.send(self.dst, messages.transfer_hold(self.dst, sorted(self.flows)), shard=self.home_shard)
        self._begin_copy_round()

    def _on_src_reply(self, message: Message) -> None:
        """Absorb the source's chunk stream, round completions, and errors."""
        if self._archived:
            return  # late reply for a failed operation
        fields = self._fail_on_error(message, f"source {self.src}")
        if fields is None:
            return
        if message.type == MessageType.STATE_CHUNK:
            chunk = fields["chunk"]
            self.record.chunks_transferred += 1
            self.record.bytes_transferred += chunk.size
            self._round_chunks += 1
            self._round_bytes += chunk.size
            self._add_chunk(chunk)
        elif message.type == MessageType.GET_COMPLETE:
            if fields["dirty"] is not None:
                self._round_dirty[fields["role"]] = fields["dirty"]
            self._gets_outstanding -= 1
            if self._gets_outstanding == 0:
                self._source_done = True  # flush a partially filled batch
                self._dispatch()
                self._check_complete()

    # -- the chunk pipeline --------------------------------------------------------------

    def _add_chunk(self, chunk: StateChunk) -> None:
        """Accept one streamed chunk and dispatch it when the window allows."""
        canonical = chunk.key.bidirectional()
        if canonical in self._acked_flows:
            # A flow's supporting and reporting chunks stream from two
            # independent gets, so a second chunk can arrive after the first
            # was already ACKed (and the flow's events flushed/released).
            # Reopen the flow: events buffer again until this chunk is ACKed.
            self._acked_flows.discard(canonical)
            self._flow_reopened(canonical)
        self.flows.add(canonical)
        self._pending_chunks[canonical] = self._pending_chunks.get(canonical, 0) + 1
        self._queue.append(chunk)
        self._dispatch()

    def _dispatch(self) -> None:
        """Put queued chunks on the wire while the parallelism window allows."""
        if self._archived:
            return  # the operation failed; do not keep feeding the destination
        # Order-preserving holds apply only once the destination may actually
        # see live traffic for the flow — i.e. not during pre-copy warm rounds.
        hold = self._order and self._in_final_phase
        round_tag = self._put_round_tag
        spec, queue = self.spec, self._queue
        while queue and (spec.parallelism == 0 or self._in_flight < spec.parallelism):
            if spec.batch_size > 1:
                if len(queue) < spec.batch_size and not self._source_done:
                    return  # wait for a full batch (or the end of the stream)
                batch = [queue.popleft() for _ in range(min(spec.batch_size, len(queue)))]
                message = messages.put_perflow_batch(self.dst, batch, hold=hold, round=round_tag)
                keys = tuple(chunk.key.bidirectional() for chunk in batch)
                self.record.batches_sent += 1
            else:
                chunk = queue.popleft()
                message = messages.put_perflow(self.dst, chunk, hold=hold, round=round_tag)
                keys = (chunk.key.bidirectional(),)
            self._in_flight += 1
            self.port.send(self.dst, message, self._on_put_reply, keys, shard=self.home_shard)

    def _on_put_reply(self, message: Message, keys: Tuple[FlowKey, ...]) -> None:
        """Book an ACK (or fail on ERROR) for the put covering *keys*."""
        if self._archived:
            return  # late reply for a failed operation
        if message.type != MessageType.ACK:
            self._fail_on_error(message, f"destination {self.dst}")
            return
        self._in_flight -= 1
        self.record.puts_acked += len(keys)
        # Stamp the install sequence *before* the per-flow flushes run:
        # replays issued below must compare as ordered after this install
        # (they are applied at the destination after it).
        self.port.note_perflow_installed(self.dst, keys, operation=self)
        for canonical in keys:
            remaining = self._pending_chunks.get(canonical, 0) - 1
            if remaining <= 0:
                self._pending_chunks.pop(canonical, None)
                self._acked_flows.add(canonical)
                self._flow_acked(canonical)
            else:
                self._pending_chunks[canonical] = remaining
        self._dispatch()
        self._check_complete()

    def _flow_reopened(self, canonical: FlowKey) -> None:
        """A new chunk arrived for a flow whose earlier chunks were ACKed."""
        if not self._in_final_phase:
            return  # warm pre-copy rounds carry no event/release obligations
        self.record.flows_reopened += 1
        if self._order:
            # The later chunk re-installed the hold; the flow needs a fresh release.
            closure = self._closures[canonical]
            closure.released = False
            closure.reopened = True
            self._unswept.add(canonical)

    def _flow_acked(self, canonical: FlowKey) -> None:
        """All chunks of this flow are installed at the destination."""
        if not self._in_final_phase:
            # Warm pre-copy rounds: the flow is not frozen (no buffered events
            # to flush, no hold to release, no source marker to clear), and a
            # later round may resend it anyway.
            return
        if self._order:
            closure = self._closures.get(canonical)
            if closure is None:
                self._closures[canonical] = _Closure()
            else:
                closure.reopened = False
            self._replay_then_release(canonical)
        else:
            for event in self._buffered.pop(canonical, ()):
                self._forward(event)
        if self.spec.early_release:
            # Clear the flow's transfer marker at the source right away so it
            # stops raising re-process events (weaker than pure loss-free:
            # updates hitting the source after this point are not replayed).
            if self.port.send(self.src, messages.transfer_release(self.src, [canonical]), shard=self.home_shard):
                self.record.releases_sent += 1

    def _check_complete(self) -> None:
        """Advance the state machine when the current round's stream has drained."""
        if self.handle.completed.done:
            return
        if not self._source_done or self._queue or self._in_flight or self._pending_chunks:
            return
        if not self._in_final_phase:
            self._finish_round_and_advance()
            return
        if not self.handle.state_installed.done:
            # Every exported chunk is ACKed at the destination.  Re-routing is
            # safe from this point on, which is (deliberately) earlier than
            # ``completed`` for order-preserving transfers: replays and
            # releases still drain while new routes install.
            self.handle.state_installed.succeed(self.record)
        if self._order:
            self._release_unswept()
            if self._awaiting:
                return
        # Whatever is still buffered (its flow's chunk was ACKed meanwhile, or
        # the flow produced no chunk at all) can be replayed now.
        for canonical in list(self._buffered):
            for event in self._buffered.pop(canonical, ()):
                self._forward(event)
        if self.precopy:
            self._record_round(sum(self._round_dirty.values()))
        self._complete()

    # -- the guarantee -------------------------------------------------------------------

    def on_event(self, event: Event) -> None:
        """Apply the spec's guarantee to a re-process event raised by the source.

        Events raised at or before the operation's start are discarded: the
        flows must have been marked by an *earlier* transfer (this one arms
        its own markers only after it starts), so the event's update was
        applied at the source before this operation's snapshot was taken and
        is already inside it.  Replaying such an event — the standby-retry
        race, where a retry inherits in-flight events of the attempt it
        replaces — would double-apply the update at the destination.

        Loss-free buffers the event until its flow's state is ACKed;
        order-preserving until the flow is *released*, so events arriving
        while earlier replays are in flight queue behind them.
        """
        if event.raised_at <= self.record.started_at:
            self.record.events_stale += 1
            return
        self.record.events_received += 1
        self._last_event_at = self.port.now
        if self.spec.guarantee is TransferGuarantee.NO_GUARANTEE:
            self.record.events_dropped += 1  # its update may be lost: the documented trade
            return
        key = event.key.bidirectional() if event.key is not None else None
        if self._order:
            closure = self._closures.get(key)
            settled = closure is not None and closure.released
        else:
            # The pipeline's acked set is the single source of truth: a flow
            # drops out of it when a late chunk reopens it.
            settled = key in self._acked_flows
        if key is None or settled or not self.buffer_events or self.handle.completed.done:
            self._forward(event)
            return
        self.record.events_buffered += 1
        self._buffered.setdefault(key, []).append(event)

    def _replay_then_release(self, canonical: FlowKey) -> None:
        """Replay the flow's buffered events in order, then lift its hold."""
        if self._archived:
            return  # the operation failed; the blanket cleanup release covers dst
        closure = self._closures[canonical]
        sent = 0
        for event in self._buffered.pop(canonical, ()):
            if self._forward(event, self._on_replay_reply, canonical):
                sent += 1
        if sent:
            if not closure.replays:
                self._awaiting += 1
            closure.replays += sent
        elif not closure.replays:
            self._send_release(canonical)

    def _on_replay_reply(self, message: Message, canonical: FlowKey) -> None:
        """Count down the flow's in-flight replays; release when they drain."""
        if self._archived or message.type not in (MessageType.ACK, MessageType.ERROR):
            return
        closure = self._closures[canonical]
        if closure.replays > 1:
            closure.replays -= 1
            return
        if closure.replays:
            closure.replays = 0
            self._awaiting -= 1
        if self._buffered.get(canonical):
            # More events arrived while the replays were in flight; they must
            # be applied before the hold is lifted.
            self._replay_then_release(canonical)
        else:
            self._send_release(canonical)

    def _send_release(self, canonical: FlowKey) -> None:
        """Send the flow's TRANSFER_RELEASE (once) and track its ACK."""
        closure = self._closures[canonical]
        if self._archived or closure.releasing or closure.released:
            return
        closure.releasing = True
        self._awaiting += 1
        self.record.releases_sent += 1
        release = messages.transfer_release(self.dst, [canonical])
        self.port.send(self.dst, release, self._on_release_reply, canonical, shard=self.home_shard)

    def _on_release_reply(self, message: Message, canonical: FlowKey) -> None:
        """The destination lifted the flow's hold: it is released, unless a later chunk re-held it."""
        if self._archived or message.type not in (MessageType.ACK, MessageType.ERROR):
            return
        closure = self._closures[canonical]
        if closure.releasing:
            closure.releasing = False
            self._awaiting -= 1
        if closure.reopened:
            # A later chunk re-held the flow while this release was in
            # flight; keep it un-released so its re-ACK triggers a fresh
            # replay + release cycle.
            self._unswept.add(canonical)
            self._check_complete()
            return
        closure.released = True
        # Events that arrived while the release was in flight race the
        # released packets anyway; forward them immediately (loss-free).
        for event in self._buffered.pop(canonical, ()):
            self._forward(event)
        self._check_complete()

    def _release_unswept(self) -> None:
        """Release every moved flow the final round did not resend.

        Flows resent by the final round run the replay-then-release cycle
        from their put ACKs; flows that were clean at the freeze were held by
        the blanket TRANSFER_HOLD and would otherwise stay held (and their
        post-freeze events stay buffered) forever.  Runs on every ACK once the
        stream has drained, so it examines only the flows that may have become
        held since the last call, and starts those in canonical key order;
        snapshot operations release every flow from its ACK and find none.
        """
        flows = self.flows
        if len(self._closures) < len(flows):
            # Flows no final-round put ACKed have no closure record yet.
            for canonical in flows.difference(self._closures):
                self._closures[canonical] = _Closure()
                self._unswept.add(canonical)
        if not self._unswept:
            return
        self.record.closure_scan_steps += len(self._unswept)
        held = sorted(canonical for canonical in self._unswept if self._closures[canonical].held)
        self._unswept.clear()
        for canonical in held:
            self._replay_then_release(canonical)

    # -- failure, the standby retry, finalisation ----------------------------------------

    def _fail(self, exc: Exception) -> None:
        """Release destination holds and stop source-side tracking, then fail (or retry on the standby)."""
        if self._archived:
            return
        flows = sorted(self.flows)  # key order, so the cleanup does not vary with PYTHONHASHSEED
        if self._order and flows:
            # Order-preserving puts installed per-flow packet holds at the
            # destination; release every flow the pipeline touched so a failed
            # move does not blackhole their traffic.  Releasing a flow that
            # was never held (or already released) is a harmless no-op.
            if self.port.send(self.dst, messages.transfer_release(self.dst, flows), shard=self.home_shard):
                self.record.releases_sent += 1
        if self.precopy:
            # A pre-copy move aborted mid-round leaves the source's dirty
            # tracking armed; the dirty_only TRANSFER_END stops it without
            # clearing transfer markers a concurrent operation from the same
            # source may still rely on.
            self.port.send(self.src, messages.transfer_end(self.src, dirty_only=True), shard=self.home_shard)
        if flows:
            # Clear this move's per-flow transfer markers at the source.  A
            # dead transfer must not keep the flows frozen: their re-process
            # events would stream to a destination that will never install
            # the state, and a standby retry would double-apply updates its
            # own snapshot already contains.  Scoped to the flows this move
            # exported, so markers owned by concurrent operations survive.
            self.port.send(self.src, messages.transfer_release(self.src, flows), shard=self.home_shard)
        if not self._retries_on_standby(exc):
            super()._fail(exc)
            return
        # The handle stays pending for the retry; this attempt still counts
        # as failed.  The retry starts once the source confirmed a (second,
        # idempotent) release of this move's markers.  Events the stale
        # markers raise before the release lands carry updates the retry's
        # snapshot will already contain — replaying them would double-apply.
        # Waiting for the ACK closes the window exactly: the source's channel
        # is FIFO in both directions, so every stale-marker event is
        # dispatched *before* the ACK — while no retry exists to buffer it —
        # and no event can be raised after the release applied.
        self._finalized = True
        self.port.stats.operations_failed += 1
        self.port.stats.standby_retries += 1
        self._awaiting_standby = True
        if not flows or not self.port.send(self.src, messages.transfer_release(self.src, flows), self._launch_standby):
            self._launch_standby()
        self._finish()

    def _retries_on_standby(self, exc: Exception) -> bool:
        """Whether *exc* starts the standby retry: the destination died in flight, source and standby live on."""
        port = self.port
        return (
            self.standby is not None
            and isinstance(exc, UnknownMiddleboxError)
            and self.dst != self.standby
            and not self.handle.completed.done
            and not port.is_registered(self.dst)
            and port.is_registered(self.src)
            and port.is_registered(self.standby)
        )

    def _launch_standby(self, _reply: Optional[Message] = None) -> None:
        """The source released the markers: start the standby attempt on this handle."""
        self._awaiting_standby = False
        for name in (self.src, self.standby):
            if not self.port.is_registered(name):
                self._fail_handle(UnknownMiddleboxError(f"middlebox {name!r} is gone: no standby retry of {self.op_type.value}"))
                return
        self.port.start_move(self.src, self.standby, self.pattern, self.spec, handle=self.handle)

    def instance_down(self, name: str, dead: bool) -> None:
        """As for any operation; while the standby retry awaits the source's release ACK, losing the source fails the handle."""
        if self._awaiting_standby:
            if name == self.src:
                self._awaiting_standby = False
                self._fail_handle(_lost(name, dead, f"before the standby retry of {self.op_type.value}"))
            return
        super().instance_down(name, dead)

    def _finalize(self) -> None:
        """After quiescence: delete the moved state at the source."""
        self._deletes_pending = len(self._roles)
        for role in self._roles:
            # The source may have been terminated (e.g. scale-down) before
            # quiescence; there is nothing left to delete then.
            message = messages.del_perflow(self.src, role, self.pattern)
            if not self.port.send(self.src, message, self._on_delete_reply, shard=self.home_shard):
                self._deletes_pending -= 1
        if self._deletes_pending == 0:
            self._mark_finalized()

    def _on_delete_reply(self, message: Message) -> None:
        """Count one role's delete ACK; the last one finalizes the move."""
        if message.type not in (MessageType.ACK, MessageType.ERROR):
            return
        if message.type == MessageType.ACK:
            self.record.deleted_chunks += messages.parse_reply(message)[1].get("removed", 0)
        self._deletes_pending -= 1
        if self._deletes_pending == 0:
            self._mark_finalized()


class CloneOperation(_StatefulOperation):
    """cloneSupport: copy shared supporting state from source to destination.

    Shared-state transfers move a single chunk, so the pipeline optimizations
    do not apply; the :class:`TransferSpec` guarantee still selects the event
    policy (NO_GUARANTEE drops events; LOSS_FREE buffers until the put is
    ACKed; ORDER_PRESERVING degrades to loss-free because there is no per-flow
    hold for shared state).
    """

    op_type = OperationType.CLONE
    _roles = _roles_where(StateScope.SHARED, "cloneable")  # supporting only: cloned reports double-count

    def __init__(self, port, src: str, dst: str, pattern=None, spec: Optional[TransferSpec] = None, **fixed) -> None:
        spec = spec or TransferSpec.default()
        if spec.guarantee is TransferGuarantee.ORDER_PRESERVING:
            # No per-flow hold exists for shared state, so the operation really
            # runs loss-free; record it as such to keep per-guarantee stats honest.
            spec = replace(spec, guarantee=TransferGuarantee.LOSS_FREE)
        if spec.mode is TransferMode.PRECOPY:
            # Shared state is one chunk; there is nothing to iterate over, so
            # the transfer runs (and is recorded) as a snapshot.
            spec = replace(spec, mode=TransferMode.SNAPSHOT)
        super().__init__(port, src, dst, None, spec, **fixed)
        self._gets_outstanding = 0
        #: Shared puts sent to the destination and not yet ACKed.
        self._shared_put_pending = 0
        self._buffered_events: List[Event] = []

    def start(self) -> None:
        """Request the source's shared state for every transferred role."""
        self._gets_outstanding = len(self._roles)
        for role in self._roles:
            message = messages.get_shared(self.src, role, transfer=True)
            self.port.send(self.src, message, self._on_src_reply, shard=self.home_shard)

    def _on_src_reply(self, message: Message) -> None:
        """Forward each of the source's shared chunks to the destination (or fail)."""
        if self._archived:
            return  # late reply for a failed operation
        fields = self._fail_on_error(message, self.src)
        if fields is None:
            return
        if message.type == MessageType.SHARED_STATE:
            chunk = fields["chunk"]
            self.record.chunks_transferred += 1
            self.record.bytes_transferred += chunk.size
            self._shared_put_pending += 1
            self.port.send(self.dst, messages.put_shared(self.dst, chunk), self._on_put_reply, shard=self.home_shard)
            self._gets_outstanding -= 1
        elif message.type == MessageType.GET_COMPLETE:
            # The source had no shared state of this role; nothing to transfer.
            self._gets_outstanding -= 1
            self._maybe_complete()

    def _on_put_reply(self, message: Message) -> None:
        """Absorb one of the destination's put ACKs and try to complete."""
        if self._archived:
            return  # late reply for a failed operation
        if message.type != MessageType.ACK:
            self._fail_on_error(message, self.dst)
            return
        self.record.puts_acked += 1
        self._shared_put_pending -= 1
        self._maybe_complete()

    def _maybe_complete(self) -> None:
        """Complete once every get answered and every shared put is ACKed."""
        if self._gets_outstanding == 0 and not self._shared_put_pending:
            for event in self._buffered_events:
                self._forward(event)
            self._buffered_events.clear()
            self._complete()

    def on_event(self, event: Event) -> None:
        """Apply the spec's guarantee to shared-state events raised mid-transfer.

        Only events whose packet updated *shared* state in transfer belong to
        a clone/merge.  A pure per-flow re-process event (raised because a
        concurrent move marked the flow) is ignored here: replaying it is the
        move's responsibility, and doing it from this operation used to poison
        the replay dedup before the move's put was ACKed (the cross-operation
        coordination bug).
        """
        if not event.shared:
            return
        self.record.events_received += 1
        self._last_event_at = self.port.now
        if self.spec.guarantee is TransferGuarantee.NO_GUARANTEE:
            self.record.events_dropped += 1
            return
        if self.buffer_events and not self.handle.completed.done:
            self.record.events_buffered += 1
            self._buffered_events.append(event)
        else:
            self._forward(event)

    def _finalize(self) -> None:
        """After quiescence: end the shared transfer at the source (no delete for clones).

        Scoped to the shared flag: a clone/merge never armed per-flow
        transfer markers, and clearing them here would silently unfreeze a
        concurrent move's flows at the same source.
        """
        message = messages.transfer_end(self.src, shared_only=True)
        if not self.port.send(self.src, message, self._on_end_reply, shard=self.home_shard):
            # The source was terminated before quiescence; nothing to notify.
            self._mark_finalized()

    def _on_end_reply(self, message: Message) -> None:
        """The source ended the shared transfer: the operation is final."""
        if message.type in (MessageType.ACK, MessageType.ERROR):
            self._mark_finalized()


class MergeOperation(CloneOperation):
    """mergeInternal: merge shared supporting and reporting state into the destination."""

    op_type = OperationType.MERGE
    _roles = _roles_where(StateScope.SHARED, "mergeable")
