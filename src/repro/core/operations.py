"""Northbound operation state machines.

The controller (paper section 5) turns each northbound call into a sequence of
southbound requests.  The sequencing logic for the three stateful operations —
``moveInternal``, ``cloneSupport``, and ``mergeInternal`` — lives here.

Since the transfer-strategy refactor each stateful operation is composed from
two pluggable pieces parameterised by a
:class:`~repro.core.transfer.TransferSpec`:

* a **chunk pipeline** (:class:`ChunkPipeline`) that ships streamed state
  chunks to the destination — sequentially (window of 1), pipelined (bounded
  or unbounded window), or batched (many chunks per ``PUT_PERFLOW_BATCH``
  message with a single ACK);
* a **guarantee policy** (:class:`GuaranteePolicy` subclasses) that decides
  what happens to the re-process events raised while the transfer is in
  flight — dropped (``NO_GUARANTEE``), buffered per flow until the
  destination ACKs that flow's state and then replayed (``LOSS_FREE``, the
  paper's Figure 5), or replayed in order behind a destination-side per-flow
  packet hold that is lifted with ``TRANSFER_RELEASE`` (``ORDER_PRESERVING``).

``TransferSpec.default()`` reproduces the seed's original single flavor:
loss-free with puts issued as chunks stream in.

* **move** (Figure 5): issue per-flow supporting and reporting gets at the
  source; stream every chunk through the pipeline to the destination; apply
  the guarantee policy to events; the operation *returns* when both gets have
  completed, every put is ACKed, and the policy has drained (for
  order-preserving: every moved flow released); after a quiescence period with
  no further events, delete the moved state at the source.
* **clone**: get shared supporting state at the source, put it at the
  destination; forward shared re-process events after the put is ACKed; after
  quiescence, tell the source the transfer ended (no delete).
* **merge**: like clone but for shared supporting *and* shared reporting
  state; the destination's own merge logic combines the states.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..net.simulator import Future
from . import messages
from .errors import OperationError, UnknownMiddleboxError
from .events import Event
from .flowspace import FlowKey, FlowPattern
from .messages import Message, MessageType
from .state import TAXONOMY, StateChunk, StateRole, StateScope
from .transfer import TransferGuarantee, TransferMode, TransferSpec

if TYPE_CHECKING:  # pragma: no cover
    from .controller import MBController


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
    """

    def __init__(self, sim, record: OperationRecord) -> None:
        self.record = record
        self.state_installed: Future = sim.event(name=f"{record.type.value}#{record.op_id}.installed")
        self.completed: Future = sim.event(name=f"{record.type.value}#{record.op_id}")
        self.finalized: Future = sim.event(name=f"{record.type.value}#{record.op_id}.finalized")
        #: Back-reference for transaction abort; set by the operation itself.
        self._operation: Optional["_StatefulOperation"] = None

    @property
    def op_id(self) -> int:
        """The operation's controller-assigned identifier."""
        return self.record.op_id


class StandbyRetryHandle:
    """Handle facade over a move that retries onto a standby destination.

    Crash-safe moves (``move_internal(..., standby=...)``) return this instead
    of a plain :class:`OperationHandle`.  It mirrors the handle surface —
    ``record`` / ``op_id`` / ``state_installed`` / ``completed`` /
    ``finalized`` — but the futures are *outer* futures: when the primary
    destination dies mid-move (:class:`~repro.core.errors.UnknownMiddleboxError`,
    which covers both crashes and unregisters) while the source and the
    standby are still alive, a fresh move is started against the standby and
    the outer futures resolve with the retry's outcome.  The retry is
    loss-free because a failed move never deletes (or finalises) anything at
    the source: the second attempt re-exports the full, current state.
    """

    def __init__(
        self,
        controller: "MBController",
        src: str,
        dst: str,
        pattern: Optional[FlowPattern],
        spec: Optional[TransferSpec],
        standby: str,
    ) -> None:
        self.controller = controller
        self.sim = controller.sim
        self.src = src
        self.pattern = pattern
        self.spec = spec
        self.standby = standby
        #: Per-attempt inner handles, primary first.
        self.attempts: List[OperationHandle] = []
        self.retried = False
        #: True between the retry decision and the standby attempt's launch
        #: (the window where the source's marker release is still in flight).
        self._awaiting_retry = False
        self.state_installed: Future = self.sim.event(name=f"moveInternal[{src}->{dst}|{standby}].installed")
        self.completed: Future = self.sim.event(name=f"moveInternal[{src}->{dst}|{standby}]")
        self.finalized: Future = self.sim.event(name=f"moveInternal[{src}->{dst}|{standby}].finalized")
        self._start_attempt(dst)

    # -- handle surface ------------------------------------------------------------

    @property
    def record(self) -> OperationRecord:
        """The current (latest) attempt's measurements."""
        return self.attempts[-1].record

    @property
    def op_id(self) -> int:
        """The current attempt's controller-assigned operation id."""
        return self.attempts[-1].op_id

    @property
    def _operation(self):
        """Abort plumbing: transactions abort whichever attempt is current."""
        return self.attempts[-1]._operation

    # -- attempt wiring ------------------------------------------------------------

    def _start_attempt(self, dst: str) -> None:
        """Launch one inner move and chain its futures to the outer ones."""
        self._awaiting_retry = False
        handle = self.controller.move_internal(self.src, dst, self.pattern, self.spec)
        self.attempts.append(handle)
        handle.state_installed.add_done_callback(self._on_installed)
        handle.completed.add_done_callback(lambda future, h=handle: self._on_completed(h, future))
        handle.finalized.add_done_callback(lambda future, h=handle: self._on_finalized(h, future))

    def _on_installed(self, future: Future) -> None:
        """Propagate the first successful install point to the outer future."""
        if future.exception is None and not self.state_installed.done:
            self.state_installed.succeed(future.result)

    def _should_retry(self, exc: BaseException) -> bool:
        """Retry exactly once, when the dst died but src and standby live on."""
        if self.retried or not isinstance(exc, UnknownMiddleboxError):
            return False
        failed_dst = self.attempts[-1].record.dst
        return (
            failed_dst != self.standby
            and not self.controller.is_registered(failed_dst)
            and self.controller.is_registered(self.src)
            and self.controller.is_registered(self.standby)
        )

    def _on_completed(self, handle: OperationHandle, future: Future) -> None:
        """Resolve the outer completion — or launch the standby retry."""
        if handle is not self.attempts[-1]:
            return  # a superseded attempt; its outcome no longer matters
        if future.exception is None:
            if not self.completed.done:
                self.completed.succeed(future.result)
            return
        if self._should_retry(future.exception):
            self.retried = True
            self._awaiting_retry = True
            self.controller.stats.standby_retries += 1
            self._retry_after_source_release()
            return
        if not self.state_installed.done:
            self.state_installed.fail(future.exception)
        if not self.completed.done:
            self.completed.fail(future.exception)

    def _retry_after_source_release(self) -> None:
        """Launch the standby attempt once the source confirmed the marker release.

        The failed attempt left (and its failure cleanup releases) per-flow
        transfer markers at the source.  Events those stale markers raise
        before the release lands carry updates the retry's snapshot will
        already contain — replaying them would double-apply.  Waiting for the
        ACK of a (second, idempotent) release closes the window exactly: the
        source's channel is FIFO in both directions, so every stale-marker
        event is dispatched at the controller *before* this ACK — while no
        retry operation exists to buffer it — and no event can be raised
        after the release applied.
        """
        operation = self.attempts[-1]._operation
        flows = sorted(operation.pipeline._all_flows) if operation is not None else []
        started = {"done": False}

        def begin(_message: Optional[Message] = None) -> None:
            if started["done"]:
                return
            started["done"] = True
            self._start_attempt(self.standby)

        if not flows or not self.controller.try_send(
            self.src, messages.transfer_release(self.src, flows), on_reply=begin
        ):
            begin()

    def _on_finalized(self, handle: OperationHandle, future: Future) -> None:
        """Propagate the *current* attempt's finalisation to the outer future."""
        # _fail resolves completed before finalized, so by the time a failing
        # attempt's finalized callback runs, a retry has already replaced it
        # at attempts[-1] (or is pending behind the source-release ACK) and
        # this guard skips the stale notification.
        if handle is not self.attempts[-1] or self._awaiting_retry:
            return
        if future.exception is None:
            if not self.finalized.done:
                self.finalized.succeed(future.result)
            return
        if not self.state_installed.done:
            self.state_installed.fail(future.exception)
        if not self.completed.done:
            self.completed.fail(future.exception)
        if not self.finalized.done:
            self.finalized.fail(future.exception)


def _roles_where(scope: StateScope, permitted: str) -> Tuple[StateRole, ...]:
    """Roles whose *scope* cell Table 1 marks *permitted* (``movable`` / ``cloneable`` / ``mergeable``), in its order."""
    return tuple(cell.role for cell in TAXONOMY.values() if cell.scope is scope and getattr(cell, permitted))


class _StatefulOperation:
    """Shared machinery for move/clone/merge."""

    op_type: OperationType = OperationType.MOVE

    def __init__(
        self,
        controller: "MBController",
        src: str,
        dst: str,
        pattern: Optional[FlowPattern] = None,
        spec: Optional[TransferSpec] = None,
    ) -> None:
        self.controller = controller
        self.sim = controller.sim
        self.src = src
        self.dst = dst
        self.pattern = pattern
        self.spec = spec or TransferSpec.default()
        #: Home shard: the controller loop that sends this operation's
        #: southbound requests and absorbs their replies/ACKs.
        self.home_shard = controller.coordinator.home_shard(pattern)
        #: Every shard the operation's pattern could own flows on; its event
        #: interest is broadcast to all of them (wildcards span the ring).
        self.shards = controller.coordinator.shards_for_pattern(pattern)
        self.record = OperationRecord(
            op_id=next(controller.op_ids),
            type=self.op_type,
            src=src,
            dst=dst,
            pattern=pattern,
            started_at=self.sim.now,
            home_shard=self.home_shard.shard_id,
            guarantee=self.spec.guarantee.value,
            parallelism=self.spec.parallelism,
            batch_size=self.spec.batch_size,
            early_release=self.spec.early_release,
            # PRECOPY with max_rounds=0 degrades to snapshot; record what ran.
            mode=(TransferMode.PRECOPY if self.spec.is_precopy else TransferMode.SNAPSHOT).value,
            wan_pacing=self.spec.wan_pacing,
        )
        self.handle = OperationHandle(self.sim, self.record)
        self.handle._operation = self
        self._last_event_at = self.sim.now
        self._finalize_scheduled = False
        self._finalized = False
        self._archived = False
        #: (event id, destination) replay-dedup tokens this operation added;
        #: pruned from the controller when the operation finishes.
        self._forward_tokens: Set[Tuple[int, str]] = set()
        #: (destination, flow key) install-sequence tokens this operation
        #: stamped; pruned alongside the replay tokens.
        self._install_tokens: Set[Tuple[str, FlowKey]] = set()

    # -- hooks implemented by subclasses -------------------------------------------

    def start(self) -> None:
        """Issue the operation's first southbound requests."""
        raise NotImplementedError

    def on_event(self, event: Event) -> None:
        """Handle a re-process event routed to this operation."""
        raise NotImplementedError

    def _finalize(self) -> None:
        """Run the post-quiescence step (source delete / transfer end)."""
        raise NotImplementedError

    # -- common helpers -------------------------------------------------------------

    def _complete(self) -> None:
        """Resolve the completed (and, if pending, state_installed) futures."""
        if self.handle.completed.done:
            return
        if not self.handle.state_installed.done:
            self.handle.state_installed.succeed(self.record)
        self.record.completed_at = self.sim.now
        self.handle.completed.succeed(self.record)
        self._arm_quiescence()

    def _fail(self, exc: Exception) -> None:
        """Fail every unresolved future with *exc* and archive the operation."""
        # Cancel any scheduled quiescence finalisation so the operation cannot
        # be archived a second time after failing.
        self._finalized = True
        if not self.handle.state_installed.done:
            self.handle.state_installed.fail(exc)
        if not self.handle.completed.done:
            self.handle.completed.fail(exc)
        if not self.handle.finalized.done:
            self.handle.finalized.fail(exc)
        self._finish()

    def _fail_on_error(self, reply: Message, where: str) -> Optional[dict]:
        """Fail the operation when *reply* is an ERROR (or malformed) from *where*; otherwise its typed fields."""
        kind, fields = messages.parse_reply(reply)
        if kind != MessageType.ERROR:
            return fields
        self._fail(OperationError(f"{self.op_type.value} failed at {where}: {fields['reason']}"))
        return None

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

    def _finish(self) -> None:
        """Hand the operation back to the controller exactly once."""
        if self._archived:
            return
        self._archived = True
        self.controller._operation_finished(self)

    def _forward(self, event: Event, on_reply=None) -> bool:
        """Ensure *event* is replayed at the destination; True when a message went out.

        ``events_forwarded`` counts events whose replay at the destination
        this operation ensured — including ones a concurrent operation's
        replay already covers (``"covered"``), where no duplicate message is
        sent and *on_reply* will never fire.
        """
        disposition = self.controller.forward_event(
            self.dst, event, on_reply=on_reply, shard=self.home_shard
        )
        if disposition in ("sent", "covered"):
            self.record.events_forwarded += 1
            self._forward_tokens.add((event.event_id, self.dst))
        return disposition == "sent"

    def _touch_event_clock(self) -> None:
        """Note event activity; postpones the quiescence-triggered finalize."""
        self._last_event_at = self.sim.now

    def _arm_quiescence(self) -> None:
        """Schedule the quiescence check that triggers finalisation."""
        if self._finalize_scheduled or self._finalized:
            return
        self._finalize_scheduled = True
        self.sim.schedule(self.controller.config.quiescence_timeout, self._quiescence_check)

    def _quiescence_check(self) -> None:
        """Finalize if the operation has been idle for the quiescence timeout."""
        self._finalize_scheduled = False
        if self._finalized:
            return
        idle_for = self.sim.now - self._last_event_at
        if idle_for + 1e-12 >= self.controller.config.quiescence_timeout:
            self._finalized = True
            self._finalize()
        else:
            # Events arrived recently; check again once the remaining idle time elapses.
            self._finalize_scheduled = True
            self.sim.schedule(
                self.controller.config.quiescence_timeout - idle_for, self._quiescence_check
            )

    def _mark_finalized(self) -> None:
        """Resolve the finalized future and hand the record to the archive."""
        self.record.finalized_at = self.sim.now
        if not self.handle.finalized.done:
            self.handle.finalized.succeed(self.record)
        self._finish()


# =========================================================================================
# Chunk pipeline: how state chunks travel from the get stream to the destination
# =========================================================================================


class ChunkPipeline:
    """Ships streamed per-flow chunks to a move's destination.

    The pipeline enforces the :class:`TransferSpec` optimizations:

    * ``parallelism`` bounds how many put/batch messages may be awaiting an
      ACK (0 = unbounded, the seed's put-on-arrival behaviour; 1 = fully
      sequential);
    * ``batch_size`` packs several chunks into one ``PUT_PERFLOW_BATCH``
      message, amortising the controller's per-message handling cost (one ACK
      per batch instead of one per chunk).

    When the last chunk of a flow is ACKed the pipeline notifies the
    operation (``_flow_acked``), which lets the guarantee policy flush that
    flow's buffered events.

    Pre-copy moves run the same pipeline once per copy round:
    :meth:`begin_round` re-opens the stream for the next round's chunks and
    :meth:`enter_final_phase` forgets the per-flow ACK history so the final
    stop-and-copy round buffers events per flow again (see
    :meth:`MoveOperation._enter_final_phase`).
    """

    def __init__(self, operation: "MoveOperation") -> None:
        self.op = operation
        self.spec = operation.spec
        #: Chunks accepted but not yet put on the wire (window closed / batch filling).
        self._queue: Deque[StateChunk] = deque()
        #: Put/batch messages sent and not yet ACKed.
        self._in_flight = 0
        #: Canonical flow key -> chunks sent or queued but not yet ACKed.
        self._pending_chunks: Dict[FlowKey, int] = {}
        #: Flows whose chunks seen so far are all ACKed.
        self._acked_flows: Set[FlowKey] = set()
        #: Every flow that ever entered the pipeline (failure cleanup).
        self._all_flows: Set[FlowKey] = set()
        self._source_done = False

    # -- pre-copy rounds ---------------------------------------------------------------

    def begin_round(self) -> None:
        """Re-open the chunk stream for the next pre-copy round."""
        self._source_done = False

    def enter_final_phase(self) -> None:
        """Forget per-flow ACK history at the stop-and-copy freeze.

        From this instant the guarantee policy must buffer events per flow
        again: a flow ACKed in an earlier round may receive a final delta
        chunk, and replaying its events before that chunk installs would let
        the chunk overwrite the replayed updates.  Flows that get no final
        chunk have their buffered events flushed when the round drains — by
        then every final install has been ACKed, so replays order after them.
        """
        self._acked_flows.clear()

    # -- feeding ---------------------------------------------------------------------

    def add_chunk(self, chunk: StateChunk) -> None:
        """Accept one streamed chunk and dispatch it when the window allows."""
        canonical = chunk.key.bidirectional()
        if canonical in self._acked_flows:
            # A flow's supporting and reporting chunks stream from two
            # independent gets, so a second chunk can arrive after the first
            # was already ACKed (and the flow's events flushed/released).
            # Reopen the flow: the policy re-buffers its events until this
            # chunk is ACKed too.
            self._acked_flows.discard(canonical)
            self.op._flow_reopened(canonical)
        self._all_flows.add(canonical)
        self._pending_chunks[canonical] = self._pending_chunks.get(canonical, 0) + 1
        self._queue.append(chunk)
        self._dispatch()

    def source_done(self) -> None:
        """The source's gets have completed; flush any partially filled batch."""
        self._source_done = True
        self._dispatch()

    @property
    def drained(self) -> bool:
        """True once every accepted chunk has been put and ACKed."""
        return (
            self._source_done
            and not self._queue
            and self._in_flight == 0
            and not self._pending_chunks
        )

    # -- dispatching ------------------------------------------------------------------

    def _window_open(self) -> bool:
        """True while another put may be issued under the parallelism bound."""
        return self.spec.parallelism == 0 or self._in_flight < self.spec.parallelism

    def _dispatch(self) -> None:
        """Put queued chunks on the wire while the parallelism window allows."""
        if self.op._archived:
            return  # the operation failed; do not keep feeding the destination
        # Order-preserving holds apply only once the destination may actually
        # see live traffic for the flow — i.e. not during pre-copy warm rounds.
        hold = self.spec.holds_destination_flows and self.op._holds_apply
        round_tag = self.op._put_round_tag
        while self._queue and self._window_open():
            if self.spec.batch_size > 1:
                if len(self._queue) < self.spec.batch_size and not self._source_done:
                    return  # wait for a full batch (or the end of the stream)
                batch = [
                    self._queue.popleft()
                    for _ in range(min(self.spec.batch_size, len(self._queue)))
                ]
                message = messages.put_perflow_batch(self.op.dst, batch, hold=hold, round=round_tag)
                keys = tuple(chunk.key.bidirectional() for chunk in batch)
                self.op.record.batches_sent += 1
            else:
                chunk = self._queue.popleft()
                message = messages.put_perflow(self.op.dst, chunk, hold=hold, round=round_tag)
                keys = (chunk.key.bidirectional(),)
            self._in_flight += 1
            self.op.controller.send(
                self.op.dst,
                message,
                on_reply=lambda reply, keys=keys: self._on_put_reply(reply, keys),
                shard=self.op.home_shard,
            )

    def _on_put_reply(self, message: Message, keys: Tuple[FlowKey, ...]) -> None:
        """Book an ACK (or fail on ERROR) for the put covering *keys*."""
        if self.op._archived:
            return  # late reply for a failed operation
        if message.type != MessageType.ACK:
            self.op._fail_on_error(message, f"destination {self.op.dst}")
            return
        self._in_flight -= 1
        self.op.record.puts_acked += len(keys)
        # Stamp the install sequence *before* the per-flow flush callbacks run:
        # replays issued by the guarantee policy below must compare as ordered
        # after this install (they are applied at the destination after it).
        self.op.controller.note_perflow_installed(self.op.dst, keys, operation=self.op)
        for canonical in keys:
            remaining = self._pending_chunks.get(canonical, 0) - 1
            if remaining <= 0:
                self._pending_chunks.pop(canonical, None)
                self._acked_flows.add(canonical)
                self.op._flow_acked(canonical)
            else:
                self._pending_chunks[canonical] = remaining
        self._dispatch()
        self.op._check_complete()


# =========================================================================================
# Guarantee policies: what happens to in-transfer re-process events
# =========================================================================================


class GuaranteePolicy:
    """Event-dissemination policy for one move operation."""

    def __init__(self, operation: "MoveOperation") -> None:
        self.op = operation

    def on_event(self, event: Event) -> None:
        """Decide the fate of one in-transfer re-process event."""
        raise NotImplementedError

    def on_flow_acked(self, canonical: FlowKey) -> None:
        """The destination ACKed the last chunk of this flow's state."""

    def on_flow_reopened(self, canonical: FlowKey) -> None:
        """A new chunk arrived for a flow that was already ACKed."""

    def on_final_stream_drained(self) -> None:
        """The final round's stream is fully ACKed; start any per-flow closure.

        Called (possibly repeatedly — implementations must be idempotent)
        before :attr:`drained` is consulted, so work started here still gates
        completion.  Order-preserving transfers use it to release the moved
        flows the final round did not resend.
        """

    def on_transfer_drained(self) -> None:
        """Gets complete and every put ACKed; flush whatever is still held."""

    @property
    def drained(self) -> bool:
        """Completion gate beyond the chunk pipeline (e.g. releases ACKed)."""
        return True


class NoGuaranteePolicy(GuaranteePolicy):
    """NO_GUARANTEE: in-transfer events are dropped; their updates may be lost."""

    def on_event(self, event: Event) -> None:
        """Drop the event (its update may be lost — the documented trade)."""
        self.op.record.events_dropped += 1


class LossFreePolicy(GuaranteePolicy):
    """LOSS_FREE (paper Figure 5): buffer per flow until the put is ACKed.

    Forwarding earlier would let the replayed packet's updates be overwritten
    when the chunk arrives, violating atomicity requirement (iii).  Honors the
    ``buffer_events`` ablation switch: with buffering disabled events are
    forwarded immediately (and may race the chunks).
    """

    def __init__(self, operation: "MoveOperation") -> None:
        super().__init__(operation)
        self._buffered: Dict[FlowKey, List[Event]] = {}

    def _flow_is_acked(self, canonical: FlowKey) -> bool:
        """True once every chunk seen for this flow is installed at the destination."""
        # The pipeline's acked set is the single source of truth: a flow drops
        # out of it again when a late chunk (its other state role) reopens it,
        # which automatically resumes buffering here.
        return canonical in self.op.pipeline._acked_flows

    def on_event(self, event: Event) -> None:
        """Buffer the event per flow until its state is ACKed, then forward."""
        key = event.key.bidirectional() if event.key is not None else None
        should_buffer = (
            self.op.controller.config.buffer_events
            and key is not None
            and not self._flow_is_acked(key)
            and not self.op.handle.completed.done
        )
        if should_buffer:
            self.op.record.events_buffered += 1
            self._buffered.setdefault(key, []).append(event)
        else:
            self.op._forward(event)

    def on_flow_acked(self, canonical: FlowKey) -> None:
        """Flush the flow's buffered events now that its state is installed."""
        for event in self._buffered.pop(canonical, []):
            self.op._forward(event)

    def on_transfer_drained(self) -> None:
        """Flush everything still buffered once the whole transfer is installed."""
        # Any events still buffered (their flow's chunk was ACKed in the
        # meantime, or the flow produced no chunk at all) can now be replayed.
        for canonical in list(self._buffered):
            for event in self._buffered.pop(canonical, []):
                self.op._forward(event)


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


class OrderPreservingPolicy(LossFreePolicy):
    """ORDER_PRESERVING: replay buffered events in order behind a packet hold.

    Puts are sent with the *hold* flag, so the destination queues fresh
    packets for a moved flow.  When the flow's state is ACKed the policy
    replays its buffered events (each replay is ACKed by the destination),
    then sends a per-flow ``TRANSFER_RELEASE``; only then does the destination
    process the queued packets, in arrival order.  The operation completes
    once every moved flow has been released.
    """

    def __init__(self, operation: "MoveOperation") -> None:
        super().__init__(operation)
        self._closures: Dict[FlowKey, _Closure] = {}
        #: Flows that may have become held since the last release sweep.
        self._unswept: Set[FlowKey] = set()
        #: Flows mid-replay plus releases in flight; zero means :attr:`drained`.
        #: Counted on stage transitions only: a duplicated ACK fires a reply
        #: handler twice and must not be counted twice.
        self._awaiting = 0

    def on_event(self, event: Event) -> None:
        """Buffer per flow until the flow is *released*, not merely ACKed."""
        key = event.key.bidirectional() if event.key is not None else None
        closure = self._closures.get(key)
        if (
            key is None
            or not self.op.controller.config.buffer_events
            or (closure is not None and closure.released)
            or self.op.handle.completed.done
        ):
            self.op._forward(event)
            return
        # Buffer until the flow is *released* (not merely ACKed): events that
        # arrive while earlier replays are in flight must queue behind them.
        self.op.record.events_buffered += 1
        self._buffered.setdefault(key, []).append(event)

    def on_flow_acked(self, canonical: FlowKey) -> None:
        """Start the flow's ordered replay-then-release cycle."""
        closure = self._closures.get(canonical)
        if closure is None:
            self._closures[canonical] = _Closure()
        else:
            closure.reopened = False
        self._replay_then_release(canonical)

    def on_flow_reopened(self, canonical: FlowKey) -> None:
        """A later chunk re-installed the hold; the flow needs a fresh release."""
        closure = self._closures[canonical]
        closure.released = False
        closure.reopened = True
        self._unswept.add(canonical)

    def _replay_then_release(self, canonical: FlowKey) -> None:
        """Replay the flow's buffered events in order, then lift its hold."""
        if self.op._archived:
            return  # the operation failed; the blanket cleanup release covers dst
        closure = self._closures[canonical]
        buffered = self._buffered.pop(canonical, [])
        sent = 0
        for event in buffered:
            if self.op._forward(
                event, on_reply=lambda reply, c=canonical: self._on_replay_reply(c, reply)
            ):
                sent += 1
        if sent:
            if not closure.replays:
                self._awaiting += 1
            closure.replays += sent
        elif not closure.replays:
            self._send_release(canonical)

    def _on_replay_reply(self, canonical: FlowKey, message: Message) -> None:
        """Count down the flow's in-flight replays; release when they drain."""
        if self.op._archived or message.type not in (MessageType.ACK, MessageType.ERROR):
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
        if self.op._archived or closure.releasing or closure.released:
            return
        closure.releasing = True
        self._awaiting += 1
        self.op.record.releases_sent += 1

        def on_reply(message: Message) -> None:
            if self.op._archived or message.type not in (MessageType.ACK, MessageType.ERROR):
                return
            if closure.releasing:
                closure.releasing = False
                self._awaiting -= 1
            if closure.reopened:
                # A later chunk re-held the flow while this release was in
                # flight; keep it un-released so its re-ACK triggers a fresh
                # replay + release cycle.
                self._unswept.add(canonical)
                self.op._check_complete()
                return
            closure.released = True
            # Events that arrived while the release was in flight race the
            # released packets anyway; forward them immediately (loss-free).
            for event in self._buffered.pop(canonical, []):
                self.op._forward(event)
            self.op._check_complete()

        self.op.controller.send(
            self.op.dst,
            messages.transfer_release(self.op.dst, [canonical]),
            on_reply=on_reply,
            shard=self.op.home_shard,
        )

    def on_final_stream_drained(self) -> None:
        """Release every moved flow the final round did not resend.

        Flows resent by the final round run the replay-then-release cycle
        from their put ACKs; flows that were clean at the freeze were held by
        the blanket TRANSFER_HOLD and would otherwise stay held (and their
        post-freeze events stay buffered) forever.  Runs on every ACK once the
        stream has drained, so it examines only the flows that may have become
        held since the last call, and starts those in canonical key order;
        snapshot operations release every flow from its ACK and find none.
        """
        flows = self.op.pipeline._all_flows
        if len(self._closures) < len(flows):
            # Flows no final-round put ACKed have no closure record yet.
            for canonical in flows.difference(self._closures):
                self._closures[canonical] = _Closure()
                self._unswept.add(canonical)
        if not self._unswept:
            return
        self.op.record.closure_scan_steps += len(self._unswept)
        held = sorted(canonical for canonical in self._unswept if self._closures[canonical].held)
        self._unswept.clear()
        for canonical in held:
            self._replay_then_release(canonical)

    @property
    def drained(self) -> bool:
        """True once no replay or release is awaiting a destination ACK."""
        return self._awaiting == 0


_POLICIES = {
    TransferGuarantee.NO_GUARANTEE: NoGuaranteePolicy,
    TransferGuarantee.LOSS_FREE: LossFreePolicy,
    TransferGuarantee.ORDER_PRESERVING: OrderPreservingPolicy,
}


# =========================================================================================
# The operations
# =========================================================================================


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
    """

    op_type = OperationType.MOVE
    _roles = _roles_where(StateScope.PER_FLOW, "movable")

    def __init__(
        self,
        controller: "MBController",
        src: str,
        dst: str,
        pattern: FlowPattern,
        spec: Optional[TransferSpec] = None,
    ) -> None:
        super().__init__(controller, src, dst, pattern, spec)
        self._gets_outstanding = 0
        self._gets_complete = False
        self.pipeline = ChunkPipeline(self)
        self.policy: GuaranteePolicy = _POLICIES[self.spec.guarantee](self)
        #: Pre-copy round state: current round index (0 = bulk), whether the
        #: stop-and-copy freeze has begun, and per-round measurement scratch.
        self._precopy = self.spec.is_precopy
        if self._precopy and any(
            getattr(operation, "_precopy", False) and not operation._archived
            for operation in controller._active_by_src.get(src, [])
        ):
            # A store has exactly one dirty-tracking context: a second
            # concurrent pre-copy from the same source would clear — and at
            # its own freeze, stop — the first move's tracking and silently
            # lose updates.  Fall back to the snapshot discipline, which
            # composes with anything.
            self._precopy = False
            self.record.mode = TransferMode.SNAPSHOT.value
        self._round = 0
        self._in_final_phase = not self._precopy
        self._round_started_at = self.sim.now
        self._round_chunks = 0
        self._round_bytes = 0
        self._round_dirty: Dict[str, int] = {}

    # -- pre-copy helpers --------------------------------------------------------------

    @property
    def _holds_apply(self) -> bool:
        """Order-preserving holds only make sense once the freeze has begun."""
        return self._in_final_phase

    @property
    def _put_round_tag(self) -> Optional[Tuple[int, int]]:
        """Round tag stamped on this round's puts; None keeps snapshot wire identical.

        The tag pairs the operation id with the round index, so it is
        monotonic across rounds *and* across successive operations touching
        the same destination flows (a later move's round 0 always supersedes
        an earlier move's final round).
        """
        if not self._precopy:
            return None
        return (self.record.op_id, self._round)

    # -- starting ---------------------------------------------------------------------

    def start(self) -> None:
        """Issue the first per-role gets: round 0, the only round of a snapshot."""
        if not self._precopy:
            self.record.freeze_started_at = self.record.started_at
        self._begin_copy_round()

    def _begin_copy_round(self) -> None:
        """Start one copy round: bulk (round 0), delta, or final stop-and-copy."""
        self._round_started_at = self.sim.now
        self._round_chunks = 0
        self._round_bytes = 0
        self._round_dirty = {}
        self._gets_complete = False
        self.pipeline.begin_round()
        for role in self._roles:
            self._gets_outstanding += 1
            if self._round == 0:
                # A snapshot's bulk get freezes the flows behind re-process
                # events; a pre-copy's arms dirty tracking and lets them run.
                message = messages.get_perflow(
                    self.src,
                    role,
                    self.pattern,
                    transfer=not self._precopy,
                    track_dirty=self._precopy,
                    compress=self.spec.compress,
                )
            else:
                message = messages.get_perflow_delta(
                    self.src, role, self.pattern, final=self._in_final_phase, compress=self.spec.compress
                )
            self.controller.send(self.src, message, on_reply=self._on_src_reply, shard=self.home_shard)

    def _record_round(self, dirty_after: int) -> None:
        """Archive the finished round's chunk/byte/dirty measurements."""
        self.record.rounds.append(
            {
                "round": self._round,
                "chunks": self._round_chunks,
                "bytes": self._round_bytes,
                "dirty_after": dirty_after,
                "duration": self.sim.now - self._round_started_at,
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
                self.sim.schedule(pacing_delay, self._start_paced_round)
            else:
                self._begin_copy_round()

    def _start_paced_round(self) -> None:
        """Timer continuation for a WAN-paced delta round (no-op if aborted)."""
        if self._archived:
            return
        self._begin_copy_round()

    def _enter_final_phase(self) -> None:
        """Begin the stop-and-copy round: freeze the flows, move the residual delta."""
        self._round += 1
        self._in_final_phase = True
        self.record.precopy_rounds = self._round
        self.record.freeze_started_at = self.sim.now
        self.pipeline.enter_final_phase()
        if self.spec.holds_destination_flows and self.pipeline._all_flows:
            # Order preservation covers every moved flow, but only final-round
            # puts carry the hold flag and clean flows get no final put.  Hold
            # them all up front — the channel's FIFO applies this before any
            # final-round install, replay, or release — and the final-phase
            # release sweep lifts each one after its ordered replay.
            self.controller.send(
                self.dst,
                messages.transfer_hold(self.dst, sorted(self.pipeline._all_flows)),
                shard=self.home_shard,
            )
        self._begin_copy_round()

    # -- source-side replies ------------------------------------------------------------

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
            self.pipeline.add_chunk(chunk)
        elif message.type == MessageType.GET_COMPLETE:
            if fields["dirty"] is not None:
                self._round_dirty[fields["role"]] = fields["dirty"]
            self._gets_outstanding -= 1
            if self._gets_outstanding == 0:
                self._gets_complete = True
                self.pipeline.source_done()
                self._check_complete()

    # -- failure cleanup -----------------------------------------------------------------

    def _fail(self, exc: Exception) -> None:
        """Release destination holds and stop source-side tracking, then fail."""
        if not self._archived and self.spec.holds_destination_flows:
            # Order-preserving puts installed per-flow packet holds at the
            # destination; release every flow the pipeline touched so a failed
            # move does not blackhole their traffic.  Releasing a flow that
            # was never held (or already released) is a harmless no-op.  Key
            # order, so the cleanup does not vary with PYTHONHASHSEED.
            held = sorted(self.pipeline._all_flows)
            if held and self.controller.try_send(
                self.dst, messages.transfer_release(self.dst, held), shard=self.home_shard
            ):
                self.record.releases_sent += 1
        if not self._archived and self._precopy:
            # A pre-copy move aborted mid-round leaves the source's dirty
            # tracking armed; the dirty_only TRANSFER_END stops it without
            # clearing transfer markers a concurrent operation from the same
            # source may still rely on.
            self.controller.try_send(
                self.src, messages.transfer_end(self.src, dirty_only=True), shard=self.home_shard
            )
        if not self._archived and self.pipeline._all_flows:
            # Clear this move's per-flow transfer markers at the source.  A
            # dead transfer must not keep the flows frozen: their re-process
            # events would stream to a destination that will never install
            # the state, and a standby retry would double-apply updates its
            # own snapshot already contains.  Scoped to the flows this move
            # exported, so markers owned by concurrent operations survive.
            self.controller.try_send(
                self.src,
                messages.transfer_release(self.src, sorted(self.pipeline._all_flows)),
                shard=self.home_shard,
            )
        super()._fail(exc)

    # -- pipeline callbacks --------------------------------------------------------------

    def _flow_reopened(self, canonical: FlowKey) -> None:
        """A new chunk arrived for a flow whose earlier chunks were ACKed."""
        if not self._in_final_phase:
            return  # warm pre-copy rounds carry no event/release obligations
        self.policy.on_flow_reopened(canonical)

    def _flow_acked(self, canonical: FlowKey) -> None:
        """All chunks of this flow are installed at the destination."""
        if not self._in_final_phase:
            # Warm pre-copy rounds: the flow is not frozen (no buffered events
            # to flush, no hold to release, no source marker to clear), and a
            # later round may resend it anyway.
            return
        self.policy.on_flow_acked(canonical)
        if self.spec.early_release:
            # Clear the flow's transfer marker at the source right away so it
            # stops raising re-process events (weaker than pure loss-free:
            # updates hitting the source after this point are not replayed).
            if self.controller.try_send(
                self.src, messages.transfer_release(self.src, [canonical]), shard=self.home_shard
            ):
                self.record.releases_sent += 1

    def _check_complete(self) -> None:
        """Advance the state machine when the current round's stream has drained."""
        if self.handle.completed.done:
            return
        if not self._gets_complete or not self.pipeline.drained:
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
        self.policy.on_final_stream_drained()
        if not self.policy.drained:
            return
        self.policy.on_transfer_drained()
        if self._precopy:
            self._record_round(sum(self._round_dirty.values()))
        self._complete()

    # -- events ------------------------------------------------------------------------------

    def on_event(self, event: Event) -> None:
        """Handle a re-process event raised by the source middlebox.

        Events raised at or before the operation's start are discarded: the
        flows must have been marked by an *earlier* transfer (this one arms
        its own markers only after it starts), so the event's update was
        applied at the source before this operation's snapshot was taken and
        is already inside it.  Replaying such an event — the standby-retry
        race, where a retry inherits in-flight events of the attempt it
        replaces — would double-apply the update at the destination.
        """
        if event.raised_at <= self.record.started_at:
            self.record.events_stale += 1
            return
        self.record.events_received += 1
        self._touch_event_clock()
        self.policy.on_event(event)

    # -- finalisation ---------------------------------------------------------------------------

    def _finalize(self) -> None:
        """After quiescence: delete the moved state at the source."""
        pending = {"count": len(self._roles)}

        def on_delete_reply(message: Message) -> None:
            if message.type not in (MessageType.ACK, MessageType.ERROR):
                return
            if message.type == MessageType.ACK:
                self.record.deleted_chunks += messages.parse_reply(message)[1].get("removed", 0)
            pending["count"] -= 1
            if pending["count"] == 0:
                self._mark_finalized()

        for role in self._roles:
            # The source may have been terminated (e.g. scale-down) before
            # quiescence; there is nothing left to delete then.
            if not self.controller.try_send(
                self.src,
                messages.del_perflow(self.src, role, self.pattern),
                on_reply=on_delete_reply,
                shard=self.home_shard,
            ):
                pending["count"] -= 1
        if pending["count"] == 0:
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

    def __init__(
        self, controller: "MBController", src: str, dst: str, spec: Optional[TransferSpec] = None
    ) -> None:
        spec = spec or TransferSpec.default()
        if spec.guarantee is TransferGuarantee.ORDER_PRESERVING:
            # No per-flow hold exists for shared state, so the operation really
            # runs loss-free; record it as such to keep per-guarantee stats honest.
            spec = replace(spec, guarantee=TransferGuarantee.LOSS_FREE)
        if spec.mode is TransferMode.PRECOPY:
            # Shared state is one chunk; there is nothing to iterate over, so
            # the transfer runs (and is recorded) as a snapshot.
            spec = replace(spec, mode=TransferMode.SNAPSHOT)
        super().__init__(controller, src, dst, pattern=None, spec=spec)
        #: Shared puts sent to the destination and not yet ACKed.
        self._shared_put_pending = 0
        self._buffered_events: List[Event] = []

    _roles = _roles_where(StateScope.SHARED, "cloneable")  # supporting only: cloned reports double-count

    def start(self) -> None:
        """Request the source's shared state for every transferred role."""
        self._gets_outstanding = len(self._roles)
        for role in self._roles:
            self.controller.send(
                self.src,
                messages.get_shared(self.src, role, transfer=True),
                on_reply=self._on_src_reply,
                shard=self.home_shard,
            )

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
            self.controller.send(
                self.dst, messages.put_shared(self.dst, chunk), on_reply=self._on_put_reply, shard=self.home_shard
            )
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
        self._touch_event_clock()
        if self.spec.guarantee is TransferGuarantee.NO_GUARANTEE:
            self.record.events_dropped += 1
            return
        if self.controller.config.buffer_events and not self.handle.completed.done:
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

        def on_reply(message: Message) -> None:
            if message.type in (MessageType.ACK, MessageType.ERROR):
                self._mark_finalized()

        if not self.controller.try_send(
            self.src,
            messages.transfer_end(self.src, shared_only=True),
            on_reply=on_reply,
            shard=self.home_shard,
        ):
            # The source was terminated before quiescence; nothing to notify.
            self._mark_finalized()


class MergeOperation(CloneOperation):
    """mergeInternal: merge shared supporting and reporting state into the destination."""

    op_type = OperationType.MERGE
    _roles = _roles_where(StateScope.SHARED, "mergeable")
