"""The application-facing ("northbound") control API.

Control applications never talk to middleboxes directly; they use this facade
over the :class:`~repro.core.controller.MBController`.  The six operations of
the paper's section 5 (``readConfig``, ``writeConfig``, ``stats``,
``moveInternal``, ``cloneSupport``, ``mergeInternal``) are the snake_case
methods ``read_config``, ``write_config``, ``stats``, ``move_internal``,
``clone_support`` and ``merge_internal``; each one's docstring names its paper
call.  This class is the only place they are defined: a plain call builds its
southbound request and sends it through :meth:`MBController.request
<repro.core.controller.MBController.request>`, a stateful one checks that its
instances are registered and hands the controller's launcher the operation.
All operations are asynchronous on the simulated clock: they return
:class:`~repro.net.simulator.Future` objects (or
:class:`~repro.core.operations.OperationHandle` for the stateful operations)
that control-application processes ``yield`` on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..net.simulator import Future, all_of
from . import messages
from .controller import MBController
from .flowspace import FlowPattern
from .messages import MessageType
from .operations import CloneOperation, MergeOperation, OperationHandle
from .transaction import PatternLike, Transaction
from .transfer import TransferGuarantee, TransferSpec

#: Values accepted for the ``spec`` argument of the stateful operations: a
#: :class:`TransferSpec`, a :class:`TransferGuarantee` (or its string value,
#: e.g. ``"order_preserving"``), or None for the seed-equivalent default
#: (loss-free, pipelined per-chunk puts).
SpecLike = Union[TransferSpec, TransferGuarantee, str, None]


def _as_pattern(pattern: PatternLike) -> FlowPattern:
    """Coerce any PatternLike value into a FlowPattern (None = wildcard)."""
    if isinstance(pattern, FlowPattern):
        return pattern
    return FlowPattern.parse(pattern)


class NorthboundAPI:
    """The control API handed to control applications."""

    def __init__(self, controller: MBController) -> None:
        self.controller = controller
        #: A transaction's port (see :mod:`repro.core.transaction`): the
        #: controller's clock, and its abort of a move/clone/merge.
        self.schedule, self.event, self.abort_operation = controller.schedule, controller.event, controller.abort_operation

    @property
    def now(self) -> float:
        """The controller's current time (a transaction's clock)."""
        return self.controller.now

    def quiesce(self, handles: List[OperationHandle]) -> Future:
        """The cross-shard barrier over the shards hosting *handles*' operations (every shard when none ran)."""
        operations = [handle._operation for handle in handles if handle._operation is not None]
        return self.controller.coordinator.barrier([shard.shard_id for op in operations for shard in op.shards] or None)

    def _registered(self, *names: str) -> None:
        """Raise :class:`~repro.core.errors.UnknownMiddleboxError` for the first of *names* not registered."""
        for name in names:
            self.controller.channel_for(name)  # raises for an unknown name

    # -- transactions ----------------------------------------------------------------

    def transaction(self) -> Transaction:
        """Begin a composite northbound transaction.

        Returns a :class:`~repro.core.transaction.Transaction` builder on
        which the application declares steps — ``clone_config``, ``move``,
        ``clone``, ``merge``, ``reroute``, ``barrier`` and the composite verbs
        ``migrate`` / ``drain`` — and then calls ``commit()``
        to run them with coordinated re-routing (routes install once the
        relevant per-flow put-ACKs arrive) and all-or-nothing failure
        semantics.  This API is the transaction's port.  The six paper
        primitives below are each equivalent to a single-step transaction.
        """
        return Transaction(self, next(self.controller.txn_ids))

    # -- configuration ---------------------------------------------------------------

    def read_config(self, src_mb: str, key: str = "*") -> Future:
        """``readConfig(SrcMB, HierarchicalKey)`` — returns a future of the flat config mapping."""
        request = messages.get_config(src_mb, key)
        return self.controller.request(src_mb, request, f"readConfig({src_mb},{key})", MessageType.CONFIG_VALUE, "values")

    def write_config(self, dst_mb: str, key: str, values: Union[list, Dict[str, list]]) -> Future:
        """``writeConfig(DstMB, HierarchicalKey, [values...])``.

        When ``key`` is ``"*"`` the values argument must be a flat mapping (as
        returned by :meth:`read_config`) and the whole tree is written —
        the paper's "duplicate the configuration" idiom.
        """
        if key in ("*", ""):
            if not isinstance(values, dict):
                raise TypeError("writeConfig with key '*' requires a mapping of key -> values")
            return self._write_tree(dst_mb, values)
        if isinstance(values, dict):
            raise TypeError("writeConfig with a specific key requires a list of values")
        return self._write_key(dst_mb, key, list(values))

    def _write_key(self, dst_mb: str, key: str, values: list) -> Future:
        """One SET_CONFIG of *values* under *key*."""
        return self.controller.request(dst_mb, messages.set_config(dst_mb, key, values), f"writeConfig({dst_mb},{key})")

    def _write_tree(self, dst_mb: str, values: Dict[str, list]) -> Future:
        """One SET_CONFIG per key of a flat configuration mapping; the future ends with the last."""
        futures = [self._write_key(dst_mb, key, list(entry)) for key, entry in values.items()]
        return all_of(self.controller.sim, futures)

    def clone_config(self, src_mb: str, dst_mb: str, key: str = "*") -> Future:
        """Composition of readConfig and writeConfig (the paper's cloneConfig).

        The read returns the subtree under *key* as a flat mapping, which is
        written back key by key.  Every failure path resolves the returned
        future: a failed (or cancelled) read propagates its error, and an
        error raised while issuing the write — e.g. the destination was
        unregistered between the read and the write — fails the future
        instead of leaking an unresolved simulator event (and corrupting the
        read future's callback chain).
        """
        result = self.controller.sim.event(name=f"cloneConfig({src_mb}->{dst_mb})")

        def on_read(read_future: Future) -> None:
            if result.done:
                return  # already cancelled/failed by the caller
            if read_future.exception is not None:
                result.fail(read_future.exception)
                return
            values = read_future.result
            try:
                write_future = self._write_tree(dst_mb, values)
            except Exception as exc:
                result.fail(exc)
                return
            write_future.add_done_callback(
                lambda wf: result.fail(wf.exception) if wf.exception is not None else result.succeed(values)
            )

        try:
            self.read_config(src_mb, key).add_done_callback(on_read)
        except Exception as exc:
            result.fail(exc)
        return result

    # -- informational ----------------------------------------------------------------

    def stats(self, src_mb: str, header_fields: PatternLike = None) -> Future:
        """``stats(SrcMB, HeaderFieldList)`` — how much state exists for a key."""
        request = messages.get_stats(src_mb, _as_pattern(header_fields))
        return self.controller.request(src_mb, request, f"stats({src_mb})", MessageType.STATS_REPLY, "stats")

    # -- stateful operations ------------------------------------------------------------

    def move_internal(
        self,
        src_mb: str,
        dst_mb: str,
        header_fields: PatternLike = None,
        spec: SpecLike = None,
        *,
        standby: Optional[str] = None,
    ) -> OperationHandle:
        """``moveInternal(SrcMB, DstMB, HeaderFieldList[, TransferSpec])``.

        ``spec`` tunes the transfer: guarantee ``no_guarantee`` /
        ``loss_free`` / ``order_preserving``, the copy mode (single-pass
        snapshot or iterative pre-copy with bounded dirty-delta rounds), plus
        the pipeline optimizations ``parallelism`` (put window; 0 = unbounded,
        1 = sequential), ``batch_size`` (chunks per PUT_PERFLOW_BATCH), and
        ``early_release`` (per-flow TRANSFER_RELEASE at the source once a flow
        is moved).  Omitting it keeps the seed's behaviour (loss-free,
        pipelined puts).

        ``standby`` names a registered fallback destination: when the primary
        destination dies (crash or unregister) mid-move, the move is retried
        from scratch against the standby instead of failing outright — the
        source's state is untouched by the failed attempt, so the retry is
        loss-free.  The returned handle then follows the retry.
        """
        pattern, transfer = _as_pattern(header_fields), TransferSpec.parse(spec)
        self._registered(src_mb, dst_mb, *([standby] if standby is not None else []))
        return self.controller.start_move(src_mb, dst_mb, pattern, transfer, standby=standby)

    def clone_support(self, src_mb: str, dst_mb: str, spec: SpecLike = None) -> OperationHandle:
        """``cloneSupport(SrcMB, DstMB[, TransferSpec])``: copy shared supporting state from src to dst."""
        transfer = TransferSpec.parse(spec)
        self._registered(src_mb, dst_mb)
        return self.controller.start_operation(CloneOperation, src_mb, dst_mb, None, transfer)

    def merge_internal(self, src_mb: str, dst_mb: str, spec: SpecLike = None) -> OperationHandle:
        """``mergeInternal(SrcMB, DstMB[, TransferSpec])``: merge shared supporting and reporting state of src into dst."""
        transfer = TransferSpec.parse(spec)
        self._registered(src_mb, dst_mb)
        return self.controller.start_operation(MergeOperation, src_mb, dst_mb, None, transfer)

    def end_transfer(self, src_mb: str) -> Future:
        """Tell *src_mb* that a clone/merge transfer has completed.

        After a clone, the source keeps raising re-process events so the clone
        stays up to date while the transaction is in progress; once the control
        application has switched routing (and any related configuration) it
        calls this so the source stops replaying its own traffic to the clone.
        The controller also sends it after the quiescence timeout as a fallback.
        """
        return self.controller.request(src_mb, messages.transfer_end(src_mb), f"endTransfer({src_mb})")

    # -- events -----------------------------------------------------------------------------

    def subscribe_events(self, callback) -> None:
        """Receive introspection events forwarded by the controller."""
        self.controller.subscribe_events(callback)

    def enable_events(
        self,
        mb_name: str,
        code: str,
        header_fields: PatternLike = None,
        *,
        until: Optional[float] = None,
    ) -> Future:
        """Enable generation of introspection events at a middlebox."""
        pattern = _as_pattern(header_fields) if header_fields is not None else None
        request = messages.enable_events(mb_name, code, pattern, until)
        return self.controller.request(mb_name, request, f"enableEvents({mb_name},{code})")

    def disable_events(self, mb_name: str, code: str, header_fields: PatternLike = None) -> Future:
        """Disable generation of introspection events at a middlebox."""
        pattern = _as_pattern(header_fields) if header_fields is not None else None
        request = messages.disable_events(mb_name, code, pattern)
        return self.controller.request(mb_name, request, f"disableEvents({mb_name},{code})")
