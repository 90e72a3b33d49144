"""The application-facing ("northbound") control API.

Control applications never talk to middleboxes directly; they use this facade
over the :class:`~repro.core.controller.MBController`.  The six operations of
the paper's section 5 (``readConfig``, ``writeConfig``, ``stats``,
``moveInternal``, ``cloneSupport``, ``mergeInternal``) are the snake_case
methods ``read_config``, ``write_config``, ``stats``, ``move_internal``,
``clone_support`` and ``merge_internal``; each one's docstring names its paper
call.  All operations are asynchronous on the simulated clock: they return
:class:`~repro.net.simulator.Future` objects (or
:class:`~repro.core.operations.OperationHandle` for the stateful operations)
that control-application processes ``yield`` on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..net.simulator import Future
from .controller import MBController
from .flowspace import FlowPattern
from .operations import OperationHandle
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
        return self.controller.read_config(src_mb, key)

    def write_config(self, dst_mb: str, key: str, values: Union[list, Dict[str, list]]) -> Future:
        """``writeConfig(DstMB, HierarchicalKey, [values...])``.

        When ``key`` is ``"*"`` the values argument must be a flat mapping (as
        returned by :meth:`read_config`) and the whole tree is written —
        the paper's "duplicate the configuration" idiom.
        """
        if key in ("*", ""):
            if not isinstance(values, dict):
                raise TypeError("writeConfig with key '*' requires a mapping of key -> values")
            return self.controller.write_config_tree(dst_mb, values)
        if isinstance(values, dict):
            raise TypeError("writeConfig with a specific key requires a list of values")
        return self.controller.write_config(dst_mb, key, list(values))

    def clone_config(self, src_mb: str, dst_mb: str, key: str = "*") -> Future:
        """Composition of readConfig and writeConfig (the paper's cloneConfig).

        Every failure path resolves the returned future: a failed (or
        cancelled) read propagates its error, and an error raised while
        issuing the write — e.g. the destination was unregistered between the
        read and the write — fails the future instead of leaking an unresolved
        simulator event (and corrupting the read future's callback chain).
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
                if key in ("*", ""):
                    write_future = self.controller.write_config_tree(dst_mb, values)
                else:
                    write_future = self.controller.write_config(dst_mb, key, list(values))
            except Exception as exc:
                result.fail(exc)
                return
            write_future.add_done_callback(
                lambda wf: result.fail(wf.exception) if wf.exception is not None else result.succeed(values)
            )

        try:
            self.controller.read_config(src_mb, key).add_done_callback(on_read)
        except Exception as exc:
            result.fail(exc)
        return result

    # -- informational ----------------------------------------------------------------

    def stats(self, src_mb: str, header_fields: PatternLike = None) -> Future:
        """``stats(SrcMB, HeaderFieldList)`` — how much state exists for a key."""
        return self.controller.query_stats(src_mb, _as_pattern(header_fields))

    # -- stateful operations ------------------------------------------------------------

    def move_internal(
        self, src_mb: str, dst_mb: str, header_fields: PatternLike = None, spec: SpecLike = None
    ) -> OperationHandle:
        """``moveInternal(SrcMB, DstMB, HeaderFieldList[, TransferSpec])``.

        ``spec`` tunes the transfer: guarantee ``no_guarantee`` /
        ``loss_free`` / ``order_preserving`` plus the pipeline optimizations
        ``parallelism`` (put window; 0 = unbounded, 1 = sequential),
        ``batch_size`` (chunks per PUT_PERFLOW_BATCH), and ``early_release``
        (per-flow TRANSFER_RELEASE at the source once a flow is moved).
        Omitting it keeps the seed's behaviour (loss-free, pipelined puts).
        """
        return self.controller.move_internal(
            src_mb, dst_mb, _as_pattern(header_fields), TransferSpec.parse(spec)
        )

    def clone_support(self, src_mb: str, dst_mb: str, spec: SpecLike = None) -> OperationHandle:
        """``cloneSupport(SrcMB, DstMB[, TransferSpec])``."""
        return self.controller.clone_support(src_mb, dst_mb, TransferSpec.parse(spec))

    def merge_internal(self, src_mb: str, dst_mb: str, spec: SpecLike = None) -> OperationHandle:
        """``mergeInternal(SrcMB, DstMB[, TransferSpec])``."""
        return self.controller.merge_internal(src_mb, dst_mb, TransferSpec.parse(spec))

    def end_transfer(self, src_mb: str) -> Future:
        """Tell *src_mb* that a clone/merge transfer has completed.

        After a clone, the source keeps raising re-process events so the clone
        stays up to date while the transaction is in progress; once the control
        application has switched routing (and any related configuration) it
        calls this so the source stops replaying its own traffic to the clone.
        """
        return self.controller.end_transfer(src_mb)

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
        return self.controller.enable_events(mb_name, code, pattern, until)

    def disable_events(self, mb_name: str, code: str, header_fields: PatternLike = None) -> Future:
        """Disable generation of introspection events at a middlebox."""
        pattern = _as_pattern(header_fields) if header_fields is not None else None
        return self.controller.disable_events(mb_name, code, pattern)
