"""Transfer guarantees and pipeline tuning for stateful operations.

The paper's prototype implements exactly one flavor of state movement:
sequential per-chunk get→put with unconditional event buffering.  Real
deployments want to trade consistency for speed, so the controller accepts a
:class:`TransferSpec` with every ``moveInternal`` / ``cloneSupport`` /
``mergeInternal`` call.  A spec combines:

* a **guarantee** (:class:`TransferGuarantee`) — what happens to the packets
  that keep updating state while its transfer is in flight:

  - ``NO_GUARANTEE``: re-process events raised during the transfer are
    dropped; updates made at the source after its state was snapshotted may be
    lost.  Fastest, weakest.
  - ``LOSS_FREE``: events are buffered per flow until the destination has
    ACKed the put for that flow's state, then replayed (the seed's behaviour,
    paper Figure 5).  No update is lost, but replays can interleave with
    packets the destination processes directly.
  - ``ORDER_PRESERVING``: additionally, puts carry a *hold* flag so the
    destination queues fresh packets for a moved flow until the controller has
    replayed that flow's buffered events in order and sent a per-flow
    ``TRANSFER_RELEASE``.  Updates are applied in arrival order; slowest.

* a **mode** (:class:`TransferMode`) — how the bulk of the state crosses the
  wire relative to the freeze point:

  - ``SNAPSHOT``: the seed's single-pass discipline.  One get marks every
    matching flow as in-transfer up front, so the event-buffering window (the
    "freeze") spans the *whole* transfer and grows with total state size.
  - ``PRECOPY``: iterative pre-copy borrowed from live VM migration.  The
    bulk round streams a snapshot while the source keeps processing packets
    un-frozen; versioned dirty-key tracking records which flows were updated;
    up to ``max_rounds`` bounded delta rounds resend only the dirtied chunks
    (round-tagged so a stale round can never overwrite newer destination
    state); once the dirty set falls to ``dirty_threshold`` or the round
    budget is spent, a short stop-and-copy round marks the flows in-transfer
    and moves only the final dirty delta — the freeze window shrinks from
    O(total state) to O(final delta).  ``max_rounds=0`` degrades to
    bit-for-bit ``SNAPSHOT`` behaviour.

* **optimizations** for the chunk pipeline:

  - ``parallelism`` — how many put messages may be in flight (unACKed) at
    once.  ``0`` means unbounded (puts issued as chunks stream in, the seed's
    behaviour); ``1`` is the fully sequential strawman that waits for each
    put's ACK before issuing the next.
  - ``batch_size`` — how many chunks are packed into one
    ``PUT_PERFLOW_BATCH`` message.  Batching amortises the controller's
    per-message cost over many chunks (one ACK per batch instead of one per
    chunk), which is the standard lever for bulk inter-node transfers.
  - ``early_release`` — as soon as a flow's state is installed at the
    destination and its buffered events are flushed, send the *source* a
    per-flow ``TRANSFER_RELEASE`` so it stops raising re-process events for
    that flow.  Reduces event volume during long transfers, at the cost of
    losing updates that hit the source after the release (weaker than pure
    loss-free; use with NO_GUARANTEE or after rerouting).

``TransferSpec.default()`` reproduces the seed's single hard-coded flavor
exactly (loss-free, unbounded pipelined puts, no batching, no early release),
so existing control applications keep their semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Union


class TransferGuarantee(enum.Enum):
    """Consistency level applied to in-transfer state updates."""

    NO_GUARANTEE = "no_guarantee"
    LOSS_FREE = "loss_free"
    ORDER_PRESERVING = "order_preserving"


class TransferMode(enum.Enum):
    """How state crosses the wire relative to the freeze point.

    ``SNAPSHOT`` is the paper's single-pass copy (freeze spans the whole
    transfer); ``PRECOPY`` streams bulk + bounded dirty-delta rounds first and
    freezes only for the final delta.  See the module docstring.
    """

    SNAPSHOT = "snapshot"
    PRECOPY = "precopy"


@dataclass(frozen=True)
class TransferSpec:
    """How a stateful northbound operation moves its chunks and events.

    See the module docstring for the meaning of each field.  Instances are
    immutable and hashable so they can key per-configuration statistics.
    """

    guarantee: TransferGuarantee = TransferGuarantee.LOSS_FREE
    #: Maximum put/batch messages awaiting an ACK; 0 = unbounded (seed default).
    parallelism: int = 0
    #: Chunks per PUT_PERFLOW_BATCH message; 1 = one classic put per chunk.
    batch_size: int = 1
    #: Release the source's per-flow transfer marker as soon as the flow is moved.
    early_release: bool = False
    #: Copy discipline: single-pass SNAPSHOT (the seed) or iterative PRECOPY.
    mode: TransferMode = TransferMode.SNAPSHOT
    #: Pre-copy only: maximum dirty-delta rounds between the bulk round and the
    #: final stop-and-copy.  0 degrades PRECOPY to bit-for-bit SNAPSHOT.
    max_rounds: int = 3
    #: Pre-copy only: stop iterating (and freeze) once the dirty set is this small.
    dirty_threshold: int = 0
    #: Pre-copy only: WAN-adaptive inter-round pacing gain.  After each
    #: non-final round the operation waits ``wan_pacing`` times the *measured*
    #: duration of the round it just finished before starting the next one, so
    #: the gap between delta rounds stretches automatically with the observed
    #: bandwidth, latency, and jitter of the (possibly inter-domain) channel.
    #: ``0.0`` (the default) keeps today's back-to-back round scheduling.
    wan_pacing: float = 0.0
    #: Negotiate zlib compression of chunk payloads for this transfer: the
    #: source seals each exported chunk compressed and the batch framing is
    #: marked so the destination knows what it is installing.  Reproduces the
    #: paper's section 8.3 optimisation (~38 % smaller state) as a per-transfer
    #: knob — the WAN lever for cross-datacenter moves where bandwidth, not
    #: CPU, is the scarce resource.
    compress: bool = False

    def __post_init__(self) -> None:
        """Validate field ranges; raises ValueError on malformed specs."""
        if not isinstance(self.guarantee, TransferGuarantee):
            raise ValueError(f"guarantee must be a TransferGuarantee, got {self.guarantee!r}")
        if not isinstance(self.mode, TransferMode):
            raise ValueError(f"mode must be a TransferMode, got {self.mode!r}")
        if self.parallelism < 0:
            raise ValueError(f"parallelism must be >= 0, got {self.parallelism}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {self.max_rounds}")
        if self.dirty_threshold < 0:
            raise ValueError(f"dirty_threshold must be >= 0, got {self.dirty_threshold}")
        if self.wan_pacing < 0:
            raise ValueError(f"wan_pacing must be >= 0, got {self.wan_pacing}")

    # -- canned configurations ---------------------------------------------------------

    @classmethod
    def default(cls) -> "TransferSpec":
        """The seed's behaviour: loss-free, pipelined single-chunk puts."""
        return cls()

    @classmethod
    def sequential(cls, guarantee: TransferGuarantee = TransferGuarantee.LOSS_FREE) -> "TransferSpec":
        """Strictly sequential puts: wait for each ACK before the next put."""
        return cls(guarantee=guarantee, parallelism=1)

    @classmethod
    def parallel(
        cls, window: int = 0, guarantee: TransferGuarantee = TransferGuarantee.LOSS_FREE
    ) -> "TransferSpec":
        """Pipelined puts with up to *window* messages in flight (0 = unbounded)."""
        return cls(guarantee=guarantee, parallelism=window)

    @classmethod
    def batched(
        cls, batch_size: int = 32, guarantee: TransferGuarantee = TransferGuarantee.LOSS_FREE
    ) -> "TransferSpec":
        """Pack *batch_size* chunks per put message, one ACK per batch."""
        return cls(guarantee=guarantee, batch_size=batch_size)

    @classmethod
    def precopy(
        cls,
        max_rounds: int = 3,
        dirty_threshold: int = 0,
        guarantee: TransferGuarantee = TransferGuarantee.LOSS_FREE,
        **fields: Any,
    ) -> "TransferSpec":
        """Iterative pre-copy: bulk + dirty-delta rounds, then a short freeze."""
        return cls(
            guarantee=guarantee,
            mode=TransferMode.PRECOPY,
            max_rounds=max_rounds,
            dirty_threshold=dirty_threshold,
            **fields,
        )

    # -- parsing -----------------------------------------------------------------------

    @classmethod
    def parse(cls, value: Union["TransferSpec", TransferGuarantee, str, Dict[str, Any], None]) -> "TransferSpec":
        """Coerce a user-supplied value into a spec.

        Accepts an existing spec, a guarantee (enum or its string value), a
        mapping of constructor fields, or None (the default spec).  Malformed
        input raises :class:`~repro.core.errors.SpecError`.
        """
        from .errors import SpecError

        def guarantee_of(raw: object) -> TransferGuarantee:
            if isinstance(raw, TransferGuarantee):
                return raw
            try:
                return TransferGuarantee(raw)
            except ValueError:
                known = ", ".join(g.value for g in TransferGuarantee)
                raise SpecError(f"unknown transfer guarantee {raw!r} (expected one of {known})") from None

        def mode_of(raw: object) -> TransferMode:
            if isinstance(raw, TransferMode):
                return raw
            try:
                return TransferMode(raw)
            except ValueError:
                known = ", ".join(m.value for m in TransferMode)
                raise SpecError(f"unknown transfer mode {raw!r} (expected one of {known})") from None

        if value is None:
            return cls.default()
        if isinstance(value, cls):
            return value
        if isinstance(value, (TransferGuarantee, str)):
            return cls(guarantee=guarantee_of(value))
        if isinstance(value, dict):
            fields = dict(value)
            guarantee = guarantee_of(fields.pop("guarantee", TransferGuarantee.LOSS_FREE))
            mode = mode_of(fields.pop("mode", TransferMode.SNAPSHOT))
            known_fields = {
                "parallelism",
                "batch_size",
                "early_release",
                "max_rounds",
                "dirty_threshold",
                "wan_pacing",
                "compress",
            }
            unknown = sorted(set(fields) - known_fields)
            if unknown:
                raise SpecError(
                    f"unknown TransferSpec field(s) {', '.join(map(repr, unknown))} "
                    f"(expected guarantee, mode, {', '.join(sorted(known_fields))})"
                )
            try:
                return cls(guarantee=guarantee, mode=mode, **fields)
            except (TypeError, ValueError) as exc:
                raise SpecError(f"malformed TransferSpec mapping {value!r}: {exc}") from exc
        raise SpecError(f"cannot interpret {value!r} as a TransferSpec")

    # -- derived properties ------------------------------------------------------------

    @property
    def holds_destination_flows(self) -> bool:
        """True when puts must carry the hold flag (order-preserving mode).

        Pre-copy operations apply the hold only to their final stop-and-copy
        puts (the operation gates it per round); this property states the
        guarantee-level requirement.
        """
        return self.guarantee is TransferGuarantee.ORDER_PRESERVING

    @property
    def is_precopy(self) -> bool:
        """True when the transfer actually iterates (PRECOPY with rounds > 0).

        ``PRECOPY`` with ``max_rounds=0`` is defined to degrade to bit-for-bit
        ``SNAPSHOT`` behaviour, so it reports False here.
        """
        return self.mode is TransferMode.PRECOPY and self.max_rounds > 0
