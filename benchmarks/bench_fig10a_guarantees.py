"""Figure 10(a) extension: moveInternal time across guarantee x optimization.

The transfer-strategy refactor makes the move flavor a tunable
:class:`~repro.core.transfer.TransferSpec` instead of one hard-coded state
machine.  This benchmark regenerates the controller-performance experiment of
Figure 10(a) as a matrix:

* **pipeline optimizations** (at the seed's loss-free guarantee): strictly
  sequential puts (window of 1), the seed's pipelined default, a bounded
  parallel window, and batched puts (many chunks per PUT_PERFLOW_BATCH with a
  single ACK) — batching amortises the controller's per-message cost, the
  dominant term at large chunk counts;
* **guarantees** (at the default pipeline): NO_GUARANTEE drops in-transfer
  events, LOSS_FREE buffers and replays them (seed behaviour), and
  ORDER_PRESERVING additionally replays in order behind destination-side
  per-flow holds released with TRANSFER_RELEASE.

Expected shape: batched puts strictly faster than the sequential default and
the window-1 strawman far slower, while move time ranks
NO_GUARANTEE <= LOSS_FREE <= ORDER_PRESERVING.  A companion correctness table
(live-traffic monitor migration) shows loss-free and order-preserving moves
lose zero per-flow updates while no-guarantee moves drop every in-transfer
event.
"""

from __future__ import annotations

from repro.analysis import format_table, print_block
from repro.apps import run_guarantee_scenario
from repro.core import TransferGuarantee, TransferSpec
from benchmarks.conftest import controller_with_dummies

#: Per-pair chunk count (a move transfers 2x this: supporting + reporting).
CHUNK_COUNT = 1000

#: Event rate while the move is in flight (events/second of simulated time),
#: the same stress the paper's Figure 10(a) "with events" series applies.
EVENT_RATE = 2000.0

#: The pipeline optimizations compared at the loss-free guarantee.
OPTIMIZATIONS = (
    ("sequential (window 1)", TransferSpec.sequential()),
    ("pipelined (default)", TransferSpec.default()),
    ("parallel (window 8)", TransferSpec.parallel(window=8)),
    ("batched x32", TransferSpec.batched(32)),
    ("batched x32 + parallel 8", TransferSpec(parallelism=8, batch_size=32)),
)

#: The guarantees compared at the default pipeline.
GUARANTEES = (
    TransferGuarantee.NO_GUARANTEE,
    TransferGuarantee.LOSS_FREE,
    TransferGuarantee.ORDER_PRESERVING,
)


def run_single_move(spec: TransferSpec) -> dict:
    sim, controller, northbound, pairs = controller_with_dummies([CHUNK_COUNT])
    src, dst = pairs[0]
    src.generate_events_at_rate(EVENT_RATE, duration=5.0)
    handle = northbound.move_internal(src.name, dst.name, None, spec=spec)
    record = sim.run_until(handle.completed, limit=1000)
    return {
        "chunks": record.chunks_transferred,
        "duration": record.duration,
        "events": record.events_received,
        "forwarded": record.events_forwarded,
        "dropped": record.events_dropped,
        "batches": record.batches_sent,
        "releases": record.releases_sent,
    }


def test_fig10a_guarantee_optimization_matrix(once):
    def run_all():
        optimization = {name: run_single_move(spec) for name, spec in OPTIMIZATIONS}
        guarantee = {
            g.value: run_single_move(TransferSpec(guarantee=g)) for g in GUARANTEES
        }
        loss = {
            g.value: run_guarantee_scenario(TransferSpec(guarantee=g))
            for g in GUARANTEES
        }
        return optimization, guarantee, loss

    optimization, guarantee, loss = once(run_all)

    print_block(
        format_table(
            f"Move time vs pipeline optimization (loss-free, {2 * CHUNK_COUNT} chunks, events at {EVENT_RATE:.0f}/s)",
            ["optimization", "move time (ms)", "put batches", "events seen"],
            [
                (name, round(result["duration"] * 1000, 1), result["batches"], result["events"])
                for name, result in optimization.items()
            ],
        )
    )
    print_block(
        format_table(
            f"Move time vs transfer guarantee (default pipeline, {2 * CHUNK_COUNT} chunks, events at {EVENT_RATE:.0f}/s)",
            ["guarantee", "move time (ms)", "events fwd", "events dropped", "releases"],
            [
                (
                    name,
                    round(result["duration"] * 1000, 1),
                    result["forwarded"],
                    result["dropped"],
                    result["releases"],
                )
                for name, result in guarantee.items()
            ],
        )
    )
    print_block(
        format_table(
            "Correctness under live traffic (monitor migration, 20 flows)",
            ["guarantee", "updates lost", "events dropped", "events forwarded"],
            [
                (
                    name,
                    result.updates_lost,
                    result.record.events_dropped,
                    result.record.events_forwarded,
                )
                for name, result in loss.items()
            ],
        )
    )

    sequential = optimization["sequential (window 1)"]["duration"]
    default = optimization["pipelined (default)"]["duration"]
    parallel = optimization["parallel (window 8)"]["duration"]
    batched = optimization["batched x32"]["duration"]

    # Batched and parallel pipelines beat the sequential strawman by a wide
    # margin, and batching (one ACK per 32 chunks) also strictly beats the
    # seed's pipelined per-chunk default.
    assert batched < default < sequential, "Fig. 10(a) extension: batched < pipelined < sequential move time"
    assert parallel < sequential, "Fig. 10(a) extension: a parallel window beats the sequential move"
    assert min(batched, parallel) < default, "Fig. 10(a) extension: batching or parallelism beats the default pipeline"

    # Stronger guarantees cost move time: NO_GUARANTEE <= LOSS_FREE <= ORDER_PRESERVING.
    ng = guarantee[TransferGuarantee.NO_GUARANTEE.value]["duration"]
    lf = guarantee[TransferGuarantee.LOSS_FREE.value]["duration"]
    op = guarantee[TransferGuarantee.ORDER_PRESERVING.value]["duration"]
    assert ng <= lf <= op, "Fig. 10(a) extension: no-guarantee ≤ loss-free ≤ order-preserving move time"

    # Loss-free (and order-preserving) moves lose zero per-flow updates under
    # live traffic; no-guarantee moves drop every in-transfer event.
    assert loss[TransferGuarantee.LOSS_FREE.value].updates_lost == 0, "Fig. 10(a) extension: loss-free loses no update"
    assert loss[TransferGuarantee.LOSS_FREE.value].record.events_dropped == 0, "Fig. 10(a) extension: loss-free drops no event"
    assert loss[TransferGuarantee.ORDER_PRESERVING.value].updates_lost == 0, "Fig. 10(a) extension: order-preserving loses no update"
    assert loss[TransferGuarantee.NO_GUARANTEE.value].record.events_dropped > 0, "Fig. 10(a) extension: no-guarantee drops events"
    assert loss[TransferGuarantee.NO_GUARANTEE.value].updates_lost > 0, "Fig. 10(a) extension: no-guarantee loses updates"

    # Order-preserving mode releases every moved flow (flows whose second
    # state role streamed in after the first was released are re-released).
    assert (
        guarantee[TransferGuarantee.ORDER_PRESERVING.value]["releases"] >= CHUNK_COUNT
    ), "Fig. 10(a) extension: order-preserving releases every moved flow"
