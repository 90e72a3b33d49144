"""Figure 10(b): average time per move vs number of simultaneous moves.

Two experiments share this module:

* the **paper figure** (single shard): several pairs of dummy middleboxes
  start ``moveInternal`` operations at the same time; the controller's
  message handling is serialised through one simulated CPU, so the average
  time per operation grows with both the number of simultaneous operations
  and the number of chunks per operation — the linear trends of Figure 10(b);
* the **shard-scaling axis** (beyond the paper): the same contention point is
  removed by partitioning the controller into N shards
  (:mod:`repro.core.sharding`), each running its own event/ACK loop, with the
  batched southbound dispatcher coalescing same-window puts per destination
  channel.  At 64 concurrent moves, 4 shards must deliver at least 2x the
  operation throughput of 1 shard while losing and reordering **zero**
  in-transfer updates under both the loss-free and order-preserving
  guarantees.

Run as a script to measure one configuration directly::

    PYTHONPATH=src python benchmarks/bench_fig10b_concurrent_moves.py --shards 4
"""

from __future__ import annotations

from repro.analysis import format_table, print_block
from repro.core import ControllerConfig, MBController, NorthboundAPI
from repro.middleboxes import DummyMiddlebox
from repro.net import Simulator

try:
    from benchmarks.conftest import controller_with_dummies
    from benchmarks._results import duration_stats, freeze_stats, write_results
except ModuleNotFoundError:  # invoked as a script: benchmarks/ is sys.path[0]
    from conftest import controller_with_dummies
    from _results import duration_stats, freeze_stats, write_results

CONCURRENCY_LEVELS = (1, 2, 4, 8)
CHUNKS_PER_PAIR = (500, 1000)

#: Shard-scaling experiment shape (the acceptance point of the sharding PR).
SCALING_MOVES = 64
SCALING_CHUNKS = 150
SHARD_COUNTS = (1, 2, 4)
#: Southbound batching window used for the sharded runs.
SCALING_DISPATCH_TICK = 0.0005
#: Live re-process event stream injected at every source during the transfer.
EVENT_RATE = 400.0
EVENT_DURATION = 0.05


def run_concurrent_moves(concurrency: int, chunks: int) -> float:
    sim, controller, northbound, pairs = controller_with_dummies([chunks] * concurrency)
    handles = [northbound.move_internal(src.name, dst.name, None) for src, dst in pairs]
    for handle in handles:
        sim.run_until(handle.completed, limit=5000)
    durations = [handle.record.duration for handle in handles]
    return sum(durations) / len(durations)


def run_sharded_moves(
    num_shards: int,
    *,
    moves: int = SCALING_MOVES,
    chunks: int = SCALING_CHUNKS,
    guarantee: str = "loss_free",
    dispatch_tick: float = SCALING_DISPATCH_TICK,
    event_rate: float = EVENT_RATE,
) -> dict:
    """Run *moves* simultaneous wildcard moves on an N-shard controller.

    Returns makespan, operation throughput (completed moves per simulated
    second), per-shard load, and the update-accounting needed to prove zero
    lost/reordered updates: every source also emits a live re-process event
    stream while its transfer is in flight.
    """
    sim = Simulator()
    controller = MBController(
        sim,
        ControllerConfig(quiescence_timeout=0.1, num_shards=num_shards, dispatch_tick=dispatch_tick),
    )
    northbound = NorthboundAPI(controller)
    pairs = []
    for index in range(moves):
        src = DummyMiddlebox(sim, f"dummy-src-{index}", chunk_count=chunks)
        dst = DummyMiddlebox(sim, f"dummy-dst-{index}")
        controller.register(src)
        controller.register(dst)
        pairs.append((src, dst))
    handles = [northbound.move_internal(src.name, dst.name, None, spec=guarantee) for src, dst in pairs]
    if event_rate:
        for src, _ in pairs:
            src.generate_events_at_rate(event_rate, EVENT_DURATION)
    for handle in handles:
        sim.run_until(handle.completed, limit=5000)
    # Drain the tail of the event stream (and quiescence) so the update
    # accounting below sees every generated event delivered.
    sim.run(until=sim.now + 2.0)
    records = [handle.record for handle in handles]
    makespan = max(record.completed_at for record in records) - min(record.started_at for record in records)
    generated = sum(src.events_generated for src, _ in pairs)
    return {
        "num_shards": num_shards,
        "guarantee": guarantee,
        "makespan": makespan,
        "throughput": moves / makespan,
        "mean_duration": sum(record.duration for record in records) / moves,
        "durations": [record.duration for record in records],
        "freeze_windows": [record.freeze_window for record in records],
        "chunks": sum(record.chunks_transferred for record in records),
        "puts_acked": sum(record.puts_acked for record in records),
        "events_generated": generated,
        "events_received": sum(record.events_received for record in records),
        "events_forwarded": sum(record.events_forwarded for record in records),
        "events_dropped": sum(record.events_dropped for record in records),
        "releases_sent": sum(record.releases_sent for record in records),
        "unique_flows": moves * chunks,
        "batches_dispatched": controller.stats.batches_dispatched,
        "messages_coalesced": controller.stats.messages_coalesced,
        "shard_events": [shard["events"] for shard in controller.shard_summary()["shards"]],
        "shard_messages": [shard["messages"] for shard in controller.shard_summary()["shards"]],
    }


def assert_no_lost_or_reordered_updates(result: dict) -> None:
    """The transfer-guarantee invariants the scaling run must preserve.

    * every exported chunk was put and ACKed (no partial installs);
    * under loss-free and order-preserving: no event was dropped, and every
      event delivered to an operation was replayed at the destination
      (nothing lost);
    * under order-preserving, every moved flow was released — the destination
      held its packets until the flow's replays ACKed in order, so nothing
      was reordered.

    ``no_guarantee`` promises none of the event invariants (dropping
    in-transfer events is its documented behaviour), so only the chunk
    accounting applies there.
    """
    assert result["puts_acked"] == result["chunks"], "Fig. 10(b): every put is ACKed"
    if result["guarantee"] == "no_guarantee":
        return
    assert result["events_dropped"] == 0, "Fig. 10(b): no event is dropped"
    assert result["events_received"] == result["events_generated"], "Fig. 10(b): every raised event reaches the controller"
    assert result["events_forwarded"] >= result["events_received"], "Fig. 10(b): every received event is replayed (nothing lost)"
    if result["guarantee"] == "order_preserving":
        assert result["releases_sent"] >= result["unique_flows"], (
            "Fig. 10(b): order-preserving releases every moved flow (nothing reordered)"
        )


def test_fig10b_concurrent_moves(once):
    def run_all():
        return {
            (concurrency, chunks): run_concurrent_moves(concurrency, chunks)
            for chunks in CHUNKS_PER_PAIR
            for concurrency in CONCURRENCY_LEVELS
        }

    results = once(run_all)

    rows = [
        (concurrency, chunks * 2, round(results[(concurrency, chunks)] * 1000, 1))
        for chunks in CHUNKS_PER_PAIR
        for concurrency in CONCURRENCY_LEVELS
    ]
    print_block(
        format_table(
            "Figure 10(b) — average time per moveInternal vs simultaneous operations",
            ["simultaneous moves", "chunks per move", "avg time per move (ms)"],
            rows,
        )
    )

    for chunks in CHUNKS_PER_PAIR:
        series = [results[(concurrency, chunks)] for concurrency in CONCURRENCY_LEVELS]
        # Average per-move time grows with the number of simultaneous operations.
        assert series[0] < series[1] < series[2] < series[3], "Fig. 10(b): mean move time grows with simultaneous moves"
    # And with the number of chunks per operation.
    for concurrency in CONCURRENCY_LEVELS:
        assert results[(concurrency, 1000)] > results[(concurrency, 500)], "Fig. 10(b): mean move time grows with the chunks per move"


def test_shard_scaling_64_concurrent_moves(once):
    """The sharding acceptance point: >= 2x throughput at 4 shards, zero loss."""

    def run_all():
        return [run_sharded_moves(num_shards) for num_shards in SHARD_COUNTS]

    results = once(run_all)
    by_shards = {result["num_shards"]: result for result in results}

    print_block(
        format_table(
            f"Shard scaling — {SCALING_MOVES} simultaneous moves, {SCALING_CHUNKS * 2} chunks each (loss-free)",
            ["shards", "makespan (ms)", "moves/s", "mean move (ms)", "batches", "events fwd"],
            [
                (
                    result["num_shards"],
                    round(result["makespan"] * 1000, 1),
                    round(result["throughput"], 1),
                    round(result["mean_duration"] * 1000, 1),
                    result["batches_dispatched"],
                    result["events_forwarded"],
                )
                for result in results
            ],
        )
    )

    write_results(
        "fig10b_concurrent_moves",
        {
            "workload": {"moves": SCALING_MOVES, "chunks": SCALING_CHUNKS, "guarantee": "loss_free"},
            "shards": {
                str(result["num_shards"]): {
                    "makespan_ms": round(result["makespan"] * 1000, 4),
                    "throughput_moves_per_sec": round(result["throughput"], 3),
                    "move": duration_stats(result["durations"]),
                    "freeze": freeze_stats(result["freeze_windows"]),
                }
                for result in results
            },
        },
    )

    # >= 2x operation throughput at 4 shards vs 1 shard, 64 concurrent moves.
    assert by_shards[4]["throughput"] >= 2.0 * by_shards[1]["throughput"], "Fig. 10(b): ≥ 2× throughput at 4 shards"
    # Monotone: adding shards never slows the workload down.
    assert by_shards[2]["throughput"] >= by_shards[1]["throughput"], "Fig. 10(b): adding shards never slows the workload"
    # The event stream spread across several shard loops at 4 shards.
    assert sum(1 for count in by_shards[4]["shard_events"] if count > 0) >= 2, "Fig. 10(b): events spread over ≥ 2 shard loops at 4 shards"
    # Safety is not traded for speed: zero lost updates at every shard count.
    for result in results:
        assert_no_lost_or_reordered_updates(result)


def test_shard_scaling_order_preserving_correctness(once):
    """Order-preserving at 4 shards: zero lost *and* zero reordered updates."""

    def run_both():
        return [
            run_sharded_moves(4, chunks=40, guarantee="order_preserving"),
            run_sharded_moves(1, chunks=40, guarantee="order_preserving"),
        ]

    sharded, single = once(run_both)
    for result in (sharded, single):
        assert_no_lost_or_reordered_updates(result)
    # The guarantee holds while sharding still relieves the contention.
    assert sharded["makespan"] < single["makespan"], "Fig. 10(b): sharding relieves the contention under order-preserving"


def main() -> None:
    """CLI entry point: measure one shard count directly (``--shards N``)."""
    import argparse

    parser = argparse.ArgumentParser(description="Concurrent-move throughput vs controller shard count")
    parser.add_argument("--shards", type=int, default=1, help="number of controller shards")
    parser.add_argument("--moves", type=int, default=SCALING_MOVES, help="simultaneous moveInternal operations")
    parser.add_argument("--chunks", type=int, default=SCALING_CHUNKS, help="per-flow chunks per source")
    parser.add_argument(
        "--guarantee",
        default="loss_free",
        choices=["no_guarantee", "loss_free", "order_preserving"],
        help="transfer guarantee for every move",
    )
    args = parser.parse_args()
    result = run_sharded_moves(args.shards, moves=args.moves, chunks=args.chunks, guarantee=args.guarantee)
    assert_no_lost_or_reordered_updates(result)
    write_results(
        "fig10b_concurrent_moves",
        {
            "workload": {"moves": args.moves, "chunks": args.chunks, "guarantee": args.guarantee},
            "shards": {
                str(args.shards): {
                    "makespan_ms": round(result["makespan"] * 1000, 4),
                    "throughput_moves_per_sec": round(result["throughput"], 3),
                    "move": duration_stats(result["durations"]),
                    "freeze": freeze_stats(result["freeze_windows"]),
                }
            },
        },
    )
    print_block(
        format_table(
            f"{args.moves} concurrent moves, {args.chunks * 2} chunks each, {args.guarantee}, {args.shards} shard(s)",
            ["metric", "value"],
            [
                ("makespan (ms)", round(result["makespan"] * 1000, 2)),
                ("throughput (moves/s)", round(result["throughput"], 2)),
                ("mean move time (ms)", round(result["mean_duration"] * 1000, 2)),
                ("puts acked", result["puts_acked"]),
                ("events forwarded", result["events_forwarded"]),
                ("events dropped", result["events_dropped"]),
                ("batches dispatched", result["batches_dispatched"]),
                ("messages coalesced", result["messages_coalesced"]),
                ("per-shard messages", result["shard_messages"]),
            ],
        )
    )


if __name__ == "__main__":
    main()
