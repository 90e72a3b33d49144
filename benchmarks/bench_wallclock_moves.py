"""Wall-clock concurrent-move throughput on the realtime runtime.

The simulated twin of this experiment is ``bench_fig10b_concurrent_moves``;
here the same workload — N simultaneous ``moveInternal`` operations between
dummy middlebox pairs — runs on the :class:`~repro.runtime.RealtimeRuntime`,
so every reported number is **measured wall time**: per-operation durations
come from ``OperationRecord`` timestamps taken off the monotonic clock, and
the end-to-end elapsed time is cross-checked against a ``time.monotonic()``
bracket around the whole run.  Reported metrics: real operations/second and
p50/p99 per-move latency, persisted as ``BENCH_wallclock_moves.json``.

No absolute-speed assertions are made (wall clocks vary across machines and
CI runners); the test asserts completeness (every chunk transferred, every
operation committed) and internal consistency of the measurements.

Runnable directly::

    PYTHONPATH=src python benchmarks/bench_wallclock_moves.py --concurrency 8
"""

from __future__ import annotations

import time

from repro.analysis import format_table, print_block
from repro.runtime import RuntimeConfig

try:
    from benchmarks.conftest import controller_with_dummies
    from benchmarks._results import duration_stats, write_results
except ModuleNotFoundError:  # invoked as a script: benchmarks/ is sys.path[0]
    from conftest import controller_with_dummies
    from _results import duration_stats, write_results

#: Simultaneous moveInternal operations per measured level.
CONCURRENCY_LEVELS = (1, 4, 8)
#: Per-pair chunk count (each move transfers 2x this: supporting + reporting).
CHUNKS_PER_PAIR = 40
#: Controller shards for the concurrent levels (the PR-3 contention fix).
SHARDS = 2


def run_concurrent_moves(concurrency: int, *, chunks: int = CHUNKS_PER_PAIR, shards: int = SHARDS) -> dict:
    """Run *concurrency* simultaneous wall-clock moves; returns the measurements."""
    runtime, controller, northbound, pairs = controller_with_dummies(
        [chunks] * concurrency, runtime=RuntimeConfig(mode="realtime").create(), shards=shards, quiescence=0.01
    )
    try:
        wall_start = time.monotonic()
        handles = [northbound.move_internal(src.name, dst.name, None) for src, dst in pairs]
        for handle in handles:
            runtime.run_until(handle.finalized, limit=runtime.now + 60.0)
        runtime.run(until=runtime.now + 0.01)  # drain late deletes/acks
        wall_elapsed = time.monotonic() - wall_start
        records = [handle.record for handle in handles]
        makespan = max(r.completed_at for r in records) - min(r.started_at for r in records)
        result = {
            "concurrency": concurrency,
            "chunks_per_move": chunks * 2,
            "shards": shards,
            "durations": [r.duration for r in records],
            "makespan": makespan,
            "wall_elapsed": wall_elapsed,
            "ops_per_sec": concurrency / makespan if makespan else float("inf"),
            "chunks_transferred": sum(r.chunks_transferred for r in records),
            "puts_acked": sum(r.puts_acked for r in records),
        }
    finally:
        result_close = runtime.close()
    result["close"] = result_close
    return result


def _persist(results: list) -> None:
    write_results(
        "wallclock_moves",
        {
            "workload": {"chunks_per_pair": CHUNKS_PER_PAIR, "shards": SHARDS, "guarantee": "loss_free"},
            "levels": {
                str(result["concurrency"]): {
                    "ops_per_sec": round(result["ops_per_sec"], 3),
                    "makespan_ms": round(result["makespan"] * 1000, 3),
                    "wall_elapsed_ms": round(result["wall_elapsed"] * 1000, 3),
                    "move": duration_stats(result["durations"]),
                }
                for result in results
            },
        },
    )


def _print(results: list) -> None:
    print_block(
        format_table(
            f"Wall-clock concurrent moves — {CHUNKS_PER_PAIR * 2} chunks/move, {SHARDS} shards (realtime runtime)",
            ["concurrent", "ops/sec", "p50 move (ms)", "p99 move (ms)", "makespan (ms)", "wall (ms)"],
            [
                (
                    result["concurrency"],
                    round(result["ops_per_sec"], 1),
                    duration_stats(result["durations"])["p50_ms"],
                    duration_stats(result["durations"])["p99_ms"],
                    round(result["makespan"] * 1000, 1),
                    round(result["wall_elapsed"] * 1000, 1),
                )
                for result in results
            ],
        )
    )


def test_wallclock_concurrent_moves(once):
    def run_all():
        return [run_concurrent_moves(concurrency) for concurrency in CONCURRENCY_LEVELS]

    results = once(run_all)
    _print(results)
    _persist(results)

    for result in results:
        # Completeness: every chunk was exported, put, and ACKed.
        expected = result["concurrency"] * result["chunks_per_move"]
        assert result["chunks_transferred"] == expected
        assert result["puts_acked"] == expected
        # The runtime shut down without leaking scheduled work.
        assert result["close"]["processes_leaked"] == 0
        # Internal consistency: record-derived makespan happened inside the
        # wall bracket, and the clock actually advanced (real time, not ticks).
        assert 0 < result["makespan"] <= result["wall_elapsed"] * 1.05
        stats = duration_stats(result["durations"])
        assert stats["p99_ms"] >= stats["p50_ms"] > 0


def main() -> None:
    """CLI entry point: measure one concurrency level directly."""
    import argparse

    parser = argparse.ArgumentParser(description="Wall-clock concurrent moveInternal throughput")
    parser.add_argument("--concurrency", type=int, default=8, help="simultaneous moves")
    parser.add_argument("--chunks", type=int, default=CHUNKS_PER_PAIR, help="per-pair chunk count")
    parser.add_argument("--shards", type=int, default=SHARDS, help="controller shards")
    args = parser.parse_args()
    result = run_concurrent_moves(args.concurrency, chunks=args.chunks, shards=args.shards)
    _print([result])
    _persist([result])


if __name__ == "__main__":
    main()
