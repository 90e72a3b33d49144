"""Wall-clock get/put control-plane latency on the realtime runtime.

The simulated twin is ``bench_fig9ab_get_put_time``; here each southbound
round trip is bracketed with ``time.monotonic()``: issue one
``getPerflow`` (wildcard, supporting state) against a populated dummy
middlebox and time until ``GET_COMPLETE`` arrives back at the controller,
then put one chunk to the destination and time until its ``ACK``.  Repeating
the round trip many times yields real p50/p99 control-plane latency — the
first honest latency numbers in the repo's perf trail, persisted as
``BENCH_wallclock_latency.json``.

The same program also runs on the :class:`~repro.net.simulator.Simulator`,
which gives the *modelled* round trip (channel latency plus per-message CPU
cost, no host time at all).  ``ratio_to_model`` — realtime p50 over modelled
p50, both from this machine and this run — is the pacing-fidelity figure: what
is left above 1.0 is host CPU plus whatever the drive loop's waiting adds, and
the test bounds it at :data:`MAX_RATIO_TO_MODEL`.

Runnable directly::

    PYTHONPATH=src python benchmarks/bench_wallclock_latency.py --iterations 100
"""

from __future__ import annotations

import time

from repro.analysis import format_table, print_block
from repro.core import ControllerConfig, FlowPattern, MBController, messages
from repro.core.messages import MessageType
from repro.core.state import StateRole
from repro.middleboxes import DummyMiddlebox
from repro.runtime import RuntimeConfig

try:
    from benchmarks._results import duration_stats, write_results
except ModuleNotFoundError:  # invoked as a script: benchmarks/ is sys.path[0]
    from _results import duration_stats, write_results

#: Round trips per series — enough samples for a meaningful p99.
ITERATIONS = 100
#: Chunks held by the source (each get streams all of them back).
CHUNKS = 10
#: Ceiling on realtime p50 / modelled p50.  A same-machine ratio, not an
#: absolute speed — but a loaded box stretches any sleep, so this stays out of
#: tier-1 (the two-kernel runtime before PR 17 read 2.8–3.1 get, 6.1–6.4 put).
MAX_RATIO_TO_MODEL = 2.5


def _round_trips(runtime, clock, iterations: int, chunks: int) -> dict:
    """Run *iterations* get and put round trips on *runtime*, timed by *clock*."""
    controller = MBController(runtime, ControllerConfig(quiescence_timeout=0.01))
    src = DummyMiddlebox(runtime, "latency-src", chunk_count=chunks)
    dst = DummyMiddlebox(runtime, "latency-dst")
    controller.register(src)
    controller.register(dst)
    get_latencies, put_latencies = [], []
    for index in range(iterations):
        received = []
        done = runtime.event(f"get-{index}")

        def on_get_reply(message, received=received, done=done):
            if message.type == MessageType.STATE_CHUNK:
                received.append(messages.decode_chunk(message.body["chunk"]))
            elif message.type == MessageType.GET_COMPLETE:
                done.succeed(None)

        started = clock()
        controller.send(
            src.name,
            messages.get_perflow(src.name, StateRole.SUPPORTING, FlowPattern.wildcard()),
            on_reply=on_get_reply,
        )
        runtime.run_until(done, limit=runtime.now + 10.0)
        get_latencies.append(clock() - started)
        assert len(received) == chunks

        acked = runtime.event(f"put-{index}")

        def on_put_reply(message, acked=acked):
            if message.type == MessageType.ACK:
                acked.succeed(None)

        started = clock()
        controller.send(dst.name, messages.put_perflow(dst.name, received[0]), on_reply=on_put_reply)
        runtime.run_until(acked, limit=runtime.now + 10.0)
        put_latencies.append(clock() - started)
    return {"get": get_latencies, "put": put_latencies}


def run_get_put_latency(iterations: int = ITERATIONS, *, chunks: int = CHUNKS) -> dict:
    """Measure *iterations* wall-clock get and put round trips; returns both
    series, the modelled series (``model``) and the runtime's close report."""
    simulator = RuntimeConfig(mode="simulated").create()
    model = _round_trips(simulator, lambda: simulator.now, iterations, chunks)
    runtime = RuntimeConfig(mode="realtime").create()
    try:
        result = _round_trips(runtime, time.monotonic, iterations, chunks)
    finally:
        close = runtime.close()
    result["model"] = model
    result["close"] = close
    return result


def summarize(result: dict) -> dict:
    """Per-op wall-clock stats beside the modelled median and their ratio."""
    summary = {}
    for op in ("get", "put"):
        stats = duration_stats(result[op])
        stats["model_p50_ms"] = duration_stats(result["model"][op])["p50_ms"]
        stats["ratio_to_model"] = round(stats["p50_ms"] / stats["model_p50_ms"], 3)
        summary[op] = stats
    return summary


def _persist(result: dict) -> None:
    write_results(
        "wallclock_latency",
        {"workload": {"iterations": len(result["get"]), "chunks_per_get": CHUNKS}, **summarize(result)},
    )


def _print(result: dict) -> None:
    print_block(
        format_table(
            f"Wall-clock southbound round trips — {CHUNKS} chunks/get, {len(result['get'])} iterations",
            ["op", "ops/sec", "p50 (ms)", "p99 (ms)", "mean (ms)", "model p50 (ms)", "p50 / model"],
            [
                (op, s["ops_per_sec"], s["p50_ms"], s["p99_ms"], s["mean_ms"], s["model_p50_ms"], s["ratio_to_model"])
                for op, s in summarize(result).items()
            ],
        )
    )


def test_wallclock_get_put_latency(once):
    result = once(run_get_put_latency)
    _print(result)
    _persist(result)

    assert result["close"]["processes_leaked"] == 0
    summary = summarize(result)
    for op, stats in summary.items():
        # Real latencies: strictly positive, ordered percentiles, sane rate.
        assert stats["count"] == ITERATIONS
        assert 0 < stats["p50_ms"] <= stats["p99_ms"]
        assert stats["ops_per_sec"] > 0
        # Pacing fidelity: the wall clock cannot beat the model, and the drive
        # loop's waiting may not multiply it.
        assert 1.0 <= stats["ratio_to_model"] <= MAX_RATIO_TO_MODEL, (op, stats)
    # A wildcard get streams every chunk back plus completion, so it cannot be
    # cheaper than a single-chunk put at the median.
    assert summary["get"]["p50_ms"] >= summary["put"]["p50_ms"] * 0.5


def main() -> None:
    """CLI entry point: measure the round-trip series directly."""
    import argparse

    parser = argparse.ArgumentParser(description="Wall-clock get/put control-plane latency")
    parser.add_argument("--iterations", type=int, default=ITERATIONS)
    parser.add_argument("--chunks", type=int, default=CHUNKS)
    args = parser.parse_args()
    result = run_get_put_latency(args.iterations, chunks=args.chunks)
    _print(result)
    _persist(result)


if __name__ == "__main__":
    main()
