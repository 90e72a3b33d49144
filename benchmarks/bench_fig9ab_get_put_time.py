"""Figures 9(a) and 9(b): get and put processing time vs number of state chunks.

Regenerates the per-operation timing series: the (simulated) time to complete a
single getSupportPerflow / getReportPerflow at the source middlebox, and the
collective time for the corresponding puts at the destination, for 250, 500,
and 1000 chunks of per-flow state, for both the monitor (shallow per-flow
state) and the IDS (deep per-flow state).  The expected shapes: linear growth
with the chunk count, puts roughly 6x cheaper than gets, and higher absolute
costs for the IDS.
"""

from __future__ import annotations

from repro.analysis import format_table, print_block
from repro.core import ControllerConfig, FlowPattern, MBController
from repro.core.messages import MessageType
from repro.core import messages
from repro.core.state import StateRole
from repro.middleboxes import IDS, PassiveMonitor
from repro.net import Simulator
from repro.traffic import TraceReplayer, constant_rate_trace

CHUNK_COUNTS = (250, 500, 1000)


def _populated(mb_factory, label, flows):
    sim = Simulator()
    controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
    src = mb_factory(sim, f"{label}-src")
    dst = mb_factory(sim, f"{label}-dst")
    controller.register(src)
    controller.register(dst)
    trace = constant_rate_trace(rate=4000.0, duration=flows / 4000.0, flows=flows, seed=120)
    TraceReplayer.into_node(sim, trace, src).schedule()
    sim.run(until=flows / 4000.0 + 0.5)
    return sim, controller, src, dst


def measure_get_put(mb_factory, label, role, flows):
    """Return (get seconds, put seconds) of simulated time for *flows* chunks."""
    sim, controller, src, dst = _populated(mb_factory, label, flows)
    chunks = []
    done = sim.event("get-done")
    started_at = sim.now

    def on_get_reply(message):
        if message.type == MessageType.STATE_CHUNK:
            chunks.append(messages.decode_chunk(message.body["chunk"]))
        elif message.type == MessageType.GET_COMPLETE:
            done.succeed(sim.now - started_at)
        else:  # a STATE_CHUNK_BATCH (a get with a batch cap) would time a different stream than Fig. 9's
            raise AssertionError(f"unexpected {message.type} reply to a one-chunk-per-message get")

    controller.send(src.name, messages.get_perflow(src.name, role, FlowPattern.wildcard()), on_reply=on_get_reply)
    get_time = sim.run_until(done, limit=200)

    puts_done = sim.event("puts-done")
    outstanding = {"count": len(chunks)}
    put_started_at = sim.now

    def on_put_reply(message):
        if message.type == MessageType.ACK:
            outstanding["count"] -= 1
            if outstanding["count"] == 0:
                puts_done.succeed(sim.now - put_started_at)

    for chunk in chunks:
        controller.send(dst.name, messages.put_perflow(dst.name, chunk), on_reply=on_put_reply)
    put_time = sim.run_until(puts_done, limit=200)
    return get_time, put_time, len(chunks)


def test_fig9ab_get_and_put_time(once):
    def run_all():
        results = {}
        for label, factory, role in (
            ("monitor", lambda sim, name: PassiveMonitor(sim, name), StateRole.REPORTING),
            ("ids", lambda sim, name: IDS(sim, name), StateRole.SUPPORTING),
        ):
            for flows in CHUNK_COUNTS:
                results[(label, flows)] = measure_get_put(factory, label, role, flows)
        return results

    results = once(run_all)

    rows = []
    for (label, flows), (get_time, put_time, count) in sorted(results.items()):
        rows.append(
            (
                label,
                flows,
                count,
                round(get_time * 1000, 1),
                round(put_time * 1000, 1),
                round(get_time / put_time, 1) if put_time else float("inf"),
            )
        )
    print_block(
        format_table(
            "Figures 9(a)/9(b) — get and put time vs number of per-flow state chunks",
            ["middlebox", "flows", "chunks", "get time (ms)", "puts time (ms)", "get/put ratio"],
            rows,
        )
    )

    for label in ("monitor", "ids"):
        gets = [results[(label, flows)][0] for flows in CHUNK_COUNTS]
        puts = [results[(label, flows)][1] for flows in CHUNK_COUNTS]
        # Linear growth: time increases with the chunk count and roughly doubles
        # when the chunk count doubles (within 40% tolerance).
        assert gets[0] < gets[1] < gets[2], "Fig. 9(a): get time grows with the chunk count"
        assert puts[0] < puts[1] < puts[2], "Fig. 9(b): put time grows with the chunk count"
        assert 1.3 < gets[2] / gets[1] < 2.7, "Fig. 9(a): get time roughly doubles with the chunk count"
        # Puts are several times cheaper than gets (the paper observes ~6x).
        assert gets[2] / puts[2] > 3.0, "Fig. 9(a)/(b): a get costs > 3× a put (paper: ≈ 6×)"
    # The IDS's deeper per-flow state makes its gets slower than the monitor's.
    assert results[("ids", 1000)][0] > results[("monitor", 1000)][0], "Fig. 9(a): the IDS's gets are slower than the monitor's"
