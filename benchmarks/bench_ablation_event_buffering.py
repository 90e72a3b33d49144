"""Ablation: buffering re-process events until the destination ACKs the put.

The controller buffers a re-process event until the destination has installed
(ACKed) the per-flow state the event applies to; only then is the packet
replayed (paper Figure 5).  This ablation disables the buffering — events are
forwarded as soon as they arrive — and measures the consequence: replayed
updates race the chunks that carry the state snapshot, the snapshot overwrites
them, and per-flow counters at the destination under-count.
"""

from __future__ import annotations

from repro.analysis import format_table, print_block
from repro.core import ControllerConfig, FlowPattern, MBController, NorthboundAPI
from repro.middleboxes import PassiveMonitor
from repro.net import Simulator
from repro.traffic import TraceReplayer, constant_rate_trace

FLOWS = 300
LIVE_RATE = 3000.0


def run_move_with_live_traffic(buffer_events: bool) -> dict:
    sim = Simulator()
    config = ControllerConfig(quiescence_timeout=0.3, buffer_events=buffer_events)
    controller = MBController(sim, config)
    northbound = NorthboundAPI(controller)
    src = PassiveMonitor(sim, "mon-src")
    dst = PassiveMonitor(sim, "mon-dst")
    controller.register(src)
    controller.register(dst)

    warm = constant_rate_trace(rate=4000.0, duration=FLOWS / 4000.0, flows=FLOWS, seed=140)
    TraceReplayer.into_node(sim, warm, src).schedule()
    sim.run(until=FLOWS / 4000.0 + 0.3)
    packets_before = sum(record.packets for _, record in src.report_store.items())

    handle = northbound.move_internal("mon-src", "mon-dst", FlowPattern.wildcard())
    live = constant_rate_trace(rate=LIVE_RATE, duration=0.3, flows=FLOWS, seed=141)
    TraceReplayer.into_node(sim, live, src, start_at=sim.now).schedule()
    record = sim.run_until(handle.finalized, limit=200)
    sim.run(until=sim.now + 0.5)

    live_packets = int(LIVE_RATE * 0.3)
    packets_at_dst = sum(flow_record.packets for _, flow_record in dst.report_store.items())
    expected = packets_before + live_packets
    return {
        "buffering": buffer_events,
        "expected_packets": expected,
        "accounted_packets": packets_at_dst,
        "lost_updates": expected - packets_at_dst,
        "events_buffered": record.events_buffered,
        "events_forwarded": record.events_forwarded,
    }


def test_ablation_event_buffering(once):
    def run_both():
        return run_move_with_live_traffic(True), run_move_with_live_traffic(False)

    with_buffering, without_buffering = once(run_both)

    rows = [
        (
            "buffered until put ACK (OpenMB)",
            with_buffering["expected_packets"],
            with_buffering["accounted_packets"],
            with_buffering["lost_updates"],
            with_buffering["events_buffered"],
        ),
        (
            "forwarded immediately (ablation)",
            without_buffering["expected_packets"],
            without_buffering["accounted_packets"],
            without_buffering["lost_updates"],
            without_buffering["events_buffered"],
        ),
    ]
    print_block(
        format_table(
            "Ablation — event buffering at the controller",
            ["policy", "expected per-flow packet count", "accounted at destination", "lost updates", "events buffered"],
            rows,
        )
    )

    # With buffering, no per-flow counter updates are lost; without it, some are.
    assert with_buffering["lost_updates"] == 0, "Fig. 5: with event buffering no update is lost"
    assert without_buffering["lost_updates"] > 0, "Fig. 5: without event buffering updates are lost"
    assert with_buffering["events_buffered"] > 0, "Fig. 5: events are buffered until the put is ACKed"
    assert without_buffering["events_buffered"] == 0, "Fig. 5: the ablation buffers nothing"
