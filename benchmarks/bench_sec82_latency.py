"""Section 8.2 (performance): per-packet latency during normal operation vs during a get.

Regenerates the per-packet processing-latency comparison: the mean per-packet
processing time of a middlebox during normal operation and while it is
servicing a getSupportPerflow call, for the monitor and the IDS.  The paper
reports at most a ~2 % increase (e.g. Bro: 6.93 ms normal vs 7.06 ms during a
get); the simulated middleboxes apply the same bounded slowdown only while API
calls are outstanding.
"""

from __future__ import annotations

from repro.analysis import format_table, print_block
from repro.core import ControllerConfig, FlowPattern, MBController, NorthboundAPI
from repro.middleboxes import IDS, PassiveMonitor
from repro.net import Simulator
from repro.traffic import TraceReplayer, constant_rate_trace


def measure_latency(mb_factory, label):
    """Mean per-packet processing latency in normal operation and during a get."""
    sim = Simulator()
    controller = MBController(sim, ControllerConfig(quiescence_timeout=0.3))
    northbound = NorthboundAPI(controller)
    src = mb_factory(sim, f"{label}-src")
    dst = mb_factory(sim, f"{label}-dst")
    controller.register(src)
    controller.register(dst)

    # Normal operation: steady traffic, no API activity.
    warm = constant_rate_trace(rate=1000.0, duration=0.5, flows=400, seed=110)
    TraceReplayer.into_node(sim, warm, src).schedule()
    sim.run(until=0.6)
    normal_packets = src.counters.packets_received
    normal_time = src.counters.processing_time_total
    normal_latency = normal_time / normal_packets

    # During a get: keep the same packet rate flowing while per-flow state is exported.
    handle = northbound.move_internal(src.name, dst.name, FlowPattern.wildcard())
    busy = constant_rate_trace(rate=1000.0, duration=0.5, flows=400, seed=111)
    TraceReplayer.into_node(sim, busy, src, start_at=sim.now).schedule()
    sim.run_until(handle.completed, limit=100)
    sim.run(until=sim.now + 0.6)
    during_packets = src.counters.packets_received - normal_packets
    during_time = src.counters.processing_time_total - normal_time
    during_latency = during_time / during_packets
    return normal_latency, during_latency


def test_sec82_packet_latency(once):
    def run_both():
        return (
            measure_latency(lambda sim, name: PassiveMonitor(sim, name), "monitor"),
            measure_latency(lambda sim, name: IDS(sim, name), "ids"),
        )

    (mon_normal, mon_during), (ids_normal, ids_during) = once(run_both)

    rows = [
        ("monitor (PRADS-like)", round(mon_normal * 1e6, 2), round(mon_during * 1e6, 2), round(100 * (mon_during / mon_normal - 1), 2)),
        ("IDS (Bro-like)", round(ids_normal * 1e6, 2), round(ids_during * 1e6, 2), round(100 * (ids_during / ids_normal - 1), 2)),
    ]
    print_block(
        format_table(
            "Section 8.2 — per-packet processing latency, normal vs during a get",
            ["middlebox", "normal (us)", "during get (us)", "increase (%)"],
            rows,
        )
    )

    # The increase exists but stays within a few percent (the paper reports ~2%).
    for normal, during in ((mon_normal, mon_during), (ids_normal, ids_during)):
        assert during >= normal, "§8.2: a get adds per-packet latency"
        assert during <= normal * 1.05, "§8.2: a get adds ≤ 5 % per-packet latency (paper: ≈ 2 %)"
