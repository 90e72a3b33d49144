"""Figure 7: middlebox actions during the scale-up scenario.

Regenerates the timeline of Figure 7: packet processing at the original and
new monitor instances, re-process events raised/consumed, and the get/put
windows of the moveInternal operation, over a window around the scale-up.
"""

from __future__ import annotations

from repro.analysis import ActivitySampler, format_table, operation_windows, print_block
from repro.apps import ScaleUpApp, build_two_instance_scenario
from repro.core import FlowPattern
from repro.middleboxes import PassiveMonitor
from repro.traffic import enterprise_cloud_trace


def run_scaleup_timeline():
    scenario = build_two_instance_scenario(
        mb_factory=lambda sim, name: PassiveMonitor(sim, name), mb_names=("prads-old", "prads-new")
    )
    sim = scenario.sim
    trace = enterprise_cloud_trace(http_flows=60, other_flows=15, duration=12.0, seed=70, leave_open_fraction=0.5)
    scenario.inject(trace, speedup=20.0)
    sampler = ActivitySampler(sim, [scenario.mb1, scenario.mb2], interval=0.05)
    sampler.start(duration=3.0)
    sim.run(until=0.5)
    app = ScaleUpApp(
        sim,
        scenario.northbound,
        existing_mb="prads-old",
        new_mb="prads-new",
        patterns=[FlowPattern(nw_src="10.1.1.0/24")],
        update_routing=lambda pattern: scenario.route_via(scenario.mb2, pattern),
    )
    sim.run_until(app.start(), limit=200)
    sim.run(until=3.0)
    return scenario, sampler, app


def test_fig7_scaleup_timeline(once):
    scenario, sampler, app = once(run_scaleup_timeline)

    windows = operation_windows(scenario.controller.stats.records + scenario.controller.active_operations())
    print_block(
        format_table(
            "Figure 7 — state operations during scale-up",
            ["operation", "src", "dst", "start (s)", "returned (s)", "chunks", "events fwd"],
            [
                (w.op_type, w.src, w.dst, round(w.started_at, 3), round(w.completed_at or -1, 3), w.chunks, w.events_forwarded)
                for w in windows
            ],
        )
    )
    for name, series in sampler.series.items():
        rows = [
            (round(t, 2), round(pkt_rate, 1), round(raise_rate, 1), round(consume_rate, 1))
            for t, pkt_rate, raise_rate, consume_rate in series.rates()
            if pkt_rate or raise_rate or consume_rate
        ]
        print_block(
            format_table(
                f"Figure 7 — activity at {name} (per 50 ms sample)",
                ["time (s)", "packets/s", "events raised/s", "events consumed/s"],
                rows[:30],
            )
        )

    # Shape checks mirroring the paper's observations:
    old, new = scenario.mb1, scenario.mb2
    move = windows[0]
    # 1. HTTP packets are processed by the original MB until (slightly after) the
    #    final put completes, then the new MB takes over.
    assert old.counters.packets_received > 0, "Fig. 7: the original monitor processes packets"
    assert new.counters.packets_received > 0, "Fig. 7: the new monitor takes over packet processing"
    new_before_move = [
        s.packets_received for s in sampler.series[new.name].samples if s.time < move.started_at
    ]
    assert new_before_move and new_before_move[-1] == 0, "Fig. 7: the new monitor sees nothing before the move"
    # 2. The original MB raises re-process events soon after the get begins and the
    #    new MB consumes them after the corresponding state has been put.
    assert old.counters.reprocess_events_raised > 0, "Fig. 7: the original monitor raises re-process events"
    assert new.counters.reprocessed_packets > 0, "Fig. 7: the new monitor re-processes them"
    assert new.counters.reprocessed_packets <= old.counters.reprocess_events_raised, (
        "Fig. 7: no more re-processed packets than events raised"
    )
