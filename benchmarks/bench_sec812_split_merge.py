"""Section 8.1.2 (Split/Merge): the cost of suspending traffic during a move.

Regenerates the Split/Merge comparison: with roughly a thousand chunks of
per-flow state to move and packets arriving at ~1000 packets/second, how many
packets must be buffered while traffic is halted, and how much latency that
buffering adds — against OpenMB, which keeps processing packets during the move
and only slows them by the transfer-slowdown factor.
"""

from __future__ import annotations

from repro.analysis import format_mapping, format_table, print_block
from repro.apps import ScaleUpApp, build_two_instance_scenario
from repro.baselines import SplitMergeMigration, expected_added_latency, expected_buffered_packets
from repro.core import FlowPattern
from repro.middleboxes import PassiveMonitor
from repro.traffic import constant_rate_trace

PACKET_RATE = 1000.0
FLOWS = 1000


def _scenario():
    scenario = build_two_instance_scenario(
        mb_factory=lambda sim, name: PassiveMonitor(sim, name), mb_names=("mon-old", "mon-new")
    )
    # Pre-populate per-flow state: one packet per flow, then sustained traffic.
    warm = constant_rate_trace(rate=2000.0, duration=FLOWS / 2000.0, flows=FLOWS, client_subnet="10.1", server="172.16.1.10", seed=91)
    scenario.inject(warm)
    scenario.sim.run(until=scenario.sim.now + 1.0)
    live = constant_rate_trace(rate=PACKET_RATE, duration=2.0, flows=FLOWS, client_subnet="10.1", server="172.16.1.10", seed=92)
    scenario.inject(live, start_at=scenario.sim.now)
    return scenario


def run_split_merge():
    scenario = _scenario()
    app = SplitMergeMigration(scenario, pattern=FlowPattern(nw_dst="172.16.0.0/16"))
    report = scenario.sim.run_until(app.start(), limit=200)
    return scenario, report


def run_openmb_move():
    scenario = _scenario()
    app = ScaleUpApp(
        scenario.sim,
        scenario.northbound,
        existing_mb="mon-old",
        new_mb="mon-new",
        patterns=[FlowPattern(nw_dst="172.16.0.0/16")],
        update_routing=lambda p: scenario.route_via(scenario.mb2, p),
    )
    report = scenario.sim.run_until(app.start(), limit=200)
    return scenario, report


def test_sec812_split_merge(once):
    def run_both():
        return run_split_merge(), run_openmb_move()

    (sm_scenario, sm_report), (omb_scenario, omb_report) = once(run_both)

    move_duration = sm_report.details["move"].duration
    openmb_costs = omb_scenario.mb1.costs
    openmb_added = openmb_costs.packet_processing * (openmb_costs.transfer_slowdown - 1.0)
    rows = [
        (
            "Split/Merge (suspend traffic)",
            sm_report.details["move"].chunks_transferred,
            sm_report.details["buffered_packets"],
            round(sm_report.details["mean_added_latency"] * 1000, 2),
            round(sm_report.details["max_added_latency"] * 1000, 2),
        ),
        (
            "OpenMB (events, no suspension)",
            omb_report.details["chunks_moved"],
            0,
            round(openmb_added * 1000, 4),
            round(openmb_added * 1000, 4),
        ),
    ]
    print_block(
        format_table(
            "Section 8.1.2 — cost of halting traffic while state moves",
            ["scheme", "chunks moved", "packets buffered", "mean added latency (ms)", "max added latency (ms)"],
            rows,
        )
    )
    print_block(
        format_mapping(
            "Analytical expectation at 1000 pkt/s",
            {
                "move duration (s)": round(move_duration, 3),
                "expected buffered packets": expected_buffered_packets(PACKET_RATE, move_duration),
                "expected mean added latency (ms)": round(expected_added_latency(PACKET_RATE, move_duration) * 1000, 1),
            },
        )
    )

    # Shape: suspension buffers hundreds of packets and adds orders of magnitude
    # more latency than OpenMB's slowdown during gets.
    assert sm_report.details["buffered_packets"] > 50, "§8.1.2: Split/Merge buffers packets while suspended"
    assert sm_report.details["mean_added_latency"] > 0.01, "§8.1.2: suspension adds > 10 ms per packet"
    assert sm_report.details["mean_added_latency"] > 100 * openmb_added, "§8.1.2: Split/Merge adds 100× OpenMB's latency"
    # The analytical model agrees with the simulation to first order.
    assert abs(sm_report.details["buffered_packets"] - expected_buffered_packets(PACKET_RATE, move_duration)) <= max(
        0.5 * expected_buffered_packets(PACKET_RATE, move_duration), 20
    ), "§8.1.2: the buffered-packet model agrees with the simulation to first order"
