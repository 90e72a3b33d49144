"""Section 8.2 (correctness): unmodified vs OpenMB-enabled middlebox outputs.

Regenerates the three correctness comparisons of section 8.2:

* IDS: conn.log / http.log of a single unmodified instance versus the combined
  logs of two OpenMB-enabled instances subjected to a live migration;
* monitor: aggregate statistics of a single instance versus the collective
  statistics of a scaled deployment;
* RE: every packet of a high-redundancy trace is correctly reconstructed after
  the decoder migration.
"""

from __future__ import annotations

from repro.analysis import compare_ids_outputs, compare_monitor_statistics, format_table, print_block
from repro.apps import PerFlowMigrationApp, REMigrationApp, ScaleUpApp, build_re_migration_scenario, build_two_instance_scenario
from repro.core import FlowPattern
from repro.middleboxes import IDS, PassiveMonitor
from repro.net import Simulator
from repro.traffic import enterprise_cloud_trace, redundancy_trace


def run_ids_comparison():
    trace = enterprise_cloud_trace(http_flows=25, other_flows=10, duration=15.0, seed=100, leave_open_fraction=0.3)
    scenario = build_two_instance_scenario(mb_factory=lambda sim, name: IDS(sim, name), mb_names=("ids-a", "ids-b"))
    scenario.inject(trace, speedup=40.0)
    scenario.sim.run(until=0.3)
    app = PerFlowMigrationApp(
        scenario.sim,
        scenario.northbound,
        old_mb="ids-a",
        new_mb="ids-b",
        pattern=FlowPattern(tp_dst=80),
        update_routing=lambda p: scenario.route_via(scenario.mb2, p),
        wait_for_finalize=True,
    )
    scenario.sim.run_until(app.start(), limit=300)
    scenario.sim.run(until=scenario.sim.now + 3.0)
    scenario.mb1.finalize()
    scenario.mb2.finalize()
    reference = IDS(Simulator(), "reference")
    for record in trace:
        reference.process_packet(record.to_packet())
    reference.finalize()
    return reference, scenario


def run_monitor_comparison():
    trace = enterprise_cloud_trace(http_flows=30, other_flows=10, duration=15.0, seed=101)
    scenario = build_two_instance_scenario(
        mb_factory=lambda sim, name: PassiveMonitor(sim, name), mb_names=("mon-a", "mon-b")
    )
    scenario.inject(trace, speedup=40.0)
    scenario.sim.run(until=0.3)
    app = ScaleUpApp(
        scenario.sim,
        scenario.northbound,
        existing_mb="mon-a",
        new_mb="mon-b",
        patterns=[FlowPattern(nw_src="10.1.1.0/25")],
        update_routing=lambda p: scenario.route_via(scenario.mb2, p),
    )
    scenario.sim.run_until(app.start(), limit=200)
    scenario.sim.run(until=scenario.sim.now + 3.0)
    reference = PassiveMonitor(Simulator(), "reference")
    for record in trace:
        reference.process_packet(record.to_packet())
    return reference, scenario


def run_re_comparison():
    scenario = build_re_migration_scenario(cache_capacity=128 * 1024)
    warm_a = redundancy_trace(packets=120, payload_bytes=512, redundancy=0.7, server_subnet="1.1.1", seed=102)
    warm_b = redundancy_trace(packets=120, payload_bytes=512, redundancy=0.7, server_subnet="1.1.2", seed=103)
    scenario.inject(warm_a.merged_with(warm_b))
    scenario.sim.run(until=scenario.sim.now + 0.6)
    app = REMigrationApp(
        scenario.sim,
        scenario.northbound,
        encoder=scenario.encoder.name,
        orig_decoder=scenario.decoder_a.name,
        new_decoder=scenario.decoder_b.name,
        update_routing=scenario.reroute_dc_b,
    )
    scenario.sim.run_until(app.start(), limit=100)
    post_a = redundancy_trace(packets=100, payload_bytes=512, redundancy=0.7, server_subnet="1.1.1", seed=102)
    post_b = redundancy_trace(packets=100, payload_bytes=512, redundancy=0.7, server_subnet="1.1.2", seed=103)
    scenario.inject(post_a.merged_with(post_b), start_at=scenario.sim.now + 0.05)
    scenario.sim.run(until=scenario.sim.now + 2.5)
    return scenario


def test_sec82_correctness(once):
    def run_all():
        return run_ids_comparison(), run_monitor_comparison(), run_re_comparison()

    (ids_ref, ids_scenario), (mon_ref, mon_scenario), re_scenario = once(run_all)

    ids_cmp = compare_ids_outputs(ids_ref, [ids_scenario.mb1, ids_scenario.mb2])
    monitor_mismatches = compare_monitor_statistics(mon_ref, [mon_scenario.mb1, mon_scenario.mb2])
    undecodable = re_scenario.decoder_a.undecodable_bytes + re_scenario.decoder_b.undecodable_bytes

    rows = [
        ("IDS conn.log entries", len(ids_ref.conn_log), ids_cmp["conn_log"].matching, ids_cmp["conn_log"].differences),
        ("IDS http.log entries", len(ids_ref.http_log), ids_cmp["http_log"].matching, ids_cmp["http_log"].differences),
        ("Monitor statistic fields", 7, 7 - len(monitor_mismatches), len(monitor_mismatches)),
        (
            "RE packets decoded",
            re_scenario.decoder_a.decoded_packets + re_scenario.decoder_b.decoded_packets,
            re_scenario.decoder_a.decoded_packets + re_scenario.decoder_b.decoded_packets,
            re_scenario.decoder_a.undecodable_packets + re_scenario.decoder_b.undecodable_packets,
        ),
    ]
    print_block(
        format_table(
            "Section 8.2 — output of unmodified vs OpenMB-enabled middleboxes",
            ["comparison", "reference count", "matching", "differences"],
            rows,
        )
    )

    assert ids_cmp["conn_log"].identical, "§8.2: the IDS conn.log is identical under migration"
    assert ids_cmp["http_log"].identical, "§8.2: the IDS http.log is identical under migration"
    assert monitor_mismatches == {}, "§8.2: the monitor's flow records are identical under migration"
    assert undecodable == 0, "§8.2: the RE decoder decodes every byte under migration"
