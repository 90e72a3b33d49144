"""Integration tests for the control applications and scenario builders."""


from repro.apps import (
    FailureRecoveryApp,
    PerFlowMigrationApp,
    REMigrationApp,
    RebalanceApp,
    ScaleDownApp,
    ScaleUpApp,
    build_re_migration_scenario,
    build_two_instance_scenario,
)
from repro.core import FlowPattern
from repro.middleboxes import IDS, NAT, PassiveMonitor, combined_statistics
from repro.net import Simulator, tcp_packet
from repro.traffic import enterprise_cloud_trace, redundancy_trace


def monitor_scenario(**kwargs):
    return build_two_instance_scenario(
        mb_factory=lambda sim, name: PassiveMonitor(sim, name), mb_names=("mon1", "mon2"), **kwargs
    )


class TestScenarioBuilders:
    def test_two_instance_default_route_goes_through_mb1(self):
        scenario = monitor_scenario()
        trace = enterprise_cloud_trace(http_flows=5, other_flows=0, duration=5.0, seed=1)
        scenario.inject(trace, speedup=50.0)
        scenario.sim.run(until=0.5)
        assert scenario.mb1.counters.packets_received > 0
        assert scenario.mb2.counters.packets_received == 0
        assert len(scenario.server_gw.received) > 0

    def test_route_via_switches_traffic_to_mb2(self):
        scenario = monitor_scenario()
        future = scenario.route_via(scenario.mb2, FlowPattern(nw_dst="172.16.0.0/16"))
        scenario.sim.run_until(future)
        trace = enterprise_cloud_trace(http_flows=5, other_flows=0, duration=5.0, seed=2)
        scenario.inject(trace, speedup=50.0, start_at=scenario.sim.now)
        scenario.sim.run(until=scenario.sim.now + 0.5)
        assert scenario.mb2.counters.packets_received > 0

    def test_re_scenario_traffic_reaches_dc_a(self):
        scenario = build_re_migration_scenario(cache_capacity=32 * 1024)
        trace = redundancy_trace(packets=50, payload_bytes=256, server_subnet="1.1.1", seed=3)
        scenario.inject(trace, start_at=0.05)
        scenario.sim.run(until=1.0)
        assert scenario.encoder.counters.packets_received == 50
        assert scenario.decoder_a.counters.packets_received == 50
        assert len(scenario.dc_a_host.received) == 50
        assert scenario.decoder_b.counters.packets_received == 0

    def test_re_scenario_reroute_dc_b(self):
        scenario = build_re_migration_scenario(cache_capacity=32 * 1024)
        future = scenario.reroute_dc_b()
        scenario.sim.run_until(future)
        trace = redundancy_trace(packets=20, payload_bytes=256, server_subnet="1.1.2", seed=4)
        scenario.inject(trace, start_at=scenario.sim.now + 0.01)
        scenario.sim.run(until=scenario.sim.now + 1.0)
        assert scenario.decoder_b.counters.packets_received == 20
        assert len(scenario.dc_b_host.received) == 20


class TestScaleUpApp:
    def test_scale_up_moves_state_and_reroutes(self):
        scenario = monitor_scenario()
        trace = enterprise_cloud_trace(
            http_flows=30, other_flows=5, duration=20.0, seed=5, leave_open_fraction=0.5
        )
        scenario.inject(trace, speedup=40.0)
        scenario.sim.run(until=0.3)
        pattern = FlowPattern(nw_src="10.1.1.0/25")
        app = ScaleUpApp(
            scenario.sim,
            scenario.northbound,
            existing_mb="mon1",
            new_mb="mon2",
            patterns=[pattern],
            update_routing=lambda p: scenario.route_via(scenario.mb2, p),
        )
        report = scenario.sim.run_until(app.start(), limit=100)
        assert report.details["chunks_moved"] > 0
        assert scenario.mb2.config.get_scalar("Monitor.PromiscuousMode") is not None
        scenario.sim.run(until=scenario.sim.now + 1.0)
        # After the re-route, mb2 receives the moved subnet's traffic.
        assert len(scenario.mb2.report_store) >= report.details["chunks_moved"]

    def test_scale_up_preserves_total_packet_accounting(self):
        scenario = monitor_scenario()
        trace = enterprise_cloud_trace(http_flows=20, other_flows=5, duration=20.0, seed=6)
        replayer = scenario.inject(trace, speedup=20.0)
        scenario.sim.run(until=0.3)
        app = ScaleUpApp(
            scenario.sim,
            scenario.northbound,
            existing_mb="mon1",
            new_mb="mon2",
            patterns=[FlowPattern(nw_src="10.1.1.0/24")],
            update_routing=lambda p: scenario.route_via(scenario.mb2, p),
        )
        scenario.sim.run_until(app.start(), limit=100)
        scenario.sim.run(until=scenario.sim.now + 3.0)
        combined = combined_statistics([scenario.mb1, scenario.mb2])
        assert combined["total_packets"] == replayer.stats.injected


class TestScaleDownApp:
    def test_scale_down_consolidates_and_merges(self):
        scenario = monitor_scenario()
        # Split traffic between the two instances first.
        pattern_b = FlowPattern(nw_src="10.1.2.0/24")
        scenario.sim.run_until(scenario.route_via(scenario.mb2, pattern_b))
        trace_a = enterprise_cloud_trace(http_flows=10, other_flows=0, duration=10.0, seed=7, client_subnet="10.1.1")
        trace_b = enterprise_cloud_trace(http_flows=8, other_flows=0, duration=10.0, seed=8, client_subnet="10.1.2")
        scenario.inject(trace_a.merged_with(trace_b), speedup=40.0, start_at=scenario.sim.now)
        scenario.sim.run(until=scenario.sim.now + 0.5)
        packets_b = scenario.mb2.shared_report.value.total_packets
        assert packets_b > 0
        terminated = []
        app = ScaleDownApp(
            scenario.sim,
            scenario.northbound,
            spare_mb="mon2",
            remaining_mb="mon1",
            update_routing=lambda p: scenario.route_via(scenario.mb1, FlowPattern(nw_dst="172.16.0.0/16")),
            terminate=lambda: terminated.append("mon2"),
            wait_for_finalize=True,
        )
        report = scenario.sim.run_until(app.start(), limit=200)
        assert terminated == ["mon2"]
        assert report.details["merge"].chunks_transferred >= 1
        # The remaining instance now accounts for all packets either instance saw.
        assert scenario.mb1.shared_report.value.total_packets >= packets_b
        assert len(scenario.mb2.report_store) == 0  # per-flow state moved away and deleted


class TestRebalanceApp:
    def test_rebalance_moves_from_busiest_to_idlest(self):
        scenario = monitor_scenario()
        trace = enterprise_cloud_trace(http_flows=20, other_flows=0, duration=10.0, seed=9)
        scenario.inject(trace, speedup=40.0)
        scenario.sim.run(until=0.4)
        app = RebalanceApp(
            scenario.sim,
            scenario.northbound,
            replicas=["mon1", "mon2"],
            patterns_by_replica={"mon1": FlowPattern(nw_src="10.1.1.0/26"), "mon2": FlowPattern(nw_src="10.1.1.64/26")},
            update_routing=lambda mb, p: scenario.route_via(mb, p),
        )
        report = scenario.sim.run_until(app.start(), limit=100)
        assert report.details["moved_from"] == "mon1"
        assert report.details["moved_to"] == "mon2"
        assert report.details["chunks_moved"] > 0

    def test_rebalance_noop_when_balanced(self):
        scenario = monitor_scenario()
        app = RebalanceApp(
            scenario.sim,
            scenario.northbound,
            replicas=["mon1", "mon2"],
            patterns_by_replica={},
            update_routing=lambda mb, p: scenario.route_via(mb, p),
        )
        report = scenario.sim.run_until(app.start(), limit=100)
        assert "moved_from" not in report.details


class TestPerFlowMigrationApp:
    def test_ids_migration_moves_connections(self):
        scenario = build_two_instance_scenario(
            mb_factory=lambda sim, name: IDS(sim, name), mb_names=("ids-old", "ids-new")
        )
        trace = enterprise_cloud_trace(http_flows=15, other_flows=5, duration=15.0, seed=10, leave_open_fraction=0.6)
        scenario.inject(trace, speedup=30.0)
        scenario.sim.run(until=0.4)
        connections_before = len(scenario.mb1.support_store)
        app = PerFlowMigrationApp(
            scenario.sim,
            scenario.northbound,
            old_mb="ids-old",
            new_mb="ids-new",
            pattern=FlowPattern(tp_dst=80),
            update_routing=lambda p: scenario.route_via(scenario.mb2, p),
            wait_for_finalize=True,
        )
        report = scenario.sim.run_until(app.start(), limit=200)
        assert 0 < report.details["chunks_moved"] <= connections_before
        assert len(scenario.mb2.support_store) >= report.details["chunks_moved"]
        # The moved connections were deleted (not anomalously closed) at the old instance.
        scenario.mb1.finalize()
        http_incomplete = [e for e in scenario.mb1.incorrect_entries() if e.resp_port == 80]
        assert http_incomplete == []


class TestREMigrationApp:
    def test_migration_keeps_all_traffic_decodable(self):
        scenario = build_re_migration_scenario(cache_capacity=64 * 1024)
        warm = redundancy_trace(packets=120, payload_bytes=512, redundancy=0.6, server_subnet="1.1.1", seed=11)
        warm_b = redundancy_trace(packets=120, payload_bytes=512, redundancy=0.6, server_subnet="1.1.2", seed=12)
        scenario.inject(warm.merged_with(warm_b), start_at=0.05)
        scenario.sim.run(until=0.7)
        app = REMigrationApp(
            scenario.sim,
            scenario.northbound,
            encoder="re-encoder",
            orig_decoder="re-decoder-a",
            new_decoder="re-decoder-b",
            update_routing=scenario.reroute_dc_b,
        )
        report = scenario.sim.run_until(app.start(), limit=100)
        assert report.details["clone_bytes"] > 0
        # Traffic resumes after the migration (the migrated VMs' switchover pause).
        post_a = redundancy_trace(packets=80, payload_bytes=512, redundancy=0.6, server_subnet="1.1.1", seed=11)
        post_b = redundancy_trace(packets=80, payload_bytes=512, redundancy=0.6, server_subnet="1.1.2", seed=12)
        scenario.inject(post_a.merged_with(post_b), start_at=scenario.sim.now + 0.05)
        scenario.sim.run(until=scenario.sim.now + 2.0)
        assert scenario.decoder_b.counters.packets_received > 0
        assert scenario.decoder_a.undecodable_bytes == 0
        assert scenario.decoder_b.undecodable_bytes == 0
        # The encoder now maintains one cache per decoder.
        assert len(scenario.encoder.shared_support.value.caches) == 2

    def test_migration_clones_decoder_configuration(self):
        scenario = build_re_migration_scenario(cache_capacity=32 * 1024)
        scenario.decoder_a.config.set("Decoder.Custom", ["tuned"])
        app = REMigrationApp(
            scenario.sim,
            scenario.northbound,
            encoder="re-encoder",
            orig_decoder="re-decoder-a",
            new_decoder="re-decoder-b",
            update_routing=scenario.reroute_dc_b,
        )
        scenario.sim.run_until(app.start(), limit=100)
        assert scenario.decoder_b.config.get_scalar("Decoder.Custom") == "tuned"


class TestFailureRecoveryApp:
    def test_critical_state_restored_into_replacement(self):
        sim = Simulator()
        from repro.core import ControllerConfig, MBController, NorthboundAPI

        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        nb = NorthboundAPI(controller)
        nat_old = NAT(sim, "nat-old")
        nat_new = NAT(sim, "nat-new")
        controller.register(nat_old)
        controller.register(nat_new)
        app = FailureRecoveryApp(sim, nb, protected_mb="nat-old")
        sim.run_until(app.arm())
        # Live traffic creates critical state (mappings) at the protected NAT.
        for index in range(5):
            packet = tcp_packet(f"10.0.0.{index + 1}", "8.8.8.8", 6000 + index, 443)
            nat_old.receive(packet, 1)
        sim.run(until=sim.now + 0.5)
        assert app.events_seen == 5
        # The NAT fails; recover onto the replacement.
        routing_calls = []

        def update_routing():
            routing_calls.append(True)
            return sim.timeout(0.001)

        report = sim.run_until(app.recover_to("nat-new", update_routing=update_routing), limit=100)
        assert report.details["mappings_restored"] == 5
        assert routing_calls == [True]
        # Flows resumed through the replacement keep their external ports.
        original_mapping = next(m for _, m in nat_old.support_store.items() if m.internal_ip == "10.0.0.1")
        result = nat_new.process_packet(tcp_packet("10.0.0.1", "8.8.8.8", 6000, 443))
        assert result.packet.tp_src == original_mapping.external_port
