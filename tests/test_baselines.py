"""Tests for the baseline systems (VM snapshot, config+routing, Split/Merge)."""

import pytest

from repro.apps import build_re_migration_scenario, build_two_instance_scenario
from repro.baselines import (
    APPLICABILITY_MATRIX,
    ConfigRoutingREMigration,
    SplitMergeMigration,
    clone_via_snapshot,
    expected_added_latency,
    expected_buffered_packets,
    scale_down_hold_up,
    snapshot_size,
)
from repro.core import FlowPattern
from repro.middleboxes import IDS, PassiveMonitor
from repro.net import Simulator
from repro.traffic import datacenter_flow_durations, enterprise_cloud_trace, redundancy_trace


class TestApplicabilityMatrix:
    def test_sdmbn_supports_all_scenarios(self):
        assert all(value == "yes" for value in APPLICABILITY_MATRIX["SDMBN (OpenMB)"].values())

    def test_every_baseline_fails_something(self):
        for name, capabilities in APPLICABILITY_MATRIX.items():
            if name == "SDMBN (OpenMB)":
                continue
            assert any(value != "yes" for value in capabilities.values()), name

    def test_snapshot_cannot_scale_down(self):
        assert APPLICABILITY_MATRIX["VM snapshot"]["scale-down"] == "no"

    def test_matrix_covers_all_three_scenarios(self):
        for capabilities in APPLICABILITY_MATRIX.values():
            assert set(capabilities) == {"scale-up", "scale-down", "migration"}


class TestVMSnapshot:
    def _populated_ids(self):
        sim = Simulator()
        ids = IDS(sim, "ids")
        trace = enterprise_cloud_trace(http_flows=15, other_flows=10, duration=10.0, seed=21)
        for record in trace:
            ids.process_packet(record.to_packet())
        return sim, ids

    def test_snapshot_size_grows_with_state(self):
        sim = Simulator()
        empty = IDS(sim, "empty")
        base = snapshot_size(empty)
        _, populated = self._populated_ids()
        assert snapshot_size(populated) > base

    def test_clone_via_snapshot_copies_everything(self):
        sim, ids = self._populated_ids()
        clone = IDS(sim, "clone")
        copied = clone_via_snapshot(ids, clone)
        assert copied == len(ids.support_store) + len(ids.report_store)
        assert len(clone.support_store) == len(ids.support_store)

    def test_clone_via_snapshot_is_deep(self):
        sim, ids = self._populated_ids()
        clone = IDS(sim, "clone")
        clone_via_snapshot(ids, clone)
        key, connection = next(iter(ids.support_store.items()))
        connection.orig_packets += 100
        assert clone.support_store.get(key).orig_packets != connection.orig_packets

    def test_clone_rejects_different_type(self):
        sim, ids = self._populated_ids()
        with pytest.raises(ValueError):
            clone_via_snapshot(ids, PassiveMonitor(sim, "mon"))

    def test_snapshot_migration_produces_incorrect_log_entries(self):
        """Both snapshot copies log anomalies for the flows the other copy now handles."""
        sim = Simulator()
        old = IDS(sim, "old")
        trace = enterprise_cloud_trace(http_flows=12, other_flows=8, duration=10.0, seed=22, leave_open_fraction=1.0)
        half = len(trace.records) // 2
        for record in trace.records[:half]:
            old.process_packet(record.to_packet())
        new = IDS(sim, "new")
        clone_via_snapshot(old, new)
        # After migration, HTTP flows go to the new instance and the rest stay.
        for record in trace.records[half:]:
            target = new if record.tp_dst == 80 or record.tp_src == 80 else old
            target.process_packet(record.to_packet())
        old.finalize()
        new.finalize()
        assert len(old.incorrect_entries()) > 0
        assert len(new.incorrect_entries()) > 0


class TestConfigRouting:
    def test_hold_up_dominated_by_longest_flow(self):
        durations = [10.0, 100.0, 2000.0]
        report = scale_down_hold_up(durations, decision_time=50.0)
        assert report.active_flows == 2
        assert report.held_up_seconds == pytest.approx(1950.0)

    def test_hold_up_fraction_over_1500s_matches_distribution(self):
        durations = datacenter_flow_durations(20000, seed=30)
        report = scale_down_hold_up(durations)
        assert 0.05 < report.fraction_over_1500s < 0.13
        assert report.held_up_seconds > 1500.0

    def test_re_migration_without_cloning_leaves_bytes_undecodable(self):
        scenario = build_re_migration_scenario(cache_capacity=64 * 1024)
        warm_a = redundancy_trace(packets=80, payload_bytes=512, redundancy=0.6, server_subnet="1.1.1", seed=32)
        warm_b = redundancy_trace(packets=80, payload_bytes=512, redundancy=0.6, server_subnet="1.1.2", seed=33)
        scenario.inject(warm_a.merged_with(warm_b), start_at=0.05)
        scenario.sim.run(until=0.5)

        post_b = redundancy_trace(
            packets=100, payload_bytes=512, redundancy=0.6, server_subnet="1.1.2", seed=33, interval=0.004
        )
        app = ConfigRoutingREMigration(
            scenario,
            routing_delay=0.04,  # ten 4 ms-spaced packets reach the old decoder first
            on_cache_switched=lambda: scenario.inject(post_b, start_at=scenario.sim.now),
        )
        scenario.sim.run_until(app.start(), limit=100)
        scenario.sim.run(until=scenario.sim.now + 2.0)
        # The encoded (redundant) bytes of the resumed DC-B traffic cannot be decoded anywhere.
        assert scenario.decoder_a.undecodable_bytes + scenario.decoder_b.undecodable_bytes > 0
        assert scenario.decoder_b.undecodable_packets > 0


class TestSplitMerge:
    def test_analytical_estimates(self):
        assert expected_buffered_packets(1000.0, 0.244) == 244
        assert expected_added_latency(1000.0, 0.8) == pytest.approx(0.4)
        assert expected_added_latency(0.0, 0.8) == 0.0

    def test_suspension_buffers_packets_and_adds_latency(self):
        scenario = build_two_instance_scenario(
            mb_factory=lambda sim, name: PassiveMonitor(sim, name), mb_names=("mon1", "mon2")
        )
        trace = enterprise_cloud_trace(http_flows=40, other_flows=0, duration=30.0, seed=34, leave_open_fraction=1.0)
        scenario.inject(trace, speedup=20.0)
        scenario.sim.run(until=0.3)
        app = SplitMergeMigration(scenario, pattern=FlowPattern(nw_dst="172.16.0.0/16"))
        report = scenario.sim.run_until(app.start(), limit=100)
        assert report.details["buffered_packets"] > 0
        assert report.details["mean_added_latency"] > 0
        # Buffered packets are eventually released and processed by the new instance.
        scenario.sim.run(until=scenario.sim.now + 1.0)
        assert scenario.mb2.counters.packets_received >= report.details["buffered_packets"]

    def test_openmb_move_adds_far_less_latency_than_split_merge(self):
        """The headline comparison: suspension adds orders of magnitude more latency."""
        from repro.apps.scaling import ScaleUpApp

        def added_latency(use_split_merge: bool) -> float:
            scenario = build_two_instance_scenario(
                mb_factory=lambda sim, name: PassiveMonitor(sim, name), mb_names=("mon1", "mon2")
            )
            trace = enterprise_cloud_trace(
                http_flows=40, other_flows=0, duration=30.0, seed=35, leave_open_fraction=1.0
            )
            scenario.inject(trace, speedup=20.0)
            scenario.sim.run(until=0.3)
            pattern = FlowPattern(nw_dst="172.16.0.0/16")
            if use_split_merge:
                app = SplitMergeMigration(scenario, pattern=pattern)
                report = scenario.sim.run_until(app.start(), limit=100)
                return report.details["mean_added_latency"]
            app = ScaleUpApp(
                scenario.sim,
                scenario.northbound,
                existing_mb="mon1",
                new_mb="mon2",
                patterns=[pattern],
                update_routing=lambda p: scenario.route_via(scenario.mb2, p),
            )
            scenario.sim.run_until(app.start(), limit=100)
            # OpenMB keeps processing packets during the move; the added latency is the
            # transfer slowdown on in-flight packets, bounded by the slowdown factor.
            costs = scenario.mb1.costs
            return costs.packet_processing * (costs.transfer_slowdown - 1.0)

        assert added_latency(True) > 100 * added_latency(False)
