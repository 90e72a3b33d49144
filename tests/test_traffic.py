"""Unit tests for trace records, distributions, generators, and replay."""

import numpy as np
import pytest

from repro.middleboxes import PassiveMonitor
from repro.net import Simulator
from repro.net.packet import FIN, SYN
from repro.traffic import (
    FlowDurationModel,
    FlowSizeModel,
    FlowSpec,
    Trace,
    TraceRecord,
    TraceReplayer,
    constant_rate_trace,
    datacenter_flow_durations,
    datacenter_trace,
    enterprise_cloud_trace,
    fraction_exceeding,
    http_flow_records,
    redundancy_trace,
    replay_trace_through,
    scan_trace,
)


class TestTraceRecord:
    def test_to_packet_preserves_fields(self):
        record = TraceRecord(1.0, "10.0.0.1", "192.0.2.1", 1000, 80, payload=b"abc", flags=[SYN])
        packet = record.to_packet()
        assert packet.payload == b"abc"
        assert packet.has_flag(SYN)
        assert packet.flow_key() == record.flow_key()


class TestTrace:
    def _trace(self):
        records = [
            TraceRecord(2.0, "10.0.0.1", "192.0.2.1", 1000, 80, payload=b"b"),
            TraceRecord(1.0, "10.0.0.1", "192.0.2.1", 1000, 80, payload=b"a"),
            TraceRecord(3.0, "10.0.0.2", "192.0.2.1", 1001, 443, payload=b"c"),
        ]
        return Trace(records=records, metadata={"kind": "test"})

    def test_records_sorted_by_time(self):
        trace = self._trace()
        assert [record.time for record in trace] == [1.0, 2.0, 3.0]

    def test_duration_and_bytes(self):
        trace = self._trace()
        assert trace.duration == 2.0
        assert trace.total_bytes() == 3

    def test_flow_enumeration_is_bidirectional(self):
        trace = self._trace()
        assert trace.flow_count() == 2

    def test_merge_interleaves_by_time(self):
        trace = self._trace()
        later = Trace(records=[TraceRecord(1.5, "10.0.0.3", "192.0.2.1", 1002, 80, payload=b"d")])
        merged = trace.merged_with(later)
        assert [record.time for record in merged] == [1.0, 1.5, 2.0, 3.0]
        assert merged.metadata == {"kind": "test"}


class TestDistributions:
    def test_duration_model_tail_fraction(self):
        """Roughly 9% of flows should exceed 1500 s, as in the paper's Figure 8."""
        model = FlowDurationModel()
        fraction = model.fraction_exceeding(1500.0)
        assert 0.05 < fraction < 0.14

    def test_duration_samples_positive(self):
        samples = FlowDurationModel().sample(1000, np.random.default_rng(0))
        assert (samples > 0).all()

    def test_size_model_respects_minimum(self):
        sizes = FlowSizeModel(minimum_bytes=500).sample(500, np.random.default_rng(0))
        assert sizes.min() >= 500

    def test_fraction_exceeding(self):
        assert fraction_exceeding([1, 2, 3, 4], 2.5) == 0.5
        assert fraction_exceeding([], 1.0) == 0.0


class TestFlowExpansion:
    def test_http_flow_has_handshake_and_close(self):
        spec = FlowSpec("10.0.0.1", "192.0.2.1", 1000, 80, 0.0, 10.0, requests=[("/a", 100)])
        records = http_flow_records(spec)
        assert SYN in records[0].flags
        assert any(FIN in record.flags for record in records)
        assert records[-1].time <= spec.start + spec.duration + 1e-6

    def test_http_flow_without_close(self):
        spec = FlowSpec("10.0.0.1", "192.0.2.1", 1000, 80, 0.0, 10.0, requests=[("/a", 100)])
        records = http_flow_records(spec, close=False)
        assert not any(FIN in record.flags for record in records)

    def test_request_payload_contains_uri(self):
        spec = FlowSpec("10.0.0.1", "192.0.2.1", 1000, 80, 0.0, 10.0, requests=[("/object/7", 100)])
        records = http_flow_records(spec)
        assert any(b"GET /object/7" in record.payload for record in records)

    def test_timestamps_monotone(self):
        spec = FlowSpec("10.0.0.1", "192.0.2.1", 1000, 80, 5.0, 20.0, requests=[("/a", 2000)])
        records = http_flow_records(spec)
        times = [record.time for record in records]
        assert times == sorted(times)
        assert times[0] == 5.0


class TestGenerators:
    def test_enterprise_trace_flow_counts(self):
        trace = enterprise_cloud_trace(http_flows=20, other_flows=5, duration=30.0, seed=1)
        assert trace.flow_count() == 25
        assert trace.metadata["kind"] == "enterprise-cloud"

    def test_enterprise_trace_deterministic_for_seed(self):
        a = enterprise_cloud_trace(http_flows=5, other_flows=2, seed=9)
        b = enterprise_cloud_trace(http_flows=5, other_flows=2, seed=9)
        assert a.records == b.records

    def test_enterprise_trace_http_distinct_from_other(self):
        trace = enterprise_cloud_trace(http_flows=10, other_flows=10, seed=2)
        http = [record for record in trace if 80 in (record.tp_dst, record.tp_src)]
        assert 0 < len(http) < len(trace)

    def test_leave_open_fraction(self):
        closed = enterprise_cloud_trace(http_flows=20, other_flows=0, seed=3, leave_open_fraction=0.0)
        open_trace = enterprise_cloud_trace(http_flows=20, other_flows=0, seed=3, leave_open_fraction=1.0)
        closed_fins = sum(1 for record in closed if FIN in record.flags)
        open_fins = sum(1 for record in open_trace if FIN in record.flags)
        assert open_fins == 0 and closed_fins > 0

    def test_datacenter_durations_have_heavy_tail(self):
        durations = datacenter_flow_durations(5000, seed=4)
        assert 0.03 < float(np.mean(durations > 1500.0)) < 0.2

    def test_datacenter_trace_metadata_durations(self):
        trace = datacenter_trace(flows=30, seed=5)
        assert len(trace.metadata["durations"]) == 30
        assert trace.flow_count() == 30

    def test_redundancy_trace_payload_sizes(self):
        trace = redundancy_trace(packets=50, payload_bytes=512, redundancy=0.5, seed=6)
        assert all(len(record.payload) == 512 for record in trace)
        assert trace.metadata["redundancy"] == 0.5

    def test_redundancy_trace_actually_redundant(self):
        """A redundant trace should compress well with the RE encoder."""
        from repro.middleboxes import REEncoder

        encoder = REEncoder(Simulator(), "enc", cache_capacity=1024 * 1024)
        trace = redundancy_trace(packets=100, payload_bytes=512, redundancy=0.8, seed=7)
        for record in trace:
            encoder.process_packet(record.to_packet())
        assert encoder.encoded_bytes > 0.3 * encoder.total_bytes

    def test_zero_redundancy_trace_barely_encodes(self):
        from repro.middleboxes import REEncoder

        encoder = REEncoder(Simulator(), "enc", cache_capacity=1024 * 1024)
        trace = redundancy_trace(packets=100, payload_bytes=512, redundancy=0.0, seed=8)
        for record in trace:
            encoder.process_packet(record.to_packet())
        assert encoder.encoded_bytes < 0.05 * encoder.total_bytes

    def test_scan_trace_targets(self):
        trace = scan_trace(targets=30)
        assert len(trace) == 30
        assert len({record.nw_dst for record in trace}) == 30
        assert all(SYN in record.flags for record in trace)

    def test_constant_rate_trace_rate_and_flows(self):
        trace = constant_rate_trace(rate=500.0, duration=2.0, flows=50)
        assert len(trace) == 1000
        assert trace.flow_count() == 50
        inter_arrival = trace.records[1].time - trace.records[0].time
        assert inter_arrival == pytest.approx(1 / 500.0)


class TestReplay:
    def test_replay_into_middlebox(self):
        sim = Simulator()
        monitor = PassiveMonitor(sim, "mon")
        trace = constant_rate_trace(rate=100.0, duration=0.5, flows=10)
        stats = replay_trace_through(sim, trace, monitor)
        assert stats.injected == 50
        assert monitor.counters.packets_received == 50

    def test_replay_speedup_compresses_time(self):
        sim = Simulator()
        monitor = PassiveMonitor(sim, "mon")
        trace = constant_rate_trace(rate=100.0, duration=1.0, flows=10)
        replayer = TraceReplayer.into_node(sim, trace, monitor, speedup=10.0)
        replayer.schedule()
        sim.run()
        assert replayer.stats.last_time <= 0.11

    def test_replay_start_offset(self):
        sim = Simulator()
        monitor = PassiveMonitor(sim, "mon")
        trace = constant_rate_trace(rate=100.0, duration=0.1, flows=5)
        replayer = TraceReplayer.into_node(sim, trace, monitor, start_at=5.0)
        replayer.schedule()
        sim.run(until=4.9)
        assert monitor.counters.packets_received == 0
        sim.run()
        assert monitor.counters.packets_received == 10

    def test_replay_limit(self):
        sim = Simulator()
        monitor = PassiveMonitor(sim, "mon")
        trace = constant_rate_trace(rate=100.0, duration=1.0, flows=10)
        replayer = TraceReplayer.into_node(sim, trace, monitor, limit=25)
        assert replayer.schedule() == 25
        sim.run()
        assert monitor.counters.packets_received == 25

    def test_invalid_speedup_rejected(self):
        sim = Simulator()
        monitor = PassiveMonitor(sim, "mon")
        with pytest.raises(ValueError):
            TraceReplayer.into_node(sim, Trace(), monitor, speedup=0.0)

    def test_replay_via_host_traverses_network(self):
        from repro.core.flowspace import FlowPattern
        from repro.net import SDNController, Switch, Topology

        sim = Simulator()
        topo = Topology(sim)
        source = topo.add_host("src", "10.5.1.254")
        sink = topo.add_host("dst", "192.0.2.20")
        switch = topo.add_node(Switch(sim, "s1"))
        topo.connect(source, switch)
        topo.connect(switch, sink)
        sdn = SDNController(sim, topo)
        handle = sdn.route(FlowPattern(nw_dst="192.0.2.20"), source, sink)
        sim.run_until(handle.installed)
        trace = constant_rate_trace(rate=200.0, duration=0.25, flows=5)
        replayer = TraceReplayer.via_host(sim, trace, source)
        replayer.schedule()
        sim.run()
        assert len(sink.received) == 50
