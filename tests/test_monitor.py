"""Unit tests for the PRADS-like passive monitor."""


from repro.core.flowspace import FlowPattern
from repro.core.state import StateRole
from repro.middleboxes.monitor import (
    EVENT_ASSET_DETECTED,
    MonitorStats,
    PassiveMonitor,
    combined_statistics,
)
from repro.net import Simulator, tcp_packet, udp_packet
from repro.net.packet import SYN


def feed(monitor, count=10, dst="192.0.2.10", dport=80, src_prefix="10.0.0"):
    for index in range(count):
        monitor.process_packet(tcp_packet(f"{src_prefix}.{index + 1}", dst, 1000 + index, dport, b"data"))


class TestFlowRecords:
    def test_new_flow_creates_record(self):
        monitor = PassiveMonitor(Simulator(), "mon")
        feed(monitor, count=3)
        assert len(monitor.report_store) == 3
        assert monitor.shared_report.value.flows_seen == 3

    def test_bidirectional_traffic_counted_in_one_record(self):
        monitor = PassiveMonitor(Simulator(), "mon")
        packet = tcp_packet("10.0.0.1", "192.0.2.10", 1000, 80, b"req")
        monitor.process_packet(packet)
        monitor.process_packet(tcp_packet("192.0.2.10", "10.0.0.1", 80, 1000, b"resp"))
        assert len(monitor.report_store) == 1
        record = monitor.flow_records()[0]
        assert record.packets == 2
        assert monitor.shared_report.value.flows_seen == 1

    def test_record_counts_bytes_and_syn(self):
        monitor = PassiveMonitor(Simulator(), "mon")
        packet = tcp_packet("10.0.0.1", "192.0.2.10", 1000, 80, b"xyz", flags={SYN})
        monitor.process_packet(packet)
        record = monitor.flow_records()[0]
        assert record.bytes == packet.wire_size
        assert record.syn_seen

    def test_service_detection_by_port(self):
        monitor = PassiveMonitor(Simulator(), "mon")
        monitor.process_packet(tcp_packet("10.0.0.1", "192.0.2.10", 1000, 443, b""))
        assert monitor.flow_records()[0].service == "https"


class TestSharedStats:
    def test_protocol_counters(self):
        monitor = PassiveMonitor(Simulator(), "mon")
        monitor.process_packet(tcp_packet("10.0.0.1", "192.0.2.10", 1, 80))
        monitor.process_packet(udp_packet("10.0.0.1", "192.0.2.10", 1, 53))
        stats = monitor.shared_report.value
        assert stats.tcp_packets == 1 and stats.udp_packets == 1 and stats.total_packets == 2

    def test_asset_detection_records_server_and_service(self):
        monitor = PassiveMonitor(Simulator(), "mon")
        feed(monitor, count=2, dport=22)
        assert monitor.shared_report.value.assets["192.0.2.10"] == ["ssh"]

    def test_merge_adds_counters_and_unions_assets(self):
        a = MonitorStats(total_packets=5, tcp_packets=5, flows_seen=2)
        a.record_asset("192.0.2.1", "http")
        b = MonitorStats(total_packets=3, udp_packets=3, flows_seen=1)
        b.record_asset("192.0.2.1", "https")
        b.record_asset("192.0.2.2", "ssh")
        merged = MonitorStats.merge(a, b)
        assert merged.total_packets == 8 and merged.flows_seen == 3
        assert merged.assets["192.0.2.1"] == ["http", "https"]
        assert merged.assets["192.0.2.2"] == ["ssh"]

    def test_merge_does_not_mutate_inputs(self):
        a = MonitorStats(total_packets=5)
        b = MonitorStats(total_packets=3)
        MonitorStats.merge(a, b)
        assert a.total_packets == 5 and b.total_packets == 3


class TestStateExport:
    def test_perflow_reporting_roundtrip_between_instances(self):
        sim = Simulator()
        src, dst = PassiveMonitor(sim, "a"), PassiveMonitor(sim, "b")
        feed(src, count=6)
        chunks = list(src.iter_perflow(StateRole.REPORTING, FlowPattern.wildcard()))
        for chunk in chunks:
            dst.put_perflow(chunk)
        assert len(dst.report_store) == 6
        assert {r.packets for r in dst.flow_records()} == {1}

    def test_shared_reporting_merge_through_southbound(self):
        sim = Simulator()
        src, dst = PassiveMonitor(sim, "a"), PassiveMonitor(sim, "b")
        feed(src, count=4)
        feed(dst, count=2, dst="192.0.2.99")
        dst.put_shared(src.get_shared(StateRole.REPORTING))
        assert dst.shared_report.value.total_packets == 6
        assert dst.shared_report.merge_count == 1

    def test_monitor_has_no_shared_supporting_state(self):
        monitor = PassiveMonitor(Simulator(), "mon")
        assert monitor.get_shared(StateRole.SUPPORTING) is None


class TestReprocessSemantics:
    def test_reprocessed_packets_do_not_touch_shared_counters(self):
        """Replayed packets must not double-count in the shared reporting state."""
        monitor = PassiveMonitor(Simulator(), "mon")
        feed(monitor, count=2)
        before = monitor.shared_report.value.total_packets
        monitor.reprocess(tcp_packet("10.0.0.1", "192.0.2.10", 1000, 80, b"late"), shared=False)
        assert monitor.shared_report.value.total_packets == before
        # ... but the per-flow record is updated.
        assert any(record.packets == 2 for record in monitor.flow_records())

    def test_combined_statistics_after_split_processing(self):
        """Two instances that each saw part of the traffic report the same totals as one."""
        sim = Simulator()
        reference = PassiveMonitor(sim, "ref")
        part_a, part_b = PassiveMonitor(sim, "a"), PassiveMonitor(sim, "b")
        for index in range(40):
            packet = tcp_packet(f"10.0.0.{index % 7 + 1}", "192.0.2.10", 2000 + index % 7, 80, b"x")
            reference.process_packet(packet)
            (part_a if index < 25 else part_b).process_packet(packet)
        combined = combined_statistics([part_a, part_b])
        assert combined["total_packets"] == reference.statistics()["total_packets"]
        assert combined["tcp_packets"] == reference.statistics()["tcp_packets"]


class TestEventsAndStatistics:
    def test_asset_event_raised_when_enabled(self):
        sim = Simulator()
        monitor = PassiveMonitor(sim, "mon")
        events = []
        monitor.set_event_sink(events.append)
        monitor.enable_events(EVENT_ASSET_DETECTED)
        feed(monitor, count=1)
        assert [event.code for event in events] == [EVENT_ASSET_DETECTED]
        assert events[0].values["service"] == "http"

    def test_statistics_shape(self):
        monitor = PassiveMonitor(Simulator(), "mon")
        feed(monitor, count=5)
        stats = monitor.statistics()
        assert stats["total_packets"] == 5
        assert stats["resident_flow_records"] == 5
        assert "assets" in stats
