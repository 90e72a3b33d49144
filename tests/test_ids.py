"""Unit tests for the Bro-like IDS."""


from repro.core.flowspace import FlowPattern
from repro.core.state import StateRole
from repro.middleboxes.ids import (
    IDS,
    STATE_CLOSED,
    STATE_INCOMPLETE,
    STATE_RESET,
    ScanTable,
)
from repro.net import Simulator, tcp_packet
from repro.net.packet import ACK, RST, SYN
from repro.traffic.generators import FlowSpec, http_flow_records


def replay_flow(ids, spec=None, close=True):
    """Run one synthetic HTTP flow through the IDS (both directions)."""
    spec = spec or FlowSpec(
        client="10.0.0.1",
        server="192.0.2.10",
        client_port=41000,
        server_port=80,
        start=0.0,
        duration=1.0,
        requests=[("/index.html", 600)],
    )
    for record in http_flow_records(spec, close=close):
        ids.process_packet(record.to_packet())
    return spec


class TestConnectionTracking:
    def test_handshake_establishes_connection(self):
        ids = IDS(Simulator(), "ids")
        ids.process_packet(tcp_packet("10.0.0.1", "192.0.2.10", 1000, 80, flags={SYN}))
        ids.process_packet(tcp_packet("192.0.2.10", "10.0.0.1", 80, 1000, flags={SYN, ACK}))
        ids.process_packet(tcp_packet("10.0.0.1", "192.0.2.10", 1000, 80, flags={ACK}))
        assert len(ids.support_store) == 1
        connection = next(conn for _, conn in ids.support_store.items())
        assert connection.orig_packets == 2 and connection.resp_packets == 1

    def test_fin_exchange_closes_and_logs(self):
        ids = IDS(Simulator(), "ids")
        replay_flow(ids)
        assert len(ids.conn_log) == 1
        entry = ids.conn_log[0]
        assert entry.conn_state == STATE_CLOSED
        assert entry.service == "http"

    def test_rst_marks_connection_reset(self):
        ids = IDS(Simulator(), "ids")
        ids.process_packet(tcp_packet("10.0.0.1", "192.0.2.10", 1000, 80, flags={SYN}))
        ids.process_packet(tcp_packet("192.0.2.10", "10.0.0.1", 80, 1000, flags={RST}))
        assert ids.conn_log[0].conn_state == STATE_RESET

    def test_counters_accumulate_payload_bytes(self):
        ids = IDS(Simulator(), "ids")
        replay_flow(ids)
        entry = ids.conn_log[0]
        assert entry.orig_bytes > 0 and entry.resp_bytes > 600

    def test_connection_not_logged_twice(self):
        ids = IDS(Simulator(), "ids")
        replay_flow(ids)
        ids.finalize()
        assert len(ids.conn_log) == 1


class TestHttpAnalysis:
    def test_request_response_logged(self):
        ids = IDS(Simulator(), "ids")
        replay_flow(ids)
        assert len(ids.http_log) == 1
        entry = ids.http_log[0]
        assert entry.method == "GET"
        assert entry.uri == "/index.html"
        assert entry.status == 200
        assert entry.host == "192.0.2.10"

    def test_multiple_requests_on_one_connection(self):
        ids = IDS(Simulator(), "ids")
        spec = FlowSpec(
            client="10.0.0.1",
            server="192.0.2.10",
            client_port=41001,
            server_port=80,
            start=0.0,
            duration=1.0,
            requests=[("/a", 100), ("/b", 100), ("/c", 100)],
        )
        replay_flow(ids, spec)
        assert [entry.uri for entry in ids.http_log] == ["/a", "/b", "/c"]

    def test_non_http_ports_not_analyzed(self):
        ids = IDS(Simulator(), "ids")
        ids.process_packet(tcp_packet("10.0.0.1", "192.0.2.10", 1000, 22, b"GET / HTTP/1.1\r\n\r\n"))
        assert ids.http_log == []

    def test_response_bytes_accumulate_across_segments(self):
        ids = IDS(Simulator(), "ids")
        spec = FlowSpec(
            client="10.0.0.1",
            server="192.0.2.10",
            client_port=41002,
            server_port=80,
            start=0.0,
            duration=1.0,
            requests=[("/large", 1500)],
        )
        replay_flow(ids, spec)
        connection = next(conn for _, conn in ids.support_store.items())
        assert connection.http[0].response_bytes >= 1500


class TestScanDetection:
    def test_alert_raised_at_threshold(self):
        ids = IDS(Simulator(), "ids")
        ids.set_config("IDS.ScanThreshold", [10])
        for index in range(12):
            ids.process_packet(tcp_packet("10.9.9.9", f"10.4.1.{index + 1}", 50000 + index, 22, flags={SYN}))
        assert len(ids.alerts) == 1
        assert ids.alerts[0]["source"] == "10.9.9.9"

    def test_scan_table_is_shared_supporting_state(self):
        ids = IDS(Simulator(), "ids")
        for index in range(5):
            ids.process_packet(tcp_packet("10.9.9.9", f"10.4.1.{index + 1}", 50000 + index, 22, flags={SYN}))
        chunk = ids.get_shared(StateRole.SUPPORTING)
        assert chunk is not None
        assert chunk.key is None
        peer = IDS(Simulator(), "peer")
        peer.put_shared(chunk)
        assert len(peer.shared_support.value.contacted["10.9.9.9"]) == 5

    def test_scan_table_merge(self):
        a = ScanTable()
        b = ScanTable()
        a.record("10.9.9.9", "10.4.1.1")
        b.record("10.9.9.9", "10.4.1.2")
        b.record("10.8.8.8", "10.4.1.1")
        merged = ScanTable.merge(a, b)
        assert sorted(merged.contacted["10.9.9.9"]) == ["10.4.1.1", "10.4.1.2"]
        assert "10.8.8.8" in merged.contacted


class TestFinalizeAndAnomalies:
    def test_unclosed_connection_logged_incomplete(self):
        ids = IDS(Simulator(), "ids")
        replay_flow(ids, close=False)
        ids.finalize()
        assert [entry.conn_state for entry in ids.conn_log] == [STATE_INCOMPLETE]
        assert len(ids.incorrect_entries()) == 1

    def test_moved_connections_produce_no_anomalies(self):
        """The paper's 'moved flag': deletes after a move must not create log errors."""
        ids = IDS(Simulator(), "ids")
        replay_flow(ids, close=False)
        removed = ids.del_perflow(StateRole.SUPPORTING, FlowPattern.wildcard())
        assert removed == 1
        ids.finalize()
        assert ids.incorrect_entries() == []

    def test_finalize_logs_closed_but_unlogged_connections(self):
        ids = IDS(Simulator(), "ids")
        ids.process_packet(tcp_packet("10.0.0.1", "192.0.2.10", 1000, 80, flags={SYN}))
        ids.finalize()
        assert len(ids.conn_log) == 1


class TestStateMigration:
    def test_move_connection_between_instances_preserves_analysis(self):
        """Per-flow supporting state moved mid-flow lets the new instance finish the analysis."""
        sim = Simulator()
        old, new = IDS(sim, "old"), IDS(sim, "new")
        spec = FlowSpec(
            client="10.0.0.1",
            server="192.0.2.10",
            client_port=41000,
            server_port=80,
            start=0.0,
            duration=1.0,
            requests=[("/moved", 300)],
        )
        records = http_flow_records(spec)
        split = len(records) // 2
        for record in records[:split]:
            old.process_packet(record.to_packet())
        for chunk in list(old.iter_perflow(StateRole.SUPPORTING, FlowPattern.wildcard())):
            new.put_perflow(chunk)
        old.del_perflow(StateRole.SUPPORTING, FlowPattern.wildcard())
        for record in records[split:]:
            new.process_packet(record.to_packet())
        old.finalize()
        new.finalize()
        combined = old.conn_log + new.conn_log
        assert len(combined) == 1
        assert combined[0].conn_state == STATE_CLOSED
        reference = IDS(sim, "ref")
        for record in records:
            reference.process_packet(record.to_packet())
        reference.finalize()
        assert combined[0].orig_packets == reference.conn_log[0].orig_packets
        assert combined[0].resp_bytes == reference.conn_log[0].resp_bytes

    def test_state_size_bytes_scales_with_flows(self):
        ids = IDS(Simulator(), "ids")
        small = ids.state_size_bytes()
        for port in range(41000, 41010):
            replay_flow(
                ids,
                FlowSpec(
                    client="10.0.0.1",
                    server="192.0.2.10",
                    client_port=port,
                    server_port=80,
                    start=0.0,
                    duration=1.0,
                    requests=[("/x", 100)],
                ),
            )
        assert ids.state_size_bytes() > small
        pattern_size = ids.state_size_bytes(FlowPattern(tp_src=41000))
        assert 0 < pattern_size < ids.state_size_bytes()
