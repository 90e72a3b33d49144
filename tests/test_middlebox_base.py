"""Unit tests for the Middlebox base class (southbound implementation, events, forwarding)."""

import pytest

from repro.core.errors import StateError
from repro.core.flowspace import FlowKey, FlowPattern
from repro.core.southbound import ProcessingCosts
from repro.core.state import SharedStateSlot, StateRole
from repro.middleboxes.base import Middlebox, ProcessResult, Verdict
from repro.net import Simulator, Topology, tcp_packet


class EchoMB(Middlebox):
    """A minimal middlebox: counts packets per flow and forwards them."""

    MB_TYPE = "echo"

    def __init__(self, sim, name, **kwargs):
        super().__init__(sim, name, **kwargs)
        self.shared_support = SharedStateSlot({"total": 0}, merge=lambda a, b: {"total": a["total"] + b["total"]})

    def process_packet(self, packet):
        key = packet.flow_key()
        record = self.support_store.get_or_create(key, lambda: {"packets": 0})
        record["packets"] += 1
        self.shared_support.value["total"] += 1
        self.raise_event("echo.packet", key=key)
        return ProcessResult(verdict=Verdict.FORWARD, updated_flows=[key], updated_shared=True)


def make_packet(i=0, payload=b"x"):
    return tcp_packet(f"10.0.0.{i + 1}", "192.0.2.1", 1000 + i, 80, payload)


class TestPacketPath:
    def _wired(self):
        sim = Simulator()
        topo = Topology(sim)
        left = topo.add_host("left", "10.0.0.100")
        right = topo.add_host("right", "192.0.2.100")
        mb = EchoMB(sim, "echo1")
        topo.add_node(mb)
        topo.connect(left, mb)
        topo.connect(mb, right)
        return sim, left, right, mb

    def test_forwards_out_the_other_port(self):
        sim, left, right, mb = self._wired()
        left.send(make_packet())
        sim.run()
        assert len(right.received) == 1
        assert mb.counters.packets_forwarded == 1

    def test_reverse_direction_forwarded_back(self):
        sim, left, right, mb = self._wired()
        right.send(make_packet().reply())
        sim.run()
        assert len(left.received) == 1

    def test_drop_verdict(self):
        sim, left, right, mb = self._wired()
        mb.process_packet = lambda packet: ProcessResult(verdict=Verdict.DROP)
        left.send(make_packet())
        sim.run()
        assert right.received == []
        assert mb.counters.packets_dropped == 1

    def test_forward_replacement_packet(self):
        sim, left, right, mb = self._wired()
        replacement = make_packet(payload=b"rewritten")

        mb.process_packet = lambda packet: ProcessResult(verdict=Verdict.FORWARD, packet=replacement)
        left.send(make_packet())
        sim.run()
        assert right.received[0].payload == b"rewritten"

    def test_egress_port_override(self):
        sim, left, right, mb = self._wired()
        mb.egress_port = mb.port_to(left)
        right.send(make_packet().reply())
        sim.run()
        # The reply came in from the right but is forced back out toward the left host.
        assert len(left.received) == 1

    def test_processing_cost_delays_packets(self):
        sim = Simulator()
        mb = EchoMB(sim, "echo1", costs=ProcessingCosts(packet_processing=5e-3))
        mb.receive(make_packet(), 1)
        sim.run(until=1e-3)
        assert len(mb.support_store) == 0
        sim.run()
        assert len(mb.support_store) == 1

    def test_api_activity_slows_packet_processing(self):
        sim = Simulator()
        costs = ProcessingCosts(packet_processing=1e-3, transfer_slowdown=1.5)
        mb = EchoMB(sim, "echo1", costs=costs)
        mb._note_api_activity(1.0)
        mb.receive(make_packet(), 1)
        sim.run()
        assert mb.counters.processing_time_total == pytest.approx(1.5e-3)


class TestSouthboundState:
    def _populated(self, count=10):
        sim = Simulator()
        mb = EchoMB(sim, "echo1")
        for i in range(count):
            mb.process_packet(make_packet(i))
        return sim, mb

    def test_get_perflow_exports_sealed_chunks(self):
        _, mb = self._populated()
        chunks = list(mb.iter_perflow(StateRole.SUPPORTING, FlowPattern.wildcard()))
        assert len(chunks) == 10
        assert all(chunk.blob for chunk in chunks)
        assert all(b"packets" not in chunk.blob for chunk in chunks)

    def test_put_perflow_imports_into_peer(self):
        sim, mb = self._populated()
        peer = EchoMB(sim, "echo2")
        for chunk in list(mb.iter_perflow(StateRole.SUPPORTING, FlowPattern.wildcard())):
            peer.put_perflow(chunk)
        assert len(peer.support_store) == 10
        key = FlowKey(6, "10.0.0.1", "192.0.2.1", 1000, 80)
        assert peer.support_store.get(key)["packets"] == 1

    def test_get_with_mark_transfer_flags_flows(self):
        _, mb = self._populated()
        list(mb.iter_perflow(StateRole.SUPPORTING, FlowPattern.wildcard(), mark_transfer=True))
        assert mb.transferred_flow_count() == 10
        mb.end_transfer()
        assert mb.transferred_flow_count() == 0

    def test_del_perflow_removes_matching(self):
        _, mb = self._populated()
        removed = mb.del_perflow(StateRole.SUPPORTING, FlowPattern(nw_src="10.0.0.1"))
        assert removed == 1
        assert len(mb.support_store) == 9

    def test_get_shared_and_put_shared_merge(self):
        sim, mb = self._populated(5)
        peer = EchoMB(sim, "echo2")
        for i in range(3):
            peer.process_packet(make_packet(i + 50))
        chunk = mb.get_shared(StateRole.SUPPORTING)
        peer.put_shared(chunk)
        assert peer.shared_support.value["total"] == 8

    def test_get_shared_missing_slot_returns_none(self):
        sim, mb = self._populated(1)
        assert mb.get_shared(StateRole.REPORTING) is None

    def test_put_shared_without_slot_raises(self):
        sim, mb = self._populated(1)
        chunk = mb.get_shared(StateRole.SUPPORTING)
        chunk.role = StateRole.REPORTING
        with pytest.raises(StateError):
            mb.put_shared(chunk)

    def test_state_stats(self):
        _, mb = self._populated()
        stats = mb.state_stats(FlowPattern.wildcard())
        assert stats["perflow_supporting"] == 10
        assert stats["shared_supporting"] == 1
        assert stats["shared_reporting"] == 0
        assert stats["config_keys"] == 0

    def test_perflow_count(self):
        _, mb = self._populated(7)
        assert mb.perflow_count(StateRole.SUPPORTING) == 7
        assert mb.perflow_count(StateRole.REPORTING) == 0

    def test_config_roundtrip_through_southbound(self):
        _, mb = self._populated(1)
        mb.set_config("Echo.Threshold", [5])
        assert mb.get_config("Echo.Threshold") == {"Echo.Threshold": [5]}
        mb.del_config("Echo.Threshold")
        assert "Echo.Threshold" not in mb.get_config("*")


class TestEvents:
    def test_reprocess_event_raised_only_for_transferred_flows(self):
        sim = Simulator()
        mb = EchoMB(sim, "echo1")
        events = []
        mb.set_event_sink(events.append)
        mb.process_packet(make_packet(0))
        mb.receive(make_packet(0), 1)
        sim.run()
        assert not any(event.is_reprocess for event in events)
        list(mb.iter_perflow(StateRole.SUPPORTING, FlowPattern.wildcard(), mark_transfer=True))
        mb.receive(make_packet(0), 1)
        sim.run()
        assert any(event.is_reprocess for event in events)

    def test_reprocess_event_carries_packet(self):
        sim = Simulator()
        mb = EchoMB(sim, "echo1")
        events = []
        mb.set_event_sink(events.append)
        mb.process_packet(make_packet(0))
        list(mb.iter_perflow(StateRole.SUPPORTING, FlowPattern.wildcard(), mark_transfer=True))
        mb.receive(make_packet(0, payload=b"replay-me"), 1)
        sim.run()
        reprocess = [event for event in events if event.is_reprocess]
        assert reprocess and reprocess[0].packet.payload == b"replay-me"

    def test_shared_transfer_event_marked_shared(self):
        sim = Simulator()
        mb = EchoMB(sim, "echo1")
        events = []
        mb.set_event_sink(events.append)
        mb.get_shared(StateRole.SUPPORTING, mark_transfer=True)
        mb.receive(make_packet(0), 1)
        sim.run()
        reprocess = [event for event in events if event.is_reprocess]
        assert reprocess and reprocess[0].shared

    def test_introspection_events_filtered_by_default(self):
        sim = Simulator()
        mb = EchoMB(sim, "echo1")
        events = []
        mb.set_event_sink(events.append)
        mb.receive(make_packet(0), 1)
        sim.run()
        assert events == []

    def test_introspection_events_after_enable(self):
        sim = Simulator()
        mb = EchoMB(sim, "echo1")
        events = []
        mb.set_event_sink(events.append)
        mb.enable_events("echo.packet")
        mb.receive(make_packet(0), 1)
        sim.run()
        assert [event.code for event in events] == ["echo.packet"]
        mb.disable_events("echo.packet")
        mb.receive(make_packet(0), 1)
        sim.run()
        assert len(events) == 1

    def test_reprocess_suppresses_forwarding(self):
        sim = Simulator()
        topo = Topology(sim)
        left = topo.add_host("left", "10.0.0.100")
        right = topo.add_host("right", "192.0.2.100")
        mb = EchoMB(sim, "echo1")
        topo.add_node(mb)
        topo.connect(left, mb)
        topo.connect(mb, right)
        mb.reprocess(make_packet(0), shared=False)
        sim.run()
        assert right.received == []
        assert mb.counters.reprocessed_packets == 1
        assert len(mb.support_store) == 1

    def test_reprocess_does_not_raise_further_events(self):
        sim = Simulator()
        mb = EchoMB(sim, "echo1")
        events = []
        mb.set_event_sink(events.append)
        mb.get_shared(StateRole.SUPPORTING, mark_transfer=True)
        mb.reprocess(make_packet(0), shared=True)
        assert not any(event.is_reprocess for event in events)
