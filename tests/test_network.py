"""Unit tests for links, topology, switches and the SDN controller."""

import pytest

from repro.core.errors import NetworkError
from repro.core.flowspace import FlowPattern
from repro.net import (
    Action,
    FlowRule,
    SDNController,
    Simulator,
    Switch,
    Topology,
    tcp_packet,
)
from repro.net.links import Link
from repro.net.topology import Node


class _Sink(Node):
    """A node that records what it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, in_port):
        self.received.append((packet, in_port, self.sim.now))


class TestLink:
    def test_delivery_after_latency_and_serialisation(self):
        sim = Simulator()
        a, b = _Sink(sim, "a"), _Sink(sim, "b")
        link = Link(sim, a, 1, b, 1, latency=1e-3, bandwidth=1e6)
        a.attach_link(1, link)
        b.attach_link(1, link)
        packet = tcp_packet("10.0.0.1", "10.0.0.2", 1, 2, b"x" * 946)  # 1000 bytes on the wire
        delivery = link.transmit(packet, a)
        assert delivery == pytest.approx(1e-3 + 1000 / 1e6)
        sim.run()
        assert len(b.received) == 1 and b.received[0][1] == 1

    def test_back_to_back_packets_queue(self):
        sim = Simulator()
        a, b = _Sink(sim, "a"), _Sink(sim, "b")
        link = Link(sim, a, 1, b, 1, latency=0.0, bandwidth=1000.0)
        a.attach_link(1, link)
        b.attach_link(1, link)
        p1 = tcp_packet("10.0.0.1", "10.0.0.2", 1, 2, b"x" * 446)  # 500 B -> 0.5 s
        p2 = tcp_packet("10.0.0.1", "10.0.0.2", 1, 2, b"x" * 446)
        first = link.transmit(p1, a)
        second = link.transmit(p2, a)
        assert second == pytest.approx(first + 0.5)

    def test_down_link_drops(self):
        sim = Simulator()
        a, b = _Sink(sim, "a"), _Sink(sim, "b")
        link = Link(sim, a, 1, b, 1)
        a.attach_link(1, link)
        b.attach_link(1, link)
        link.set_up(False)
        # A drop is None, never a pseudo-delivery-time sentinel.
        assert link.transmit(tcp_packet("10.0.0.1", "10.0.0.2", 1, 2), a) is None
        sim.run()
        assert b.received == []
        assert link.stats_a_to_b.drops == 1

    def test_down_link_drop_accounting_both_directions(self):
        sim = Simulator()
        a, b = _Sink(sim, "a"), _Sink(sim, "b")
        link = Link(sim, a, 1, b, 1)
        a.attach_link(1, link)
        b.attach_link(1, link)
        link.set_up(False)
        for _ in range(3):
            assert link.transmit(tcp_packet("10.0.0.1", "10.0.0.2", 1, 2), a) is None
        assert link.transmit(tcp_packet("10.0.0.2", "10.0.0.1", 2, 1), b) is None
        sim.run()
        assert link.stats_a_to_b.drops == 3
        assert link.stats_b_to_a.drops == 1
        # A down-link drop is lost once, never also counted as corruption.
        assert link.stats_a_to_b.drops + link.stats_a_to_b.corrupted == 3
        # Dropped frames never count as transmitted wire traffic.
        assert link.stats_a_to_b.packets == 0
        assert link.stats_b_to_a.packets == 0

    def test_same_name_endpoints_do_not_share_serialisation(self):
        # Regression: the serialisation queue used to be keyed by node *name*,
        # so two endpoints that happened to share a name serialised against
        # each other.  Direct Link construction bypasses the topology's
        # duplicate-name rejection, which is exactly the aliasing scenario.
        sim = Simulator()
        a, b = _Sink(sim, "twin"), _Sink(sim, "twin")
        link = Link(sim, a, 1, b, 1, latency=0.0, bandwidth=1000.0)
        a.attach_link(1, link)
        b.attach_link(1, link)
        payload = b"x" * 446  # 500 B on the wire -> 0.5 s serialisation
        forward = link.transmit(tcp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload), a)
        reverse = link.transmit(tcp_packet("10.0.0.2", "10.0.0.1", 2, 1, payload), b)
        # Opposite directions are independent wires: both finish at 0.5 s.
        assert forward == pytest.approx(0.5)
        assert reverse == pytest.approx(0.5)

    def test_unfaulted_link_schedule_matches_seed_golden(self):
        # With no fault plan and no protection the link must schedule
        # bit-for-bit like the seed implementation: same delivery times, one
        # executed event per delivered packet, no extra timer events.
        sim = Simulator()
        a, b = _Sink(sim, "a"), _Sink(sim, "b")
        link = Link(sim, a, 1, b, 1, latency=1e-3, bandwidth=1e6)
        a.attach_link(1, link)
        b.attach_link(1, link)
        payload = b"x" * 946  # 1000 bytes on the wire
        deliveries = [
            link.transmit(tcp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload), a) for _ in range(3)
        ]
        assert deliveries == [
            pytest.approx(1e-3 + 1e-3),
            pytest.approx(1e-3 + 2e-3),
            pytest.approx(1e-3 + 3e-3),
        ]
        sim.run()
        assert sim.executed_events == 3
        assert [at for _, _, at in b.received] == [pytest.approx(t) for t in deliveries]

    def test_other_end_and_port_on(self):
        sim = Simulator()
        a, b = _Sink(sim, "a"), _Sink(sim, "b")
        link = Link(sim, a, 3, b, 7)
        assert link.other_end(a) is b
        assert link.port_on(b) == 7
        with pytest.raises(ValueError):
            link.other_end(_Sink(sim, "c"))


class TestTopology:
    def test_connect_assigns_ports_and_builds_graph(self):
        sim = Simulator()
        topo = Topology(sim)
        h1 = topo.add_host("h1", "10.0.0.1")
        h2 = topo.add_host("h2", "10.0.0.2")
        sw = topo.add_node(Switch(sim, "s1"))
        topo.connect(h1, sw)
        topo.connect(sw, h2)
        assert h1.port_to(sw) == 1
        assert sw.port_to(h2) == 2
        assert topo.shortest_path(h1, h2) == ["h1", "s1", "h2"]

    def test_duplicate_node_name_rejected(self):
        sim = Simulator()
        topo = Topology(sim)
        topo.add_host("h1", "10.0.0.1")
        with pytest.raises(NetworkError):
            topo.add_host("h1", "10.0.0.2")

    def test_unknown_node_rejected(self):
        topo = Topology(Simulator())
        with pytest.raises(NetworkError):
            topo.get("ghost")

    def test_duplicate_name_attachment_rejected(self):
        # Regression: an unregistered node object wearing a registered node's
        # name used to slip through _resolve and alias it in every name-keyed
        # structure.  It must be rejected at connect time.
        sim = Simulator()
        topo = Topology(sim)
        h1 = topo.add_host("h1", "10.0.0.1")
        topo.add_host("h2", "10.0.0.2")
        from repro.net.topology import Host

        impostor = Host(sim, "h2", "10.9.9.9")  # same name, different object
        with pytest.raises(NetworkError, match="duplicate-name"):
            topo.connect(h1, impostor)
        assert topo.links == []

    def test_path_through_waypoints(self):
        sim = Simulator()
        topo = Topology(sim)
        h1 = topo.add_host("h1", "10.0.0.1")
        h2 = topo.add_host("h2", "10.0.0.2")
        s1, s2 = topo.add_node(Switch(sim, "s1")), topo.add_node(Switch(sim, "s2"))
        mb = topo.add_host("mb", "0.0.0.0")
        topo.connect(h1, s1)
        topo.connect(s1, s2)
        topo.connect(s1, mb)
        topo.connect(mb, s2)
        topo.connect(s2, h2)
        assert topo.path_through(h1, ["mb"], h2) == ["h1", "s1", "mb", "s2", "h2"]

    def test_no_path_raises(self):
        sim = Simulator()
        topo = Topology(sim)
        topo.add_host("h1", "10.0.0.1")
        topo.add_host("h2", "10.0.0.2")
        with pytest.raises(NetworkError):
            topo.shortest_path("h1", "h2")

    def test_connect_returns_the_link_it_registers(self):
        sim = Simulator()
        topo = Topology(sim)
        h1 = topo.add_host("h1", "10.0.0.1")
        h2 = topo.add_host("h2", "10.0.0.2")
        link = topo.connect(h1, h2)
        assert topo.links == [link]
        assert {link.node_a, link.node_b} == {h1, h2}

    def test_host_delivery_pays_link_latency(self):
        sim = Simulator()
        topo = Topology(sim)
        h1 = topo.add_host("h1", "10.0.0.1")
        h2 = topo.add_host("h2", "192.0.2.1")
        topo.connect(h1, h2, latency=2e-3)
        latencies = []
        h2.on_receive(lambda packet: latencies.append(sim.now - packet.created_at))
        h1.send(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80))
        sim.run()
        assert len(latencies) == 1 and latencies[0] >= 2e-3


class TestSwitch:
    def _wire(self):
        sim = Simulator()
        topo = Topology(sim)
        h1 = topo.add_host("h1", "10.0.0.1")
        h2 = topo.add_host("h2", "192.0.2.1")
        sw = topo.add_node(Switch(sim, "s1"))
        topo.connect(h1, sw)
        topo.connect(sw, h2)
        return sim, topo, h1, h2, sw

    def test_forwards_matching_packets(self):
        sim, topo, h1, h2, sw = self._wire()
        sw.install_rule(FlowRule(FlowPattern(nw_dst="192.0.2.0/24"), [Action.output(sw.port_to(h2))]))
        h1.send(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80))
        sim.run()
        assert len(h2.received) == 1
        assert sw.stats.packets_forwarded == 1

    def test_table_miss_uses_default_drop(self):
        sim, topo, h1, h2, sw = self._wire()
        h1.send(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80))
        sim.run()
        assert h2.received == []
        assert sw.stats.table_misses == 1
        assert sw.stats.packets_dropped == 1

    def test_never_reflects_out_ingress_port(self):
        sim, topo, h1, h2, sw = self._wire()
        sw.install_rule(FlowRule(FlowPattern.wildcard(), [Action.output(sw.port_to(h1))]))
        h1.send(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80))
        sim.run()
        assert h1.received == []
        assert sw.stats.packets_dropped == 1

    def test_buffer_and_release_pattern(self):
        sim, topo, h1, h2, sw = self._wire()
        pattern = FlowPattern(nw_dst="192.0.2.0/24")
        sw.install_rule(FlowRule(pattern, [Action.output(sw.port_to(h2))]))
        sw.buffer_pattern(pattern)
        for _ in range(3):
            h1.send(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80))
        sim.run(until=0.1)
        assert h2.received == []
        assert sw.buffered_count(pattern) == 3
        released = sw.release_pattern(pattern)
        sim.run()
        assert len(released) == 3
        assert all(duration >= 0 for _, duration in released)
        assert len(h2.received) == 3

    def test_release_pays_forward_latency(self):
        # Regression: released packets used to be fed straight into the
        # pipeline, skipping the forward_latency hop every fresh arrival pays.
        sim, topo, h1, h2, sw = self._wire()
        pattern = FlowPattern(nw_dst="192.0.2.0/24")
        sw.install_rule(FlowRule(pattern, [Action.output(sw.port_to(h2))]))
        sw.buffer_pattern(pattern)
        h1.send(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80))
        sim.run(until=0.1)
        release_time = sim.now
        sw.release_pattern(pattern)
        sim.run()
        assert len(h2.received) == 1
        # Delivery happens strictly after release + the fabric hop (plus the
        # egress link's latency), never at the release instant itself.
        assert h2.received[0].created_at < release_time
        assert sim.now >= release_time + sw.forward_latency

    def test_release_rebuffers_into_overlapping_pattern(self):
        # Regression: a packet released while an overlapping pattern was
        # still buffering escaped re-buffering, breaking Split/Merge suspend
        # semantics.  Release must re-run the active-buffer check.
        sim, topo, h1, h2, sw = self._wire()
        narrow = FlowPattern(nw_dst="192.0.2.1/32")
        wide = FlowPattern(nw_dst="192.0.2.0/24")
        sw.install_rule(FlowRule(wide, [Action.output(sw.port_to(h2))]))
        sw.buffer_pattern(narrow)
        h1.send(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80))
        sim.run(until=0.1)
        assert sw.buffered_count(narrow) == 1
        sw.buffer_pattern(wide)  # overlapping suspend starts while held
        sw.release_pattern(narrow)
        sim.run(until=0.2)
        # The released packet must land in the still-suspended wide buffer,
        # not escape to h2.
        assert h2.received == []
        assert sw.buffered_count(wide) == 1
        sw.release_pattern(wide)
        sim.run()
        assert len(h2.received) == 1

    def test_multi_pattern_buffer_first_match_order(self):
        # Overlapping suspended patterns: the first-inserted matching pattern
        # captures the packet (dict insertion order), and counters follow.
        sim, topo, h1, h2, sw = self._wire()
        first = FlowPattern(nw_dst="192.0.2.0/24")
        second = FlowPattern(nw_dst="192.0.2.1/32")
        sw.buffer_pattern(first)
        sw.buffer_pattern(second)
        h1.send(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80))
        sim.run(until=0.1)
        assert sw.buffered_count(first) == 1
        assert sw.buffered_count(second) == 0
        assert sw.stats.packets_buffered == 1


class TestSDNController:
    def _scenario(self):
        sim = Simulator()
        topo = Topology(sim)
        h1 = topo.add_host("h1", "10.0.0.1")
        h2 = topo.add_host("h2", "192.0.2.1")
        s1 = topo.add_node(Switch(sim, "s1"))
        s2 = topo.add_node(Switch(sim, "s2"))
        mb = topo.add_host("mb", "0.0.0.1")
        topo.connect(h1, s1)
        topo.connect(s1, s2)
        topo.connect(s1, mb)
        topo.connect(mb, s2)
        topo.connect(s2, h2)
        sdn = SDNController(sim, topo)
        return sim, topo, sdn, h1, h2, s1, s2, mb

    def test_install_route_programs_switches(self):
        sim, topo, sdn, h1, h2, s1, s2, mb = self._scenario()
        handle = sdn.route(FlowPattern(nw_dst="192.0.2.0/24"), h1, h2)
        sim.run_until(handle.installed)
        assert len(s1.table.rules()) == 1 and len(s2.table.rules()) == 1
        h1.send(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80))
        sim.run()
        assert len(h2.received) == 1

    def test_route_through_waypoint(self):
        sim, topo, sdn, h1, h2, s1, s2, mb = self._scenario()
        handle = sdn.route(FlowPattern(nw_dst="192.0.2.0/24"), h1, h2, waypoints=["mb"])
        sim.run_until(handle.installed)
        rule = s1.table.rules()[0]
        assert rule.actions[0].port == s1.port_to(mb)

    def test_rules_take_effect_after_install_latency(self):
        sim, topo, sdn, h1, h2, s1, s2, mb = self._scenario()
        sdn.route(FlowPattern.wildcard(), h1, h2)
        # Before the install latency elapses, the switch still misses.
        h1.send(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80))
        sim.run(until=sdn.rule_install_latency / 2)
        assert len(s1.table.rules()) == 0
        sim.run()
        assert len(s1.table.rules()) == 1

    def test_remove_route(self):
        sim, topo, sdn, h1, h2, s1, s2, mb = self._scenario()
        handle = sdn.route(FlowPattern.wildcard(), h1, h2)
        sim.run_until(handle.installed)
        sdn.remove_route(handle)
        sim.run()
        assert len(s1.table.rules()) == 0 and len(s2.table.rules()) == 0

    def test_route_requires_connected_path(self):
        sim = Simulator()
        topo = Topology(sim)
        h1 = topo.add_host("h1", "10.0.0.1")
        h2 = topo.add_host("h2", "10.0.0.2")
        sdn = SDNController(sim, topo)
        with pytest.raises(NetworkError):
            sdn.route(FlowPattern.wildcard(), h1, h2)

    def test_install_route_needs_two_nodes(self):
        sim, topo, sdn, h1, *_ = self._scenario()
        with pytest.raises(NetworkError):
            sdn.install_route(FlowPattern.wildcard(), [h1])

    def test_bidirectional_route(self):
        sim, topo, sdn, h1, h2, s1, s2, mb = self._scenario()
        handle = sdn.route(FlowPattern(nw_dst="192.0.2.0/24"), h1, h2, bidirectional=True)
        sim.run_until(handle.installed)
        h2.send(tcp_packet("192.0.2.1", "10.0.0.5", 80, 1))
        sim.run()
        assert len(h1.received) == 1
