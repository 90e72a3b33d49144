"""Unit tests for the NAT, load balancer, and firewall middleboxes."""

import pytest

from repro.core.flowspace import FlowPattern
from repro.core.state import StateRole
from repro.middleboxes.firewall import Firewall, FirewallRule
from repro.middleboxes.loadbalancer import LoadBalancer
from repro.middleboxes.nat import EVENT_MAPPING_CREATED, NAT
from repro.net import Simulator, tcp_packet


class TestNAT:
    def _nat(self):
        return NAT(Simulator(), "nat", external_ip="203.0.113.1", internal_prefix="10.0.0.0/8")

    def test_outbound_translation_allocates_port(self):
        nat = self._nat()
        result = nat.process_packet(tcp_packet("10.0.0.5", "8.8.8.8", 5555, 80))
        assert result.packet.nw_src == "203.0.113.1"
        assert result.packet.tp_src >= 10_000
        assert len(nat.support_store) == 1

    def test_same_flow_reuses_mapping(self):
        nat = self._nat()
        first = nat.process_packet(tcp_packet("10.0.0.5", "8.8.8.8", 5555, 80))
        second = nat.process_packet(tcp_packet("10.0.0.5", "8.8.8.8", 5555, 80))
        assert first.packet.tp_src == second.packet.tp_src
        assert len(nat.support_store) == 1

    def test_distinct_flows_get_distinct_ports(self):
        nat = self._nat()
        a = nat.process_packet(tcp_packet("10.0.0.5", "8.8.8.8", 5555, 80))
        b = nat.process_packet(tcp_packet("10.0.0.6", "8.8.8.8", 5555, 80))
        assert a.packet.tp_src != b.packet.tp_src

    def test_inbound_translation_back_to_internal_host(self):
        nat = self._nat()
        outbound = nat.process_packet(tcp_packet("10.0.0.5", "8.8.8.8", 5555, 80)).packet
        reply = tcp_packet("8.8.8.8", outbound.nw_src, 80, outbound.tp_src)
        result = nat.process_packet(reply)
        assert result.packet.nw_dst == "10.0.0.5"
        assert result.packet.tp_dst == 5555

    def test_unsolicited_inbound_dropped(self):
        nat = self._nat()
        result = nat.process_packet(tcp_packet("8.8.8.8", "203.0.113.1", 80, 44444))
        from repro.middleboxes.base import Verdict

        assert result.verdict is Verdict.DROP

    def test_mapping_created_event(self):
        nat = self._nat()
        events = []
        nat.set_event_sink(events.append)
        nat.enable_events(EVENT_MAPPING_CREATED)
        nat.process_packet(tcp_packet("10.0.0.5", "8.8.8.8", 5555, 80))
        assert len(events) == 1
        assert events[0].values["external_ip"] == "203.0.113.1"

    def test_mapping_state_moves_between_instances(self):
        sim = Simulator()
        old = NAT(sim, "nat-old")
        new = NAT(sim, "nat-new")
        outbound = old.process_packet(tcp_packet("10.0.0.5", "8.8.8.8", 5555, 80)).packet
        for chunk in list(old.iter_perflow(StateRole.SUPPORTING, FlowPattern.wildcard())):
            new.put_perflow(chunk)
        reply = tcp_packet("8.8.8.8", outbound.nw_src, 80, outbound.tp_src)
        translated = new.process_packet(reply).packet
        assert translated.nw_dst == "10.0.0.5"

    def test_static_mappings_restored_from_config(self):
        nat = self._nat()
        nat.set_config("NAT.StaticMappings", ["10.0.0.5:5555=203.0.113.1:12345"])
        result = nat.process_packet(tcp_packet("10.0.0.5", "8.8.8.8", 5555, 80))
        assert result.packet.tp_src == 12345

    def test_expire_idle_mappings(self):
        sim = Simulator()
        nat = NAT(sim, "nat")
        nat.set_config("NAT.MappingTimeout", [1.0])
        nat.process_packet(tcp_packet("10.0.0.5", "8.8.8.8", 5555, 80))
        sim.run(until=5.0)
        assert nat.expire_idle_mappings() == 1
        assert len(nat.support_store) == 0

    def test_port_exhaustion(self):
        nat = NAT(Simulator(), "nat", port_range=(10_000, 10_001))
        nat.process_packet(tcp_packet("10.0.0.1", "8.8.8.8", 1, 80))
        nat.process_packet(tcp_packet("10.0.0.2", "8.8.8.8", 1, 80))
        from repro.core.errors import MiddleboxError

        with pytest.raises(MiddleboxError):
            nat.process_packet(tcp_packet("10.0.0.3", "8.8.8.8", 1, 80))


class TestLoadBalancer:
    def _lb(self, backends=("10.10.0.1", "10.10.0.2")):
        return LoadBalancer(Simulator(), "lb", vip="198.51.100.10", backends=backends)

    def test_round_robin_assignment(self):
        lb = self._lb()
        a = lb.process_packet(tcp_packet("10.0.0.1", "198.51.100.10", 1001, 80))
        b = lb.process_packet(tcp_packet("10.0.0.2", "198.51.100.10", 1002, 80))
        assert {a.packet.nw_dst, b.packet.nw_dst} == {"10.10.0.1", "10.10.0.2"}

    def test_same_flow_stays_on_same_backend(self):
        lb = self._lb()
        first = lb.process_packet(tcp_packet("10.0.0.1", "198.51.100.10", 1001, 80))
        second = lb.process_packet(tcp_packet("10.0.0.1", "198.51.100.10", 1001, 80))
        assert first.packet.nw_dst == second.packet.nw_dst
        assert len(lb.support_store) == 1

    def test_non_vip_traffic_passes_through(self):
        lb = self._lb()
        result = lb.process_packet(tcp_packet("10.0.0.1", "192.0.2.1", 1001, 80))
        assert result.packet is None
        assert len(lb.support_store) == 0

    def test_no_backends_configured_raises(self):
        from repro.core.errors import MiddleboxError

        lb = self._lb(backends=())
        with pytest.raises(MiddleboxError):
            lb.process_packet(tcp_packet("10.0.0.1", "198.51.100.10", 1001, 80))

    def test_flow_assignment_event(self):
        lb = self._lb()
        events = []
        lb.set_event_sink(events.append)
        lb.enable_events("lb.flow_assigned")
        lb.process_packet(tcp_packet("10.0.0.1", "198.51.100.10", 1001, 80))
        assert events and events[0].values["backend"] in lb.backends

    def test_assignment_moves_with_state(self):
        """Moving the assignment prevents an in-progress transaction from switching servers (R4)."""
        sim = Simulator()
        old = LoadBalancer(sim, "lb-old", backends=["10.10.0.1", "10.10.0.2"])
        new = LoadBalancer(sim, "lb-new", backends=["10.10.0.1", "10.10.0.2"])
        first = old.process_packet(tcp_packet("10.0.0.1", "198.51.100.10", 1001, 80))
        for chunk in list(old.iter_perflow(StateRole.SUPPORTING, FlowPattern(nw_src="10.0.0.1"))):
            new.put_perflow(chunk)
        second = new.process_packet(tcp_packet("10.0.0.1", "198.51.100.10", 1001, 80))
        assert second.packet.nw_dst == first.packet.nw_dst

    def test_granularity_is_source_based(self):
        """The LB keys state by source only; destination-based queries must error (section 4.1.2)."""
        from repro.core.errors import GranularityError

        lb = self._lb()
        lb.process_packet(tcp_packet("10.0.0.1", "198.51.100.10", 1001, 80))
        with pytest.raises(GranularityError):
            list(lb.iter_perflow(StateRole.SUPPORTING, FlowPattern(nw_dst="198.51.100.10")))
        assert len(list(lb.iter_perflow(StateRole.SUPPORTING, FlowPattern(nw_src="10.0.0.1")))) == 1

    def test_reconfigure_backends(self):
        lb = self._lb()
        lb.set_config("LB.Backends", ["10.20.0.1"])
        result = lb.process_packet(tcp_packet("10.0.0.9", "198.51.100.10", 1001, 80))
        assert result.packet.nw_dst == "10.20.0.1"


class TestFirewall:
    def _fw(self, default_allow=False):
        rules = [
            FirewallRule(FlowPattern(nw_dst="192.0.2.0/24", tp_dst=80), allow=True),
            FirewallRule(FlowPattern(tp_dst=23), allow=False),
        ]
        return Firewall(Simulator(), "fw", rules=rules, default_allow=default_allow)

    def test_allowed_flow_forwarded_and_tracked(self):
        fw = self._fw()
        result = fw.process_packet(tcp_packet("10.0.0.1", "192.0.2.5", 1000, 80))
        from repro.middleboxes.base import Verdict

        assert result.verdict is Verdict.FORWARD
        assert len(fw.support_store) == 1

    def test_denied_flow_dropped(self):
        fw = self._fw()
        result = fw.process_packet(tcp_packet("10.0.0.1", "192.0.2.5", 1000, 23))
        from repro.middleboxes.base import Verdict

        assert result.verdict is Verdict.DROP
        assert fw.denied_packets == 1

    def test_default_policy_applies_when_no_rule_matches(self):
        deny_by_default = self._fw(default_allow=False)
        allow_by_default = self._fw(default_allow=True)
        packet = tcp_packet("10.0.0.1", "198.51.100.7", 1000, 443)
        from repro.middleboxes.base import Verdict

        assert deny_by_default.process_packet(packet).verdict is Verdict.DROP
        assert allow_by_default.process_packet(packet).verdict is Verdict.FORWARD

    def test_return_traffic_allowed_for_established_connection(self):
        fw = self._fw()
        fw.process_packet(tcp_packet("10.0.0.1", "192.0.2.5", 1000, 80))
        reply = tcp_packet("192.0.2.5", "10.0.0.1", 80, 1000)
        from repro.middleboxes.base import Verdict

        assert fw.process_packet(reply).verdict is Verdict.FORWARD

    def test_rule_order_matters(self):
        rules = [
            FirewallRule(FlowPattern(tp_dst=80), allow=False),
            FirewallRule(FlowPattern(nw_dst="192.0.2.0/24"), allow=True),
        ]
        fw = Firewall(Simulator(), "fw", rules=rules)
        from repro.middleboxes.base import Verdict

        assert fw.process_packet(tcp_packet("10.0.0.1", "192.0.2.5", 1000, 80)).verdict is Verdict.DROP

    def test_rules_are_configuration_state(self):
        fw = self._fw()
        exported = fw.get_config("FW.Rules")
        assert len(exported["FW.Rules"]) == 2
        other = Firewall(Simulator(), "fw2")
        other.set_config("FW.Rules", exported["FW.Rules"])
        assert len(other.rules()) == 2
        assert other.rules()[0].allow is True

    def test_rule_config_value_roundtrip(self):
        rule = FirewallRule(FlowPattern(nw_src="10.0.0.0/8", tp_dst=22), allow=False)
        restored = FirewallRule.from_config_value(rule.to_config_value())
        assert restored.pattern == rule.pattern
        assert restored.allow is False

    def test_a_rule_added_through_set_config_takes_effect(self):
        fw = self._fw()
        added = FirewallRule(FlowPattern(tp_dst=8080), allow=True)
        fw.set_config("FW.Rules", fw.get_config("FW.Rules")["FW.Rules"] + [added.to_config_value()])
        assert len(fw.rules()) == 3
        from repro.middleboxes.base import Verdict

        assert fw.process_packet(tcp_packet("10.0.0.1", "198.51.100.7", 1000, 8080)).verdict is Verdict.FORWARD

    def test_established_state_moves_between_instances(self):
        """Without moving connection state, return traffic of admitted flows would be dropped."""
        sim = Simulator()
        old = self._fw()
        new = Firewall(sim, "fw-new", rules=old.rules())
        old.process_packet(tcp_packet("10.0.0.1", "192.0.2.5", 1000, 80))
        for chunk in list(old.iter_perflow(StateRole.SUPPORTING, FlowPattern.wildcard())):
            new.put_perflow(chunk)
        reply = tcp_packet("192.0.2.5", "10.0.0.1", 80, 1000)
        from repro.middleboxes.base import Verdict

        assert new.process_packet(reply).verdict is Verdict.FORWARD

    def test_connection_allowed_event(self):
        fw = self._fw()
        events = []
        fw.set_event_sink(events.append)
        fw.enable_events("fw.connection_allowed")
        fw.process_packet(tcp_packet("10.0.0.1", "192.0.2.5", 1000, 80))
        assert [event.code for event in events] == ["fw.connection_allowed"]
