"""Unit tests for packets and flow tables."""


from repro.core.flowspace import PROTO_TCP, PROTO_UDP, FlowPattern
from repro.net.flowtable import Action, ActionType, FlowRule, FlowTable
from repro.net.packet import ACK, FIN, HEADER_BYTES, SYN, tcp_packet, udp_packet


class TestPacket:
    def test_flow_key_matches_fields(self):
        packet = tcp_packet("10.0.0.1", "192.0.2.1", 1234, 80)
        key = packet.flow_key()
        assert key.nw_src == "10.0.0.1" and key.tp_dst == 80 and key.nw_proto == PROTO_TCP

    def test_wire_size_includes_headers(self):
        packet = tcp_packet("10.0.0.1", "192.0.2.1", 1, 2, b"x" * 100)
        assert packet.wire_size == HEADER_BYTES + 100

    def test_encoded_size_overrides_payload_length(self):
        packet = tcp_packet("10.0.0.1", "192.0.2.1", 1, 2, b"x" * 1000)
        packet.encoded_size = 60
        assert packet.wire_size == HEADER_BYTES + 60

    def test_flags(self):
        packet = tcp_packet("10.0.0.1", "192.0.2.1", 1, 2, flags={SYN, ACK})
        assert packet.has_flag(SYN) and packet.has_flag(ACK) and not packet.has_flag(FIN)

    def test_udp_packet_protocol(self):
        packet = udp_packet("10.0.0.1", "192.0.2.1", 53, 5353)
        assert packet.nw_proto == PROTO_UDP
        assert packet.flow_key().nw_proto == PROTO_UDP

    def test_copy_has_independent_annotations(self):
        packet = tcp_packet("10.0.0.1", "192.0.2.1", 1, 2)
        packet.annotations["tag"] = 1
        duplicate = packet.copy()
        duplicate.annotations["tag"] = 2
        assert duplicate is not packet and packet.annotations["tag"] == 1


class TestActions:
    def test_constructors(self):
        assert Action.output(3).type is ActionType.OUTPUT and Action.output(3).port == 3
        assert Action.drop().type is ActionType.DROP


class TestFlowTable:
    def packet(self, dst="192.0.2.1", dport=80):
        return tcp_packet("10.0.0.1", dst, 1234, dport)

    def test_lookup_miss_returns_none(self):
        assert FlowTable().lookup(self.packet()) is None

    def test_lookup_matches_pattern(self):
        table = FlowTable()
        rule = table.add(FlowRule(FlowPattern(nw_dst="192.0.2.0/24"), [Action.output(1)]))
        assert table.lookup(self.packet()) is rule
        assert table.lookup(self.packet(dst="198.51.100.1")) is None

    def test_higher_priority_wins(self):
        table = FlowTable()
        low = table.add(FlowRule(FlowPattern.wildcard(), [Action.drop()], priority=10))
        high = table.add(FlowRule(FlowPattern(tp_dst=80), [Action.output(2)], priority=200))
        assert table.lookup(self.packet()) is high
        assert table.lookup(self.packet(dport=443)) is low

    def test_specificity_breaks_priority_ties(self):
        table = FlowTable()
        broad = table.add(FlowRule(FlowPattern(nw_dst="192.0.2.0/24"), [Action.output(1)], priority=100))
        narrow = table.add(FlowRule(FlowPattern(nw_dst="192.0.2.1", tp_dst=80), [Action.output(2)], priority=100))
        assert table.lookup(self.packet()) is narrow
        assert broad in table.rules()

    def test_the_later_installed_rule_wins_ties_of_priority_and_specificity(self):
        table = FlowTable()
        built_first = FlowRule(FlowPattern(tp_dst=80), [Action.output(1)], priority=100, cookie="first")
        built_second = FlowRule(FlowPattern(tp_dst=80), [Action.output(1)], priority=100)
        table.add(built_second)
        table.add(built_first)  # installed last, so it wins although it was built first
        assert table.lookup(self.packet()) is built_first
        # Removing the later rule by its cookie leaves the earlier-installed one, which then wins.
        assert table.remove_by_cookie("first") == 1 and table.lookup(self.packet()) is built_second

    def test_remove_by_cookie(self):
        table = FlowTable()
        table.add(FlowRule(FlowPattern(tp_dst=80), [Action.output(1)], cookie="route-1"))
        table.add(FlowRule(FlowPattern(tp_dst=443), [Action.output(1)], cookie="route-1"))
        table.add(FlowRule(FlowPattern(tp_dst=22), [Action.output(1)], cookie="route-2"))
        assert table.remove_by_cookie("route-1") == 2
        assert len(table.rules()) == 1

    def test_rule_counters(self):
        table = FlowTable()
        rule = table.add(FlowRule(FlowPattern(tp_dst=80), [Action.output(1)]))
        packet = self.packet()
        rule.record(packet)
        assert rule.packets_matched == 1
        assert rule.bytes_matched == packet.wire_size
