"""Unit tests for flow keys, prefixes, and header-field patterns."""

import pytest

from repro.core.flowspace import (
    FIELDS,
    PROTO_TCP,
    PROTO_UDP,
    FlowKey,
    FlowPattern,
    IPv4Prefix,
    int_to_ip,
    ip_to_int,
)


class TestAddressConversion:
    def test_roundtrip(self):
        for address in ("0.0.0.0", "10.1.2.3", "255.255.255.255", "192.0.2.77"):
            assert int_to_ip(ip_to_int(address)) == address

    def test_ip_to_int_known_value(self):
        assert ip_to_int("1.0.0.0") == 1 << 24
        assert ip_to_int("0.0.0.1") == 1

    def test_rejects_bad_addresses(self):
        with pytest.raises(ValueError):
            ip_to_int("10.0.0")
        with pytest.raises(ValueError):
            ip_to_int("300.0.0.1")
        with pytest.raises(ValueError):
            int_to_ip(-1)
        with pytest.raises(ValueError):
            int_to_ip(1 << 33)


class TestIPv4Prefix:
    def test_parse_with_and_without_length(self):
        assert IPv4Prefix.parse("10.0.0.0/8").length == 8
        assert IPv4Prefix.parse("10.1.2.3").length == 32

    def test_network_is_masked(self):
        prefix = IPv4Prefix.parse("10.1.2.3/24")
        assert int_to_ip(prefix.network) == "10.1.2.0"

    def test_contains_ip(self):
        prefix = IPv4Prefix.parse("1.1.2.0/24")
        assert prefix.contains_ip("1.1.2.200")
        assert not prefix.contains_ip("1.1.3.1")

    def test_zero_length_matches_everything(self):
        prefix = IPv4Prefix.parse("0.0.0.0/0")
        assert prefix.contains_ip("8.8.8.8")
        assert prefix.contains_ip("10.0.0.1")

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            IPv4Prefix(0, 33)


class TestFlowKey:
    def test_reversed_swaps_endpoints(self):
        key = FlowKey(PROTO_TCP, "10.0.0.1", "192.0.2.1", 1234, 80)
        rev = key.reversed()
        assert rev.nw_src == "192.0.2.1" and rev.tp_src == 80
        assert rev.reversed() == key

    def test_bidirectional_is_direction_independent(self):
        key = FlowKey(PROTO_TCP, "10.0.0.1", "192.0.2.1", 1234, 80)
        assert key.bidirectional() == key.reversed().bidirectional()

    def test_dict_roundtrip(self):
        key = FlowKey(PROTO_UDP, "10.0.0.1", "192.0.2.1", 53, 5353)
        assert FlowKey.from_dict(key.as_dict()) == key

    @pytest.mark.parametrize(
        "member, value",
        [("tp_src", 80.9), ("tp_dst", True), ("nw_proto", "6"), ("tp_src", None), ("nw_src", 167837953), ("nw_dst", None)],
    )
    def test_from_dict_refuses_an_ill_typed_member_instead_of_coercing_it(self, member, value):
        wire = FlowKey(PROTO_TCP, "1.1.1.1", "2.2.2.2", 80, 443).as_dict()
        wire[member] = value
        with pytest.raises(ValueError, match="ill-typed flow key"):
            FlowKey.from_dict(wire)

    def test_str_contains_protocol_name(self):
        key = FlowKey(PROTO_TCP, "10.0.0.1", "192.0.2.1", 1234, 80)
        assert "tcp" in str(key)


class TestFlowPatternParsing:
    def test_parse_none_gives_wildcard(self):
        assert FlowPattern.parse(None).is_wildcard
        assert FlowPattern.parse([]).is_wildcard
        assert FlowPattern.parse("").is_wildcard

    def test_parse_paper_notation(self):
        pattern = FlowPattern.parse(["nw_src=1.1.1.0/24"])
        assert pattern.nw_src == "1.1.1.0/24"
        assert pattern.specificity == 1

    def test_parse_mapping(self):
        pattern = FlowPattern.parse({"nw_dst": "192.0.2.0/24", "tp_dst": 80})
        assert pattern.tp_dst == 80
        assert pattern.specificity == 2

    def test_parse_comma_separated_string(self):
        pattern = FlowPattern.parse("nw_src=10.0.0.0/8,tp_dst=443")
        assert pattern.specificity == 2

    def test_parse_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            FlowPattern.parse({"bogus": 1})

    def test_from_flow_is_fully_specified(self):
        key = FlowKey(PROTO_TCP, "10.0.0.1", "192.0.2.1", 1234, 80)
        pattern = FlowPattern.from_flow(key)
        assert pattern.specificity == len(FIELDS)
        assert pattern.matches(key)


class TestFlowPatternMatching:
    key = FlowKey(PROTO_TCP, "10.1.1.5", "172.16.1.9", 40000, 80)

    def test_wildcard_matches_everything(self):
        assert FlowPattern.wildcard().matches(self.key)

    def test_prefix_match_on_source(self):
        assert FlowPattern(nw_src="10.1.1.0/24").matches(self.key)
        assert not FlowPattern(nw_src="10.1.2.0/24").matches(self.key)

    def test_exact_port_match(self):
        assert FlowPattern(tp_dst=80).matches(self.key)
        assert not FlowPattern(tp_dst=443).matches(self.key)

    def test_protocol_match(self):
        assert FlowPattern(nw_proto=PROTO_TCP).matches(self.key)
        assert not FlowPattern(nw_proto=PROTO_UDP).matches(self.key)

    def test_matches_either_direction(self):
        reverse_only = FlowPattern(nw_src="172.16.1.0/24")
        assert not reverse_only.matches(self.key)
        assert reverse_only.matches_either_direction(self.key)

    def test_combined_fields_all_must_match(self):
        pattern = FlowPattern(nw_src="10.1.0.0/16", nw_dst="172.16.0.0/16", tp_dst=80)
        assert pattern.matches(self.key)
        assert not FlowPattern(nw_src="10.1.0.0/16", tp_dst=22).matches(self.key)


class TestFlowPatternRelations:
    def test_equality_and_hash(self):
        a = FlowPattern(nw_src="10.0.0.0/8", tp_dst=80)
        b = FlowPattern(tp_dst=80, nw_src="10.0.0.0/8")
        assert a == b
        assert hash(a) == hash(b)
        assert a != FlowPattern(tp_dst=81, nw_src="10.0.0.0/8")

    def test_as_dict_omits_wildcarded_fields(self):
        pattern = FlowPattern(tp_dst=80)
        assert pattern.as_dict() == {"tp_dst": 80}

    def test_specified_fields_in_canonical_order(self):
        pattern = FlowPattern(tp_dst=80, nw_src="10.0.0.0/8", nw_proto=6)
        assert pattern.specified_fields() == ("nw_proto", "nw_src", "tp_dst")

    def test_exact_key_is_the_one_flow_a_pattern_pins_however_hosts_are_written(self):
        key = FlowKey(6, "10.0.0.1", "192.0.2.10", 12345, 80)
        assert FlowPattern.from_flow(key).exact_key() == key
        assert FlowPattern(6, "10.0.0.1/32", "192.0.2.10/32", 12345, 80).exact_key() == key
        assert FlowPattern(6, "10.0.0.1/32", "192.0.2.10", 12345, 80).pinned_hosts() == ("10.0.0.1", "192.0.2.10")
        # A prefix, or any open field, spans many flows.
        assert FlowPattern(6, "10.0.0.0/24", "192.0.2.10", 12345, 80).exact_key() is None
        assert FlowPattern(6, "10.0.0.1", "192.0.2.10", 12345).exact_key() is None
        assert FlowPattern(nw_src="10.0.0.0/24", nw_dst="192.0.2.10").pinned_hosts() == (None, "192.0.2.10")
        assert FlowPattern.wildcard().exact_key() is None

    def test_reversed_matches_the_opposite_direction_of_the_same_flows(self):
        pattern = FlowPattern(6, "10.0.0.0/24", "192.0.2.10", None, 80)
        assert pattern.reversed() == FlowPattern(6, "192.0.2.10", "10.0.0.0/24", 80, None)
        assert pattern.reversed().reversed() == pattern
        key = FlowKey(6, "10.0.0.7", "192.0.2.10", 4242, 80)
        assert pattern.matches(key) and pattern.reversed().matches(key.reversed())
        assert not pattern.reversed().matches(key)
        assert FlowPattern.wildcard().reversed().is_wildcard
