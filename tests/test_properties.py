"""Property-based tests (hypothesis) for core data structures and invariants."""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.flowtable as flowtable_module
from repro.core import crypto
from repro.core.chunks import ChunkCodec, deserialize_payload, serialize_payload
from repro.core.config import HierarchicalConfig
from repro.core.flowspace import FlowKey, FlowPattern, IPv4Prefix, int_to_ip, ip_to_int
from repro.core.state import PerFlowStateStore, StateRole
from repro.middleboxes.monitor import MonitorStats
from repro.middleboxes.re import PacketCache
from repro.net.flowtable import Action, FlowRule, FlowTable
from repro.net.packet import Packet

# -- strategies -----------------------------------------------------------------------------------

ip_addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(int_to_ip)
ports = st.integers(min_value=0, max_value=65535)
protocols = st.sampled_from([1, 6, 17])

flow_keys = st.builds(
    FlowKey,
    nw_proto=protocols,
    nw_src=ip_addresses,
    nw_dst=ip_addresses,
    tp_src=ports,
    tp_dst=ports,
)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=30),
    st.binary(max_size=64),
)
payloads = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


# -- address / pattern properties -------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_ip_int_roundtrip(value):
    assert ip_to_int(int_to_ip(value)) == value


@given(ip_addresses)
def test_memoised_address_parse_equals_the_plain_parse(address):
    assert ip_to_int(address) == ip_to_int.__wrapped__(address)
    assert ip_to_int(address) == ip_to_int.__wrapped__(address)  # now served from the memo


@pytest.mark.parametrize("malformed", ["1.2.3", "256.0.0.1", "a.b.c.d"])
def test_malformed_address_raises_on_every_call(malformed):
    for _ in range(3):  # a failure is never memoised
        with pytest.raises(ValueError):
            ip_to_int(malformed)


@given(ip_addresses, st.integers(min_value=0, max_value=32))
def test_prefix_contains_its_own_network(address, length):
    prefix = IPv4Prefix.parse(f"{address}/{length}")
    assert prefix.contains_ip(int_to_ip(prefix.network))


@given(flow_keys)
def test_flow_key_dict_roundtrip(key):
    assert FlowKey.from_dict(key.as_dict()) == key


@given(flow_keys)
def test_bidirectional_key_is_canonical(key):
    """Both directions of a flow map to the same canonical key, and it is one of the two."""
    canonical = key.bidirectional()
    assert canonical == key.reversed().bidirectional()
    assert canonical in (key, key.reversed())


@given(flow_keys)
def test_fully_specified_pattern_matches_only_its_flow(key):
    pattern = FlowPattern.from_flow(key)
    assert pattern.matches(key)


@given(flow_keys, st.integers(min_value=0, max_value=32))
def test_prefix_pattern_matches_every_flow_inside_it(key, length):
    assert FlowPattern(nw_src=f"{key.nw_src}/{length}").matches(key)


@given(flow_keys)
def test_pattern_dict_roundtrip(key):
    pattern = FlowPattern.from_flow(key)
    assert FlowPattern.parse(pattern.as_dict()) == pattern


# -- sealing and serialisation properties --------------------------------------------------------------


@given(st.binary(max_size=2048))
def test_seal_unseal_roundtrip(data):
    key = crypto.SealingKey.derive("property")
    assert crypto.unseal(key, crypto.seal(key, data)) == data


@given(payloads)
@settings(max_examples=60)
def test_payload_serialisation_roundtrip(payload):
    assert deserialize_payload(serialize_payload(payload)) == payload


@given(payloads, st.booleans())
@settings(max_examples=40)
def test_chunk_codec_roundtrip(payload, compress):
    codec = ChunkCodec.for_mb_type("property-mb", compress=compress)
    key = FlowKey(6, "10.0.0.1", "192.0.2.1", 1, 2)
    chunk = codec.seal_perflow(key, payload, StateRole.SUPPORTING)
    assert codec.unseal_perflow(chunk) == payload


# -- configuration properties -----------------------------------------------------------------------------

config_keys = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=5), min_size=1, max_size=3
).map(".".join)
config_values = st.lists(st.one_of(st.integers(), st.text(max_size=10), st.booleans()), max_size=4)


@given(st.dictionaries(config_keys, config_values, min_size=1, max_size=8))
def test_config_export_import_roundtrip(entries):
    config = HierarchicalConfig()
    written = {}
    for key, values in entries.items():
        # Skip keys that would conflict with an already-written interior/leaf key.
        try:
            config.set(key, values)
        except Exception:
            continue
        written[key] = list(values)
    clone = HierarchicalConfig()
    clone.import_flat(config.export())
    assert clone.export() == config.export()
    for key, values in written.items():
        if config.has(key):
            assert clone.get_values(key) == config.get_values(key)


# -- state store properties ----------------------------------------------------------------------------------


@given(st.lists(flow_keys, min_size=1, max_size=40))
def test_store_query_wildcard_returns_every_entry(keys):
    store = PerFlowStateStore()
    for index, key in enumerate(keys):
        store.put(key, index)
    results = store.query(FlowPattern.wildcard())
    assert len(results) == len({key.bidirectional() for key in keys})


@given(st.lists(flow_keys, min_size=1, max_size=30), st.integers(min_value=0, max_value=32))
def test_store_query_partitions_by_prefix(keys, length):
    """Entries matching a prefix plus entries not matching it account for the whole store."""
    store = PerFlowStateStore()
    for index, key in enumerate(keys):
        store.put(key, index)
    pattern = FlowPattern(nw_src=f"{keys[0].nw_src}/{length}")
    matching = {key for key, _ in store.query(pattern)}
    for key, _ in store.items():
        if key in matching:
            assert pattern.matches_either_direction(key)
        else:
            assert not pattern.matches_either_direction(key)


@given(st.lists(flow_keys, unique=True, min_size=1, max_size=30))
def test_store_remove_matching_then_query_empty(keys):
    store = PerFlowStateStore()
    for index, key in enumerate(keys):
        store.put(key, index)
    removed = store.remove_matching(FlowPattern.wildcard())
    assert len(store) == 0
    assert len(removed) == len({key.bidirectional() for key in keys})


# -- middlebox state-structure properties ---------------------------------------------------------------------


@given(
    st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 10**6)), max_size=5),
    st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 10**6)), max_size=5),
)
def test_monitor_stats_merge_is_commutative_on_counters(a_entries, b_entries):
    a = MonitorStats()
    b = MonitorStats()
    for packets, size in a_entries:
        a.total_packets += packets
        a.total_bytes += size
    for packets, size in b_entries:
        b.total_packets += packets
        b.total_bytes += size
    ab = MonitorStats.merge(a, b)
    ba = MonitorStats.merge(b, a)
    assert ab.total_packets == ba.total_packets == a.total_packets + b.total_packets
    assert ab.total_bytes == ba.total_bytes


@given(st.lists(st.binary(min_size=1, max_size=200), min_size=1, max_size=30))
def test_packet_cache_reads_back_last_insert(contents):
    cache = PacketCache(4096)
    for content in contents:
        offset = cache.insert(content)
        assert cache.read(offset, len(content)) == content


@given(st.lists(st.binary(min_size=1, max_size=120), min_size=1, max_size=40))
def test_packet_cache_clone_equals_original(contents):
    cache = PacketCache(2048)
    for content in contents:
        cache.insert(content)
    assert cache.clone().to_payload() == cache.to_payload()
    assert PacketCache.from_payload(cache.to_payload()).to_payload() == cache.to_payload()


@given(st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=20), st.binary(min_size=1, max_size=64))
def test_identical_insert_sequences_keep_caches_identical(contents, extra):
    """The RE sync invariant: two caches fed the same insert sequence stay byte-identical."""
    a, b = PacketCache(2048), PacketCache(2048)
    for content in contents:
        a.insert(content)
        b.insert(content)
    assert a.to_payload() == b.to_payload()
    a.insert(extra)
    b.insert(extra)
    assert a.to_payload() == b.to_payload()


# -- per-frame fast path: exact-match cache and packet copies ------------------------------------------------

# A small universe, so rules overlap, tie on priority and shadow one another:
# /0, /8, /24 and /32 source prefixes, port and protocol pins, three cookies.
_rule_sources = st.sampled_from([None, "0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/24", "10.0.0.1/32", "10.0.0.1"])
_rule_patterns = st.builds(
    FlowPattern,
    nw_proto=st.sampled_from([None, 6, 17]),
    nw_src=_rule_sources,
    nw_dst=st.sampled_from([None, "10.0.0.0/24", "10.0.0.2"]),
    tp_src=st.sampled_from([None, 1000]),
    tp_dst=st.sampled_from([None, 80]),
)
#: Every lookup probes all of these, so each one is looked up before and after
#: every table change — a cache entry that outlives its invalidation shows.
_PROBES = [
    Packet(nw_src=src, nw_dst=dst, nw_proto=proto, tp_src=tp_src, tp_dst=80)
    for src, dst, proto, tp_src in [
        ("10.0.0.1", "10.0.0.2", 6, 1000),
        ("10.0.0.1", "10.0.0.2", 17, 1000),
        ("10.0.0.1", "10.0.0.3", 6, 1001),
        ("10.0.0.7", "10.0.0.2", 6, 1000),
        ("10.0.9.1", "10.0.0.3", 6, 1001),
        ("11.0.0.1", "12.0.0.1", 17, 1001),
    ]
]
_table_adds = st.tuples(st.just("add"), _rule_patterns, st.sampled_from([50, 100, 100, 200]), st.sampled_from("abc"))
_table_ops = st.one_of(
    _table_adds,
    _table_adds,  # twice: keep tables populated, so removals usually hit a rule some probe resolves to
    st.tuples(st.just("remove_by_cookie"), st.sampled_from("abc")),
)


@given(st.lists(_table_ops, min_size=6, max_size=40), st.sampled_from([1, 4, flowtable_module.EXACT_MATCH_CACHE_LIMIT]))
@settings(max_examples=200, deadline=None)
def test_cached_lookup_returns_the_rule_a_linear_scan_finds(ops, bound):
    """Under any interleaving of mutators and lookups the cached ``lookup``
    returns the very rule object a from-scratch scan would, and the cache
    respects its bound (also when the bound is crossed again and again)."""
    table = FlowTable()
    model = []  # the oracle's own rule list, in installation order

    def check_lookups():
        # Ties go to the later-installed rule: a stable sort of the reversed installation order.
        ordered = sorted(reversed(model), key=lambda r: (-r.priority, -r.pattern.specificity))
        for _ in range(2):  # the second pass is answered from the cache (bound permitting)
            for probe in _PROBES:
                expected = next((rule for rule in ordered if rule.pattern.matches(probe.flow_key())), None)
                assert table.lookup(probe) is expected
                assert len(table._cache) <= bound
        assert len(table.rules()) == len(model)

    with mock.patch.object(flowtable_module, "EXACT_MATCH_CACHE_LIMIT", bound):
        check_lookups()
        for op, *args in ops:
            if op == "add":
                pattern, priority, cookie = args
                model.append(table.add(FlowRule(pattern, [Action.drop()], priority=priority, cookie=cookie)))
            else:
                assert table.remove_by_cookie(args[0]) == sum(rule.cookie == args[0] for rule in model)
                model = [rule for rule in model if rule.cookie != args[0]]
            check_lookups()


_packets = st.builds(
    Packet,
    nw_src=ip_addresses,
    nw_dst=ip_addresses,
    nw_proto=protocols,
    tp_src=ports,
    tp_dst=ports,
    payload=st.binary(max_size=64),
    flags=st.frozensets(st.sampled_from(["SYN", "ACK", "FIN"])),
    seq=st.integers(min_value=0, max_value=2**32),
    created_at=st.floats(min_value=0, max_value=1e6),
    annotations=st.dictionaries(st.text(max_size=6), st.integers() | st.text(max_size=6), max_size=4),
    encoded_size=st.none() | st.integers(min_value=0, max_value=1500),
)


@given(_packets)
def test_packet_copy_carries_every_field(packet):
    first = packet.copy()
    assert first is not packet
    # Iterating the dataclass's own field list: a field added later and not
    # carried across by copy() fails here.
    for field in dataclasses.fields(Packet):
        assert getattr(first, field.name) == getattr(packet, field.name), field.name
    assert vars(first).keys() == vars(packet).keys()
    assert first.annotations is not packet.annotations
    first.annotations["copy-only"] = 1
    packet.annotations["original-only"] = 2
    assert "copy-only" not in packet.annotations and "original-only" not in first.annotations
