"""Differential property tests: the per-flow store vs. the seed's single-dict oracle.

:class:`DictPerFlowStateStore` preserves the seed's flat-dict store verbatim
as an executable oracle.  These tests drive it and :class:`PerFlowStateStore`
with the same seeded random operation sequences and require identical
observable behaviour: query results *in order* (both stores are one
insertion-ordered dict, so a non-indexed scan lists matches in insertion
order), lengths, membership, removal returns, dirty-key *order*, and
install-round verdicts.  Any divergence is a bug in the store (or a
deliberate semantic change that must be called out explicitly).
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from repro.core.errors import GranularityError
from repro.core.flowspace import FlowKey, FlowPattern
from repro.core.state import (
    DIRTY_SLOT_BYTES,
    ENTRY_SLOT_BYTES,
    INDEX_POSTING_BYTES,
    TAG_SLOT_BYTES,
    VALUE_SLOT_BYTES,
    PerFlowStateStore,
)

from dict_store_oracle import DictPerFlowStateStore

#: Deliberately collision-rich universe so random sequences hit the same flow
#: repeatedly (put-over-put, remove-of-present, reverse-direction lookups).
ADDRS = [f"10.0.{i // 8}.{i % 8 + 1}" for i in range(24)]
PORTS = [1000 + i for i in range(12)]


def random_key(rng: random.Random) -> FlowKey:
    """One random concrete flow key from the small collision-rich universe."""
    return FlowKey(
        nw_proto=rng.choice((6, 17)),
        nw_src=rng.choice(ADDRS),
        nw_dst=rng.choice(ADDRS),
        tp_src=rng.choice(PORTS),
        tp_dst=rng.choice(PORTS),
    )


def random_pattern(rng: random.Random) -> FlowPattern:
    """A random pattern: wildcard, partially pinned, prefixed, or concrete."""
    shape = rng.randrange(5)
    if shape == 0:
        return FlowPattern()
    if shape == 1:
        return FlowPattern(nw_src=rng.choice(ADDRS))
    if shape == 2:
        return FlowPattern(nw_src=f"10.0.{rng.randrange(3)}.0/24")
    if shape == 3:
        return FlowPattern(tp_src=rng.choice(PORTS), nw_proto=rng.choice((6, 17)))
    k = random_key(rng)
    return FlowPattern(
        nw_proto=k.nw_proto,
        nw_src=k.nw_src,
        nw_dst=k.nw_dst,
        tp_src=k.tp_src,
        tp_dst=k.tp_dst,
    )


def canonical_sorted(pairs):
    """Order-insensitive canonical form of a [(FlowKey, value)] result."""
    return sorted(pairs, key=lambda kv: kv[0])


def apply_op(store, rng: random.Random):
    """Apply one random operation to *store*; return its observable outcome.

    The same seeded ``rng`` drives both stores, so both see byte-identical
    operation sequences; the returned outcome tuples are compared directly.
    """
    op = rng.randrange(10)
    if op <= 2:  # put (weighted: populate the store)
        k, v = random_key(rng), rng.randrange(1_000_000)
        store.put(k, v)
        return ("put", len(store))
    if op == 3:
        k = random_key(rng)
        return ("get", store.get(k))
    if op == 4:
        k = random_key(rng)
        return ("remove", store.remove(k), len(store))
    if op == 5:
        k = random_key(rng)
        default = rng.randrange(1_000_000)
        return ("get_or_create", store.get_or_create(k, lambda: default))
    if op == 6:
        pattern = random_pattern(rng)
        matches = store.query(pattern)
        # The oracle's indexed path iterates a ``set``, whose order is the hash seed's.
        return ("query", canonical_sorted(matches) if store._indexed else matches)
    if op == 7:
        k = random_key(rng)
        store.mark_dirty(k)
        return ("mark_dirty", store.dirty_count)
    if op == 8:
        k = random_key(rng)
        tag = (rng.randrange(3), rng.randrange(4))
        return ("install_round", store.install_round(k, tag))
    k = random_key(rng)
    return ("contains", k in store)


def run_sequence(seed: int, ops: int, *, indexed: bool):
    """Drive oracle and store through one identical random sequence."""
    store = PerFlowStateStore(indexed=indexed)
    oracle = DictPerFlowStateStore(indexed=indexed)
    store.begin_dirty_tracking()
    oracle.begin_dirty_tracking()
    for step in range(ops):
        rng_a = random.Random(seed * 1_000_003 + step)
        rng_b = random.Random(seed * 1_000_003 + step)
        out_store = apply_op(store, rng_a)
        out_oracle = apply_op(oracle, rng_b)
        assert out_store == out_oracle, f"divergence at step {step} (seed {seed})"
        if step % 97 == 0:
            # Dirty keys must drain in the *same order* from both stores —
            # delta rounds replay them and ordering affects the wire schedule.
            assert store.dirty_keys() == oracle.dirty_keys(), f"dirty order @ {step}"
    return store, oracle


class TestDifferentialRandomSequences:
    @pytest.mark.parametrize("seed", [1, 7, 42, 1234, 99991])
    def test_store_matches_oracle_in_order(self, seed):
        store, oracle = run_sequence(seed, 600, indexed=False)
        assert list(store.items()) == list(oracle.items())
        assert [key for key, _ in store.items()] == oracle.keys()
        assert store.dirty_keys() == oracle.dirty_keys()

    @pytest.mark.parametrize("seed", [3, 17, 2026])
    def test_indexed_store_matches_indexed_oracle(self, seed):
        store, oracle = run_sequence(seed, 600, indexed=True)
        assert list(store.items()) == list(oracle.items())

    def test_drain_dirty_order_identical(self):
        store = PerFlowStateStore()
        oracle = DictPerFlowStateStore()
        rng = random.Random(5)
        keys = [random_key(rng) for _ in range(200)]
        for either in (store, oracle):
            either.begin_dirty_tracking()
        for k in keys:
            store.put(k, 1)
            oracle.put(k, 1)
        assert store.drain_dirty() == oracle.drain_dirty()
        assert store.drain_dirty() == oracle.drain_dirty() == []

    def test_remove_matching_identical(self):
        store, oracle = run_sequence(23, 300, indexed=False)
        pattern = FlowPattern(nw_src="10.0.1.0/24")
        assert store.remove_matching(pattern) == oracle.remove_matching(pattern)
        assert len(store) == len(oracle)

    def test_granularity_errors_identical(self):
        store = PerFlowStateStore(granularity=("nw_src",))
        oracle = DictPerFlowStateStore(granularity=("nw_src",))
        fine = FlowPattern(nw_src="10.0.0.1", tp_src=1000)
        with pytest.raises(GranularityError):
            store.query(fine)
        with pytest.raises(GranularityError):
            oracle.query(fine)

    def test_clear_resets_both(self):
        store, oracle = run_sequence(31, 200, indexed=True)
        store.clear()
        oracle.clear()
        assert len(store) == len(oracle) == 0
        assert store.query(FlowPattern()) == []
        assert store.memory_stats().entry_bytes == 0


# =========================================================================================
# Compact index buckets: a posting is a key until there are two
# =========================================================================================

#: Skewed on purpose, like a middlebox's flow table: two servers and two service
#: ports name many flows, a client address or an ephemeral port names a few —
#: from universes small enough that every bucket walks 0 -> 1 -> 2 -> 1 -> 0
#: many times in one run.  A client may also pick a service port or talk to
#: itself, so one key can be posted twice under one value.
SERVERS, SERVICES = ["192.0.2.10", "192.0.2.11"], [80, 443]
CLIENTS = [f"10.1.0.{host}" for host in range(1, 7)]
EPHEMERAL = [40000, 40001, 40002, 40003, 80]
skewed_keys = st.builds(
    FlowKey,
    nw_proto=st.just(6),
    nw_src=st.sampled_from(CLIENTS),
    nw_dst=st.sampled_from(SERVERS + CLIENTS[:2]),
    tp_src=st.sampled_from(EPHEMERAL),
    tp_dst=st.sampled_from(SERVICES),
)
PINNED = (
    [FlowPattern(nw_dst=address) for address in SERVERS]
    + [FlowPattern(nw_src=address) for address in CLIENTS]
    + [FlowPattern(tp_dst=port) for port in SERVICES]
    + [FlowPattern(tp_src=port) for port in EPHEMERAL]
    + [FlowPattern(nw_src="10.1.0.0/30"), FlowPattern(nw_dst="192.0.2.10", tp_src=40001)]
)


def expected_postings(keys):
    """``(by address, by port)``: field value -> the resident keys carrying it, in insertion order."""
    by_src, by_port = {}, {}
    for key in keys:
        for bucket_map, value in ((by_src, key.nw_src), (by_src, key.nw_dst), (by_port, key.tp_src), (by_port, key.tp_dst)):
            bucket = bucket_map.setdefault(value, [])
            if key not in bucket:
                bucket.append(key)
    return by_src, by_port


def in_insertion_order(oracle, pattern):
    """The oracle's entries matching *pattern*, in the order they entered it."""
    return [(key, value) for key, value in oracle.items() if pattern.matches_either_direction(key)]


class CompactBucketMachine(RuleBasedStateMachine):
    """An indexed store against the single-dict oracle under the skewed universe.

    Dirty tracking and install tags run too, so every site where the accounted
    footprint shrinks is stepped through; the memory snapshot is checked field
    by field against counts made here, its peak against the running maximum
    of the total this machine recomputes after every step.  (The oracle's
    indexed scan iterates a ``set``, so dirty keys it drains after a
    ``remove_matching`` compare as sets.)  Per-key rules draw a key once put
    (or tagged) as often as a fresh one, so removes and tag clears mostly hit.
    """

    keys = Bundle("keys")

    def __init__(self):
        super().__init__()
        self.store = PerFlowStateStore(indexed=True)
        self.oracle = DictPerFlowStateStore(indexed=True)
        self.peak = 0

    @rule(target=keys, key=skewed_keys, value=st.integers(0, 9), reverse=st.booleans())
    def put(self, key, value, reverse):
        key = key.reversed() if reverse else key
        self.store.put(key, value)
        self.oracle.put(key, value)
        return key

    @rule(key=st.one_of(keys, skewed_keys), reverse=st.booleans())
    def remove(self, key, reverse):
        """By a freshly built key: equal to the one a bucket holds, never that object."""
        key = key.reversed() if reverse else dataclasses.replace(key)
        assert self.store.remove(key) == self.oracle.remove(key)

    @rule(pattern=st.sampled_from(PINNED))
    def remove_matching(self, pattern):
        expected = in_insertion_order(self.oracle, pattern)
        assert self.store.remove_matching(pattern) == expected
        assert canonical_sorted(self.oracle.remove_matching(pattern)) == canonical_sorted(expected)

    @rule()
    def clear(self):
        self.store.clear()
        self.oracle.clear()

    @rule()
    def begin_dirty_tracking(self):
        self.store.begin_dirty_tracking()
        self.oracle.begin_dirty_tracking()

    @rule()
    def end_dirty_tracking(self):
        self.store.end_dirty_tracking()
        self.oracle.end_dirty_tracking()

    @rule(key=st.one_of(keys, skewed_keys))
    def mark_dirty(self, key):
        self.store.mark_dirty(key)
        self.oracle.mark_dirty(key)

    @rule()
    def drain_dirty(self):
        assert sorted(self.store.drain_dirty()) == sorted(self.oracle.drain_dirty())

    @rule(target=keys, key=st.one_of(keys, skewed_keys), tag=st.tuples(st.integers(0, 2), st.integers(0, 3)))
    def install_round(self, key, tag):
        assert self.store.install_round(key, tag) == self.oracle.install_round(key, tag)
        return key

    @rule(key=st.one_of(keys, skewed_keys))
    def clear_install_round(self, key):
        self.store.clear_install_round(key)
        self.oracle.clear_install_round(key)

    @rule()
    def clear_install_rounds(self):
        assert self.store.clear_install_rounds() == self.oracle.clear_install_rounds()

    @invariant()
    def accounts_memory_field_by_field(self):
        """The snapshot is population counts times slot constants, and its peak is
        the highest total any step left behind — however many writes went by
        unaccounted in between."""
        entries, dirty, tags = len(self.oracle), self.oracle.dirty_count, self.oracle.install_round_count
        # The oracle indexes source addresses only, so the postings are counted
        # here: distinct (field value, key) pairs over the resident keys.
        postings = sum(len(bucket) for index in expected_postings(self.oracle.keys()) for bucket in index.values())
        entry_bytes, dirty_bytes = entries * (ENTRY_SLOT_BYTES + VALUE_SLOT_BYTES), dirty * DIRTY_SLOT_BYTES
        tag_bytes, index_bytes = tags * TAG_SLOT_BYTES, postings * INDEX_POSTING_BYTES
        total = entry_bytes + dirty_bytes + tag_bytes + index_bytes
        self.peak = max(self.peak, total)
        assert self.store.memory_stats().as_dict() == dict(
            entries=entries,
            entry_bytes=entry_bytes,
            dirty_entries=dirty,
            dirty_bytes=dirty_bytes,
            install_tags=tags,
            install_tag_bytes=tag_bytes,
            index_postings=postings,
            index_bytes=index_bytes,
            peak_total_bytes=self.peak,
            total_bytes=total,
        )

    @invariant()
    def answers_like_the_oracle_in_insertion_order(self):
        """A bucket lists its keys in the order they entered the store, so an indexed
        query yields its candidates in the order a linear scan of the oracle does."""
        assert len(self.store) == len(self.oracle)
        for pattern in PINNED:
            matches = self.store.query(pattern)
            assert matches == in_insertion_order(self.oracle, pattern), pattern
            assert canonical_sorted(matches) == canonical_sorted(self.oracle.query(pattern)), pattern

    @invariant()
    def a_bucket_is_a_key_or_an_ordered_dict_of_two_or_more(self):
        """Read through the private maps: the one test allowed to know the two shapes."""
        for actual, expected in zip((self.store._by_src, self.store._by_port), expected_postings(self.oracle.keys())):
            assert actual.keys() == expected.keys()  # an emptied bucket is gone, not an empty dict
            for value, bucket in actual.items():
                if type(bucket) is dict:
                    assert len(bucket) >= 2 and list(bucket) == expected[value], value
                else:
                    assert type(bucket) is FlowKey and [bucket] == expected[value], value


CompactBucketMachine.TestCase.settings = settings(max_examples=settings.default.max_examples // 2, stateful_step_count=40, deadline=None)
TestCompactBuckets = CompactBucketMachine.TestCase


def test_a_promoted_bucket_exports_in_insertion_order():
    """Iteration order of a posting bucket is chunk export order, i.e. wire order.  A
    bucket that grew 1 -> 2 -> N, lost keys and gained them back must list its keys
    in the order they (last) entered the store — never in a ``set``'s order, which
    string hashing makes differ from process to process."""
    store = PerFlowStateStore(indexed=True)
    for server in range(64):
        address, order = f"192.0.2.{server}", []
        for client in range(12):
            key = FlowKey(6, f"10.{server}.{client}.1", address, 40000 + 64 * client + server, 80)
            store.put(key if client % 2 else key.reversed(), client)
            order.append(store.canonical_key(key))
            if client % 5 == 4:  # out and back in: it moves to the end
                store.remove(order[1])
                store.put(order[1], 1)
                order.append(order.pop(1))
            assert [key for key, _ in store.query(FlowPattern(nw_dst=address))] == order, (server, client)
            assert [key for key, _ in store.query(FlowPattern(tp_dst=80))][-len(order):] == order


def _twin_stores(indexed, puts, tags, orphans, tracking, earlier_dirt):
    """Two stores built by the same calls: resident flows, install tags (some on
    flows never resident, as a failed unseal leaves them), and earlier dirt."""
    stores = []
    for _ in range(2):
        store = PerFlowStateStore(indexed=indexed)
        if tracking:
            store.begin_dirty_tracking()
        for index, (key, value) in enumerate(puts):
            store.put(key, value)
            if index in tags:
                store.install_round(key, (1, index))
        for key in orphans:
            if key not in store:
                store.install_round(key, (2, 0))
        for key in earlier_dirt:
            store.mark_dirty(key)
        stores.append(store)
    return stores


@settings(deadline=None)
@given(
    indexed=st.booleans(),
    puts=st.lists(st.tuples(skewed_keys, st.integers(0, 9)), max_size=40),
    tags=st.sets(st.integers(0, 39)),
    orphans=st.lists(skewed_keys, max_size=4),
    tracking=st.booleans(),
    earlier_dirt=st.lists(skewed_keys, max_size=6),
)
def test_a_wildcard_delete_leaves_what_per_key_removes_leave(indexed, puts, tags, orphans, tracking, earlier_dirt):
    """The bulk ``clear`` behind a wildcard ``remove_matching`` is the per-key ``remove`` loop, observably."""
    bulk, per_key = _twin_stores(indexed, puts, tags, orphans, tracking, earlier_dirt)
    removed = bulk.remove_matching(FlowPattern.wildcard())
    matches = per_key.query(FlowPattern.wildcard())
    for key, _ in matches:
        per_key.remove(key)
    assert removed == matches
    assert len(bulk) == len(per_key) == 0 and list(bulk.items()) == list(per_key.items())
    assert bulk.memory_stats().as_dict() == per_key.memory_stats().as_dict()
    assert bulk.dirty_keys() == per_key.dirty_keys()
    assert bulk.install_round_count == per_key.install_round_count
    assert bulk._install_rounds == per_key._install_rounds
    assert bulk.scan_steps == per_key.scan_steps
    assert (bulk._by_src, bulk._by_port) == (per_key._by_src, per_key._by_port)
    for key, value in puts[:5]:
        bulk.put(key, value)
        per_key.put(key, value)
    for pattern in PINNED:
        assert bulk.query(pattern) == per_key.query(pattern), pattern
