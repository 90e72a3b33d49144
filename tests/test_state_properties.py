"""Differential property tests: sharded store vs. the single-dict oracle.

The sharded :class:`PerFlowStateStore` replaced the original flat-dict
implementation; :class:`DictPerFlowStateStore` preserves that original code
verbatim as an executable oracle.  These tests drive both implementations with
the same seeded random operation sequences and require identical observable
behaviour: query results, lengths, membership, removal returns, dirty-key
*order*, and install-round verdicts.  Any divergence is a bug in the sharded
engine (or a deliberate semantic change that must be called out explicitly).
"""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.errors import GranularityError
from repro.core.flowspace import FlowKey, FlowPattern
from repro.core.state import PerFlowStateStore

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
        return ("query", canonical_sorted(store.query(pattern)))
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


def run_sequence(seed: int, ops: int, *, indexed: bool, shard_count: int):
    """Drive oracle and sharded store through one identical random sequence."""
    sharded = PerFlowStateStore(indexed=indexed, shard_count=shard_count)
    oracle = DictPerFlowStateStore(indexed=indexed)
    sharded.begin_dirty_tracking()
    oracle.begin_dirty_tracking()
    for step in range(ops):
        rng_a = random.Random(seed * 1_000_003 + step)
        rng_b = random.Random(seed * 1_000_003 + step)
        out_sharded = apply_op(sharded, rng_a)
        out_oracle = apply_op(oracle, rng_b)
        assert out_sharded == out_oracle, f"divergence at step {step} (seed {seed})"
        if step % 97 == 0:
            # Dirty keys must drain in the *same order* from both stores —
            # delta rounds replay them and ordering affects the wire schedule.
            assert sharded.dirty_keys() == oracle.dirty_keys(), f"dirty order @ {step}"
    return sharded, oracle


class TestDifferentialRandomSequences:
    @pytest.mark.parametrize("seed", [1, 7, 42, 1234, 99991])
    def test_sharded_matches_oracle(self, seed):
        sharded, oracle = run_sequence(seed, 600, indexed=False, shard_count=16)
        assert canonical_sorted(sharded.items()) == canonical_sorted(oracle.items())
        assert sorted(sharded.keys()) == sorted(oracle.keys())
        assert sharded.dirty_keys() == oracle.dirty_keys()

    @pytest.mark.parametrize("seed", [3, 17, 2026])
    def test_indexed_sharded_matches_indexed_oracle(self, seed):
        sharded, oracle = run_sequence(seed, 600, indexed=True, shard_count=16)
        assert canonical_sorted(sharded.items()) == canonical_sorted(oracle.items())

    @pytest.mark.parametrize("shard_count", [1, 2, 5, 64])
    def test_shard_count_is_invisible(self, shard_count):
        sharded, oracle = run_sequence(11, 400, indexed=False, shard_count=shard_count)
        assert canonical_sorted(sharded.items()) == canonical_sorted(oracle.items())

    def test_drain_dirty_order_identical(self):
        sharded = PerFlowStateStore()
        oracle = DictPerFlowStateStore()
        rng = random.Random(5)
        keys = [random_key(rng) for _ in range(200)]
        for store in (sharded, oracle):
            store.begin_dirty_tracking()
        for k in keys:
            sharded.put(k, 1)
            oracle.put(k, 1)
        assert sharded.drain_dirty() == oracle.drain_dirty()
        assert sharded.drain_dirty() == oracle.drain_dirty() == []

    def test_remove_matching_identical(self):
        sharded, oracle = run_sequence(23, 300, indexed=False, shard_count=16)
        pattern = FlowPattern(nw_src="10.0.1.0/24")
        assert canonical_sorted(sharded.remove_matching(pattern)) == canonical_sorted(
            oracle.remove_matching(pattern)
        )
        assert len(sharded) == len(oracle)

    def test_granularity_errors_identical(self):
        sharded = PerFlowStateStore(granularity=("nw_src",))
        oracle = DictPerFlowStateStore(granularity=("nw_src",))
        fine = FlowPattern(nw_src="10.0.0.1", tp_src=1000)
        with pytest.raises(GranularityError):
            sharded.query(fine)
        with pytest.raises(GranularityError):
            oracle.query(fine)

    def test_clear_resets_both(self):
        sharded, oracle = run_sequence(31, 200, indexed=True, shard_count=8)
        sharded.clear()
        oracle.clear()
        assert len(sharded) == len(oracle) == 0
        assert canonical_sorted(sharded.query(FlowPattern())) == []
        assert sharded.memory_stats().entry_bytes == 0


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
    """``(by address, by port)``: field value -> the resident keys carrying it."""
    by_src, by_port = {}, {}
    for key in keys:
        for bucket_map, value in ((by_src, key.nw_src), (by_src, key.nw_dst), (by_port, key.tp_src), (by_port, key.tp_dst)):
            bucket_map.setdefault(value, set()).add(key)
    return by_src, by_port


class CompactBucketMachine(RuleBasedStateMachine):
    """An indexed store against the single-dict oracle under the skewed universe."""

    def __init__(self):
        super().__init__()
        self.store = PerFlowStateStore(indexed=True, shard_count=4)
        self.oracle = DictPerFlowStateStore(indexed=True)

    @rule(key=skewed_keys, value=st.integers(0, 9), reverse=st.booleans())
    def put(self, key, value, reverse):
        key = key.reversed() if reverse else key
        self.store.put(key, value)
        self.oracle.put(key, value)

    @rule(key=skewed_keys, reverse=st.booleans())
    def remove(self, key, reverse):
        """By a freshly built key: equal to the one a bucket holds, never that object."""
        key = key.reversed() if reverse else key
        assert self.store.remove(key) == self.oracle.remove(key)

    @rule(pattern=st.sampled_from(PINNED))
    def remove_matching(self, pattern):
        assert canonical_sorted(self.store.remove_matching(pattern)) == canonical_sorted(self.oracle.remove_matching(pattern))

    @rule()
    def clear(self):
        self.store.clear()
        self.oracle.clear()

    @invariant()
    def answers_like_the_oracle(self):
        assert len(self.store) == len(self.oracle)
        for pattern in PINNED:
            assert canonical_sorted(self.store.query(pattern)) == canonical_sorted(self.oracle.query(pattern)), pattern

    @invariant()
    def a_bucket_is_a_key_or_a_set_of_two_or_more(self):
        """Read through the private maps: the one test allowed to know the two shapes."""
        postings = 0
        for actual, expected in zip((self.store._by_src, self.store._by_port), expected_postings(self.store.keys())):
            assert actual.keys() == expected.keys()  # an emptied bucket is gone, not an empty set
            for value, bucket in actual.items():
                if type(bucket) is set:
                    assert len(bucket) >= 2 and bucket == expected[value], value
                else:
                    assert type(bucket) is FlowKey and {bucket} == expected[value], value
                postings += len(expected[value])
        # The oracle indexes source addresses only, so the count is made here:
        # distinct (field value, key) pairs over the resident keys.
        assert self.store.memory_stats().index_postings == postings


CompactBucketMachine.TestCase.settings = settings(max_examples=settings.default.max_examples // 2, stateful_step_count=40, deadline=None)
TestCompactBuckets = CompactBucketMachine.TestCase


def test_a_promoted_bucket_exports_in_the_order_of_a_set_built_by_the_same_insertions():
    """Iteration order of a posting set is chunk export order, i.e. wire order.  A
    bucket that grew 1 -> 2 -> N must iterate as the plain ``set`` the store kept
    before (copied once, as ``_index_candidates`` copies it).  Which of two keys
    comes first depends on insertion order only when they collide in the set's
    table, and string hashes differ per process, so 64 buckets are walked: at
    least one collides (all but 0.02 % of hash seeds)."""
    store = PerFlowStateStore(indexed=True)
    for server in range(64):
        address, plain = f"192.0.2.{server}", set()
        for client in range(12):
            key = FlowKey(6, f"10.{server}.{client}.1", address, 40000 + 64 * client + server, 80)
            store.put(key, client)
            plain.add(store.canonical_key(key))
            assert [key for key, _ in store.query(FlowPattern(nw_dst=address))] == list(set(plain)), (server, client)
