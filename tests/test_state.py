"""Unit tests for the state taxonomy and state stores."""

from pathlib import Path

import pytest

from repro.core.errors import GranularityError, StateError
from repro.core.flowspace import FlowKey, FlowPattern
from repro.core.operations import CloneOperation, MergeOperation, MoveOperation
from repro.core.state import (
    AccessMode,
    PerFlowStateStore,
    SharedStateSlot,
    StateRole,
    StateScope,
    TAXONOMY,
    state_class,
)


def key(i: int, src_subnet: str = "10.0.0") -> FlowKey:
    return FlowKey(6, f"{src_subnet}.{i + 1}", "192.0.2.10", 1000 + i, 80)


class TestTaxonomy:
    def test_table1_has_five_classes(self):
        assert len(TAXONOMY) == 5

    def test_configuration_is_shared_and_read_only(self):
        cls = state_class(StateRole.CONFIGURING, StateScope.SHARED)
        assert cls.mb_access is AccessMode.READ
        assert not cls.movable
        assert not cls.cloneable

    def test_supporting_state_read_write(self):
        cls = state_class(StateRole.SUPPORTING, StateScope.PER_FLOW)
        assert cls.mb_access is AccessMode.READ_WRITE
        assert cls.movable and cls.cloneable

    def test_reporting_state_write_only(self):
        cls = state_class(StateRole.REPORTING, StateScope.PER_FLOW)
        assert cls.mb_access is AccessMode.WRITE

    def test_shared_reporting_not_cloneable(self):
        """Cloning shared reporting state would double-report (section 4.1.3)."""
        cls = state_class(StateRole.REPORTING, StateScope.SHARED)
        assert cls.movable
        assert not cls.cloneable

    def test_no_per_flow_configuration_class(self):
        with pytest.raises(StateError):
            state_class(StateRole.CONFIGURING, StateScope.PER_FLOW)

    def test_only_movable_shared_state_is_mergeable(self):
        assert {cell for cell, cls in TAXONOMY.items() if cls.mergeable} == {
            (StateRole.SUPPORTING, StateScope.SHARED),
            (StateRole.REPORTING, StateScope.SHARED),
        }

    def test_the_operations_take_their_roles_from_the_taxonomy(self):
        both = (StateRole.SUPPORTING, StateRole.REPORTING)
        assert (MoveOperation._roles, CloneOperation._roles, MergeOperation._roles) == (both, both[:1], both)

    def test_the_documented_table_states_the_same_flags(self):
        """``docs/state-engine.md`` "State taxonomy": access and movable / cloneable / mergeable per cell."""
        text = (Path(__file__).parent.parent / "docs" / "state-engine.md").read_text()
        rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in text.partition("## State taxonomy")[2].partition("\n### ")[0].splitlines()
            if line.startswith("| ") and not line.startswith("| role")
        ]
        access = {AccessMode.READ: "read", AccessMode.WRITE: "write", AccessMode.READ_WRITE: "read/write"}
        documented = {(row[0], row[1]): (row[2], *(flag.split()[0] == "yes" for flag in row[3:6])) for row in rows}
        assert documented == {
            (role.value, scope.value): (access[cls.mb_access], cls.movable, cls.cloneable, cls.mergeable)
            for (role, scope), cls in TAXONOMY.items()
        }


class TestPerFlowStateStore:
    def test_put_get_remove(self):
        store = PerFlowStateStore()
        store.put(key(0), "value")
        assert store.get(key(0)) == "value"
        assert len(store) == 1
        assert store.remove(key(0)) == "value"
        assert store.get(key(0)) is None

    def test_bidirectional_lookup(self):
        store = PerFlowStateStore()
        store.put(key(0), "value")
        assert store.get(key(0).reversed()) == "value"
        assert key(0).reversed() in store

    def test_get_or_create(self):
        store = PerFlowStateStore()
        created = store.get_or_create(key(1), lambda: {"n": 0})
        created["n"] = 5
        assert store.get_or_create(key(1), lambda: {"n": 0})["n"] == 5

    def test_query_by_pattern(self):
        store = PerFlowStateStore()
        for i in range(10):
            store.put(key(i, "10.0.0" if i < 6 else "10.0.9"), i)
        matches = store.query(FlowPattern(nw_src="10.0.0.0/24"))
        assert len(matches) == 6

    def test_query_wildcard_returns_all(self):
        store = PerFlowStateStore()
        for i in range(5):
            store.put(key(i), i)
        assert len(store.query(FlowPattern.wildcard())) == 5

    def test_query_matches_reverse_direction(self):
        store = PerFlowStateStore()
        store.put(key(0), "v")
        matches = store.query(FlowPattern(nw_src="192.0.2.0/24"))
        assert len(matches) == 1

    def test_granularity_violation_raises(self):
        """Requests finer than the MB's granularity must error (section 4.1.2)."""
        store = PerFlowStateStore(granularity=("nw_proto", "nw_src", "tp_src"))
        store.put(key(0), "v")
        with pytest.raises(GranularityError):
            store.query(FlowPattern(nw_dst="192.0.2.10"))

    def test_coarser_than_granularity_is_allowed(self):
        store = PerFlowStateStore(granularity=("nw_proto", "nw_src", "tp_src"))
        store.put(key(0), "v")
        assert len(store.query(FlowPattern(nw_src="10.0.0.0/24"))) == 1

    def test_remove_matching(self):
        store = PerFlowStateStore()
        for i in range(10):
            store.put(key(i, "10.0.0" if i % 2 == 0 else "10.0.9"), i)
        removed = store.remove_matching(FlowPattern(nw_src="10.0.0.0/24"))
        assert len(removed) == 5
        assert len(store) == 5

    def test_linear_scan_counts_steps(self):
        store = PerFlowStateStore()
        for i in range(20):
            store.put(key(i), i)
        store.scan_steps = 0
        store.query(FlowPattern(nw_src="10.0.0.1"))
        assert store.scan_steps == 20

    def test_indexed_store_scans_fewer_entries(self):
        indexed = PerFlowStateStore(indexed=True)
        for i in range(50):
            indexed.put(key(i), i)
        indexed.scan_steps = 0
        matches = indexed.query(FlowPattern(nw_src="10.0.0.5"))
        assert len(matches) == 1
        assert indexed.scan_steps < 50

    def test_indexed_store_falls_back_for_prefix_queries(self):
        indexed = PerFlowStateStore(indexed=True)
        for i in range(10):
            indexed.put(key(i), i)
        assert len(indexed.query(FlowPattern(nw_src="10.0.0.0/24"))) == 10

    def test_indexed_store_serves_port_only_patterns_from_port_index(self):
        """Regression: a pattern wildcarding the address fields used to force a
        full linear scan on an indexed store (only a source-address index
        existed).  The port index must now bound the scan to its postings."""
        indexed = PerFlowStateStore(indexed=True)
        for i in range(50):
            indexed.put(key(i), i)
        indexed.scan_steps = 0
        matches = indexed.query(FlowPattern(tp_src=1007))
        assert len(matches) == 1
        assert indexed.scan_steps < 50

    def test_indexed_store_picks_smallest_posting_set(self):
        indexed = PerFlowStateStore(indexed=True)
        # 40 flows share a destination port; each has a unique source port.
        for i in range(40):
            indexed.put(FlowKey(6, f"10.1.0.{i + 1}", "192.0.2.10", 5000 + i, 80), i)
        indexed.scan_steps = 0
        matches = indexed.query(FlowPattern(tp_src=5003, tp_dst=80))
        assert len(matches) == 1
        # The unique source port (1 posting) must win over the shared
        # destination port (40 postings).
        assert indexed.scan_steps == 1

    def test_exact_pattern_scans_single_shard_without_index(self):
        """Regression companion: a fully pinned concrete pattern on a plain
        (non-indexed) store is one lookup of its canonical key, not a walk of
        the entries."""
        store = PerFlowStateStore()
        for i in range(320):
            store.put(key(i % 250, src_subnet=f"10.{i // 250}.0"), i)
        total = len(store)
        target = key(7)
        store.scan_steps = 0
        matches = store.query(
            FlowPattern(
                nw_proto=target.nw_proto,
                nw_src=target.nw_src,
                nw_dst=target.nw_dst,
                tp_src=target.tp_src,
                tp_dst=target.tp_dst,
            )
        )
        assert matches == [(target.bidirectional(), 7)]
        assert store.scan_steps == 1 < total

    @staticmethod
    def _two_thousand(store):
        for i in range(2000):
            store.put(FlowKey(6, f"10.0.{i // 250}.{i % 250 + 1}", "192.0.2.10", 1000 + i, 80), i)
        store.scan_steps = 0
        return store

    @pytest.mark.parametrize("suffix", ["", "/32"])
    def test_slash32_five_tuple_scans_one_shard_like_the_bare_spelling(self, suffix):
        """Regression: the store tested ``"/" in text`` where the shard ring
        asked the parsed prefix, so a host written ``a.b.c.d/32`` was homed on
        one shard by the controller and scanned across all 2 000 entries by
        the store.  Both now ask :meth:`FlowPattern.exact_key`, and the store
        answers it with one lookup."""
        store = self._two_thousand(PerFlowStateStore())
        pattern = FlowPattern(6, "10.0.0.6" + suffix, "192.0.2.10" + suffix, 1005, 80)
        assert [value for _, value in store.query(pattern)] == [5]
        assert store.scan_steps == 1
        assert store.query(pattern.reversed()) == store.query(pattern)
        assert store.query(FlowPattern(6, "10.0.0.6" + suffix, "192.0.2.10" + suffix, 1005, 81)) == []

    @pytest.mark.parametrize("suffix", ["", "/32"])
    def test_slash32_host_uses_the_address_index_like_the_bare_spelling(self, suffix):
        """Regression companion on an indexed store: ``nw_src="10.0.0.6/32"``
        fell through the address index to a 2 000-step linear scan."""
        store = self._two_thousand(PerFlowStateStore(indexed=True))
        assert [value for _, value in store.query(FlowPattern(nw_src="10.0.0.6" + suffix))] == [5]
        assert 0 < store.scan_steps <= 2
        # A real prefix still spans many hosts and must not consult the host index.
        assert len(store.query(FlowPattern(nw_src="10.0.0.0/24"))) == 250

    def test_clear(self):
        store = PerFlowStateStore()
        store.put(key(0), 1)
        store.clear()
        assert len(store) == 0

    @pytest.mark.parametrize("indexed", [False, True])
    def test_accounting_refunds_exactly_what_it_charged(self, indexed):
        # Values handed out by get_or_create grow in place (that is what it is
        # for); a refund measured at removal time used to exceed the charge
        # taken at insertion and drive an empty store's entry_bytes negative.
        store = PerFlowStateStore(indexed=indexed)
        store.begin_dirty_tracking()
        for i in range(8):
            record = store.get_or_create(key(i), dict)
            record.update((f"field{n}", n) for n in range(50))
        store.put(key(0), {"replaced": True})  # replacing a grown value refunds it too
        populated = store.memory_stats()
        assert populated.entries == 8 and populated.entry_bytes > 0
        for i in range(8):
            assert store.remove(key(i)) is not None
        store.end_dirty_tracking()
        empty = store.memory_stats()
        assert empty.entries == 0
        assert empty.entry_bytes == 0
        assert empty.total_bytes == 0
        assert empty.peak_total_bytes >= populated.total_bytes

    def test_keys_and_items(self):
        store = PerFlowStateStore()
        store.put(key(0), "a")
        store.put(key(1), "b")
        assert len(list(store.items())) == 2
        assert dict(store.items())[key(0).bidirectional()] == "a"


class CountingKey(FlowKey):
    """A canonical flow key that counts how often any key of its kind is hashed.

    Every key a test puts must be one (a ``FlowKey`` never equals a subclass
    instance) and canonical, so the store keeps the object it was given."""

    __slots__ = ()
    hashes = 0

    def __hash__(self) -> int:
        CountingKey.hashes += 1
        return FlowKey.__hash__(self)


def hashes_of(operation) -> int:
    """Flow-key hashes one call makes."""
    CountingKey.hashes = 0
    operation()
    return CountingKey.hashes


class TestOneDictOperationPerMapPerKey:
    """A store operation hashes the flow key once per map it touches.

    The fixture's fresh flow shares its server address and service port with
    three resident flows (two posting dicts) and has a client address and an
    ephemeral port of its own (two single-key buckets)."""

    @staticmethod
    def indexed_store():
        store = PerFlowStateStore(indexed=True)
        for client in range(3):
            store.put(CountingKey(6, f"10.0.0.{client + 1}", "192.0.2.10", 1000 + client, 80), client)
        return store, CountingKey(6, "10.0.0.9", "192.0.2.10", 1009, 80)

    def test_plain_put_get_remove_hash_once(self):
        store, fresh = PerFlowStateStore(), CountingKey(6, "10.0.0.9", "192.0.2.10", 1009, 80)
        assert hashes_of(lambda: store.put(fresh, 1)) == 1
        assert hashes_of(lambda: store.put(fresh, 2)) == 1
        assert hashes_of(lambda: store.get(fresh)) == 1
        assert hashes_of(lambda: store.remove(fresh)) == 1

    def test_indexed_put_and_remove_hash_once_per_map(self):
        store, fresh = self.indexed_store()
        assert hashes_of(lambda: store.put(fresh, 9)) == 3  # the entry map and two posting dicts
        assert hashes_of(lambda: store.put(fresh, 10)) == 1  # resident already: the index is untouched
        assert hashes_of(lambda: store.remove(fresh)) == 3
        assert store.memory_stats().index_postings == 3 * 4 and len(store) == 3

    def test_an_indexed_scan_candidate_is_one_lookup(self):
        store, fresh = self.indexed_store()
        store.put(fresh, 9)
        pattern = FlowPattern(nw_src=fresh.nw_src)  # the client's one-key bucket: one candidate
        assert hashes_of(lambda: store.query(pattern)) == 1
        assert store.query(pattern) == [(fresh, 9)]

    def test_dirty_tracking_and_install_tags_add_one_each(self):
        store, fresh = self.indexed_store()
        store.begin_dirty_tracking()
        assert hashes_of(lambda: store.put(fresh, 9)) == 4
        assert hashes_of(lambda: store.install_round(fresh, (1, 0))) == 2  # read, then write
        assert hashes_of(lambda: store.remove(fresh)) == 5  # entry, tag, dirt, two posting dicts


def _grown_store() -> PerFlowStateStore:
    """An indexed store at its accounted peak: entries, postings, dirt and tags."""
    store = PerFlowStateStore(indexed=True)
    store.begin_dirty_tracking()
    for i in range(4):
        store.put(key(i), i)
        store.install_round(key(i), (1, i))
    return store


#: Every operation that can shrink the accounted footprint.
SHRINKS = {
    "remove": lambda store: store.remove(key(3)),
    "remove_matching": lambda store: store.remove_matching(FlowPattern(nw_src=key(3).nw_src)),
    "clear": lambda store: store.clear(),
    "begin_dirty_tracking": lambda store: store.begin_dirty_tracking(),
    "end_dirty_tracking": lambda store: store.end_dirty_tracking(),
    "drain_dirty": lambda store: store.drain_dirty(),
    "clear_install_round": lambda store: store.clear_install_round(key(3)),
    "clear_install_rounds": lambda store: store.clear_install_rounds(),
}


@pytest.mark.parametrize("shrink", sorted(SHRINKS))
def test_a_shrink_keeps_the_peak_the_writes_before_it_reached(shrink):
    """Writes do no accounting: the peak is taken before each shrink (and on read)."""
    store = _grown_store()
    peak = store.memory_stats().total_bytes
    SHRINKS[shrink](store)
    stats = store.memory_stats()
    assert stats.total_bytes < peak
    assert stats.peak_total_bytes == peak


class TestSharedStateSlot:
    def test_replace(self):
        slot = SharedStateSlot({"count": 1})
        slot.replace({"count": 5})
        assert slot.value == {"count": 5}

    def test_merge_with_hook(self):
        slot = SharedStateSlot({"count": 1}, merge=lambda a, b: {"count": a["count"] + b["count"]})
        slot.merge_in({"count": 4})
        assert slot.value == {"count": 5}
        assert slot.merge_count == 1

    def test_merge_without_hook_replaces(self):
        slot = SharedStateSlot({"count": 1})
        slot.merge_in({"count": 9})
        assert slot.value == {"count": 9}

    def test_clone_value_default_returns_same_object(self):
        slot = SharedStateSlot({"x": 1})
        assert slot.clone_value() is slot.value
