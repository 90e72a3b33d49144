"""The seed's single-dict per-flow store: the differential oracle of the sharded store.

Moved here verbatim from ``repro.core.state`` — no runtime code path uses it;
``test_state_properties.py`` replays seeded random operation sequences
against it and :class:`repro.core.state.PerFlowStateStore`.
"""

from typing import Callable, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.core.errors import GranularityError
from repro.core.flowspace import FlowKey, FlowPattern

T = TypeVar("T")


class DictPerFlowStateStore(Generic[T]):
    """The pre-shard single-dict store, kept verbatim as a differential oracle.

    This is the seed implementation of :class:`PerFlowStateStore` — one flat
    dict, a source-address-only index when ``indexed=True``, and a full linear
    scan for every partial pattern.  It is *not* used by any runtime code
    path; ``tests/test_state_properties.py`` replays seeded random operation
    sequences against both stores and asserts identical results and identical
    dirty-key drain order, so any behavioural drift in the sharded store is
    caught mechanically rather than by inspection.
    """

    def __init__(
        self,
        granularity: Tuple[str, ...] = ("nw_proto", "nw_src", "nw_dst", "tp_src", "tp_dst"),
        *,
        indexed: bool = False,
    ) -> None:
        self.granularity = tuple(granularity)
        self._entries: Dict[FlowKey, T] = {}
        self._indexed = indexed
        self._by_src: Dict[str, set] = {}
        self.scan_steps = 0
        self._dirty: Dict[FlowKey, int] = {}
        self._dirty_version = 0
        self._tracking_dirty = False
        self._install_rounds: Dict[FlowKey, Tuple[int, ...]] = {}

    @property
    def tracking_dirty(self) -> bool:
        """True while mutations are being recorded for a pre-copy transfer."""
        return self._tracking_dirty

    @property
    def dirty_count(self) -> int:
        """Number of flows dirtied since the last drain (0 when not tracking)."""
        return len(self._dirty)

    def begin_dirty_tracking(self) -> None:
        """Start recording mutated flow keys; clears any previous dirty set."""
        self._tracking_dirty = True
        self._dirty.clear()

    def end_dirty_tracking(self) -> None:
        """Stop recording mutations and drop the dirty set."""
        self._tracking_dirty = False
        self._dirty.clear()

    def mark_dirty(self, key: FlowKey) -> None:
        """Stamp *key* with the next dirty version; no-op unless tracking."""
        if not self._tracking_dirty:
            return
        self._dirty_version += 1
        self._dirty[self.canonical_key(key)] = self._dirty_version

    def dirty_keys(self) -> List[FlowKey]:
        """Currently dirty canonical keys in dirtying order (oldest first)."""
        return sorted(self._dirty, key=self._dirty.__getitem__)

    def drain_dirty(self) -> List[FlowKey]:
        """Return the dirty keys in dirtying order and clear the dirty set."""
        keys = self.dirty_keys()
        self._dirty.clear()
        return keys

    def install_round(self, key: FlowKey, tag: Tuple[int, ...]) -> bool:
        """Record a round-tagged install for *key*; False when the tag is stale."""
        canonical = self.canonical_key(key)
        existing = self._install_rounds.get(canonical)
        if existing is not None and existing > tag:
            return False
        self._install_rounds[canonical] = tag
        return True

    def clear_install_round(self, key: FlowKey) -> None:
        """Forget the install tag for one flow."""
        self._install_rounds.pop(self.canonical_key(key), None)

    def clear_install_rounds(self) -> int:
        """Drop every pre-copy install tag; returns how many were held."""
        count = len(self._install_rounds)
        self._install_rounds.clear()
        return count

    @property
    def install_round_count(self) -> int:
        """Number of flows currently carrying a pre-copy install tag."""
        return len(self._install_rounds)

    def canonical_key(self, key: FlowKey) -> FlowKey:
        """Key under which state for *key* is stored (bidirectional canonical form)."""
        return key.bidirectional()

    def put(self, key: FlowKey, value: T) -> None:
        """Insert or replace the state object for a flow."""
        key = self.canonical_key(key)
        self._entries[key] = value
        self.mark_dirty(key)
        if self._indexed:
            self._by_src.setdefault(key.nw_src, set()).add(key)
            self._by_src.setdefault(key.nw_dst, set()).add(key)

    def get(self, key: FlowKey) -> Optional[T]:
        """Return the state object for a flow, or None when absent."""
        return self._entries.get(self.canonical_key(key))

    def get_or_create(self, key: FlowKey, factory: Callable[[], T]) -> T:
        """Return the state object for a flow, creating it via *factory* if missing."""
        canonical = self.canonical_key(key)
        if canonical not in self._entries:
            self.put(canonical, factory())
        else:
            self.mark_dirty(canonical)
        return self._entries[canonical]

    def remove(self, key: FlowKey) -> Optional[T]:
        """Remove and return the state object for a flow (None when absent)."""
        canonical = self.canonical_key(key)
        value = self._entries.pop(canonical, None)
        self._install_rounds.pop(canonical, None)
        if value is not None:
            self.mark_dirty(canonical)
        if value is not None and self._indexed:
            for address in (canonical.nw_src, canonical.nw_dst):
                keys = self._by_src.get(address)
                if keys is not None:
                    keys.discard(canonical)
                    if not keys:
                        del self._by_src[address]
        return value

    def clear(self) -> None:
        """Drop every entry (with its index and install tag)."""
        self._entries.clear()
        self._by_src.clear()
        self._install_rounds.clear()

    def __len__(self) -> int:
        """Number of per-flow entries in the store."""
        return len(self._entries)

    def __contains__(self, key: FlowKey) -> bool:
        """Whether the store holds state for the flow (canonical form)."""
        return self.canonical_key(key) in self._entries

    def keys(self) -> List[FlowKey]:
        """The stored canonical flow keys (a copy, safe to mutate around)."""
        return list(self._entries.keys())

    def items(self) -> Iterator[Tuple[FlowKey, T]]:
        """Iterate over a snapshot of (canonical key, state object) pairs."""
        return iter(list(self._entries.items()))

    def _check_granularity(self, pattern: FlowPattern) -> None:
        """Reject patterns finer than the middlebox's per-flow granularity."""
        requested = set(pattern.specified_fields())
        available = set(self.granularity)
        finer = requested - available
        if finer:
            raise GranularityError(
                "request is finer than the middlebox's per-flow granularity: "
                f"extra fields {sorted(finer)}; available {sorted(available)}"
            )

    def query(self, pattern: FlowPattern) -> List[Tuple[FlowKey, T]]:
        """Return all (key, value) pairs whose flow matches *pattern*."""
        self._check_granularity(pattern)
        if pattern.is_wildcard:
            self.scan_steps += len(self._entries)
            return list(self._entries.items())
        if self._indexed:
            candidates = self._index_candidates(pattern)
            if candidates is not None:
                self.scan_steps += len(candidates)
                return [
                    (key, self._entries[key])
                    for key in candidates
                    if key in self._entries and pattern.matches_either_direction(key)
                ]
        matches: List[Tuple[FlowKey, T]] = []
        for key, value in self._entries.items():
            self.scan_steps += 1
            if pattern.matches_either_direction(key):
                matches.append((key, value))
        return matches

    def remove_matching(self, pattern: FlowPattern) -> List[Tuple[FlowKey, T]]:
        """Remove and return all entries matching *pattern*."""
        matches = self.query(pattern)
        for key, _ in matches:
            self.remove(key)
        return matches

    def count_matching(self, pattern: FlowPattern) -> int:
        """Number of entries matching *pattern*."""
        return len(self.query(pattern))

    def _index_candidates(self, pattern: FlowPattern) -> Optional[set]:
        """Candidate keys from the source/destination index, or None when unusable."""
        for text in (pattern.as_dict().get("nw_src"), pattern.as_dict().get("nw_dst")):
            if text is not None and "/" not in text:
                return set(self._by_src.get(text, set()))
        return None
