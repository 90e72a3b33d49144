"""Middlebox state taxonomy and state stores.

Section 3.1 of the paper classifies middlebox state along two dimensions:

* its *role* — configuring, supporting, or reporting; and
* its *partitioning* — per-flow or shared.

and notes which roles the middlebox itself reads and/or writes (Table 1).

This module encodes that taxonomy and provides the two state containers that
every OpenMB-enabled middlebox uses internally:

* :class:`PerFlowStateStore` — native per-flow state objects indexed by
  :class:`~repro.core.flowspace.FlowKey`, queried by
  :class:`~repro.core.flowspace.FlowPattern`.  The store is **sharded**: the
  entries live in an array of hash shards keyed by the canonical flow token
  (the same token :class:`~repro.core.sharding.ShardRing` hashes), so a fully
  specified query touches one shard instead of the whole store, and iteration
  for streaming export proceeds shard by shard with bounded transient memory.
  Optional per-field secondary indexes (``indexed=True``) generalise the
  original source-address index to destination addresses and ports — the
  "wildcard match techniques" the paper suggests as an improvement.  The store
  also keeps byte-level memory accounting (:class:`StoreMemoryStats`) so a
  million-flow transfer can assert its resident and peak footprint.
* :class:`SharedStateSlot` — a single shared state object with the merge hook
  supplied by the middlebox.

The taxonomy is the code: a middlebox declares which native type it keeps in
each :data:`TAXONOMY` cell, and :class:`StateClass` is where the controller's
operations read which cells a move, a clone or a merge may act on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Collection, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from .errors import GranularityError, StateError
from .flowspace import FlowKey, FlowPattern
from .sharding import stable_hash as _stable_hash

T = TypeVar("T")


class StateRole(enum.Enum):
    """The purpose a piece of middlebox state serves (paper Table 1)."""

    CONFIGURING = "configuring"
    SUPPORTING = "supporting"
    REPORTING = "reporting"


class StateScope(enum.Enum):
    """Whether a piece of state applies to one flow or to all traffic."""

    PER_FLOW = "per-flow"
    SHARED = "shared"


class AccessMode(enum.Flag):
    """Which operations the middlebox's own logic performs on the state."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    READ_WRITE = READ | WRITE


@dataclass(frozen=True)
class StateClass:
    """One cell of the taxonomy: a role, a scope, and the MB's access mode."""

    role: StateRole
    scope: StateScope
    mb_access: AccessMode

    @property
    def movable(self) -> bool:
        """Whether the controller may relocate this state between instances.

        Configuration state is owned by the controller (it is written, not
        moved); supporting and reporting state are what move/clone/merge act on.
        """
        return self.role is not StateRole.CONFIGURING

    @property
    def cloneable(self) -> bool:
        """Whether cloning is safe.

        Shared *reporting* state must not be cloned (double reporting, paper
        section 4.1.3); every other movable class may be cloned.
        """
        if not self.movable:
            return False
        return not (self.role is StateRole.REPORTING and self.scope is StateScope.SHARED)

    @property
    def mergeable(self) -> bool:
        """Whether ``mergeInternal`` combines this state: every movable *shared* class.

        Per-flow state is never merged — it is partitioned by flow, so it moves.
        """
        return self.movable and self.scope is StateScope.SHARED


#: The taxonomy of paper Table 1, keyed by (role, scope).
TAXONOMY: Dict[Tuple[StateRole, StateScope], StateClass] = {
    (StateRole.CONFIGURING, StateScope.SHARED): StateClass(
        StateRole.CONFIGURING, StateScope.SHARED, AccessMode.READ
    ),
    (StateRole.SUPPORTING, StateScope.PER_FLOW): StateClass(
        StateRole.SUPPORTING, StateScope.PER_FLOW, AccessMode.READ_WRITE
    ),
    (StateRole.SUPPORTING, StateScope.SHARED): StateClass(
        StateRole.SUPPORTING, StateScope.SHARED, AccessMode.READ_WRITE
    ),
    (StateRole.REPORTING, StateScope.PER_FLOW): StateClass(
        StateRole.REPORTING, StateScope.PER_FLOW, AccessMode.WRITE
    ),
    (StateRole.REPORTING, StateScope.SHARED): StateClass(
        StateRole.REPORTING, StateScope.SHARED, AccessMode.WRITE
    ),
}


def state_class(role: StateRole, scope: StateScope) -> StateClass:
    """Look up the taxonomy entry for a role/scope combination."""
    try:
        return TAXONOMY[(role, scope)]
    except KeyError:
        raise StateError(f"no taxonomy entry for {role.value} / {scope.value}") from None


@dataclass(slots=True)
class StateChunk:
    """A unit of exported state: a flow key (per-flow state) and a sealed value blob.

    This is the ``[HeaderFieldList : EncryptedChunk]`` pair of the paper's
    southbound API.  The blob is opaque to the controller; all it sees of a
    chunk are the flow key, the role, and the blob size.  A chunk of
    *shared* state — one blob for the whole middlebox — is a chunk whose
    ``key`` is ``None``.
    """

    key: Optional[FlowKey]
    role: StateRole
    blob: bytes

    @property
    def size(self) -> int:
        """Size of the sealed blob in bytes."""
        return len(self.blob)


#: Default number of hash shards in a :class:`PerFlowStateStore`.  Enough to
#: keep any single shard's scan bounded without making tiny stores pay for an
#: array of empty dicts.
DEFAULT_SHARD_COUNT = 16

#: Accounted overhead per resident entry beyond the value object itself: the
#: canonical ``FlowKey`` (slotted, five fields) plus its shard-dict slot.
ENTRY_SLOT_BYTES = 176
#: Accounted size of one resident value: a small native state object (a dict
#: header with its first key table plus a few short members on CPython 3.11).
#: A constant, so an entry is refunded exactly what it was charged however the
#: object grew in place in between.
VALUE_SLOT_BYTES = 350
#: Accounted overhead per dirty-set entry (key reference, version int, slot).
DIRTY_SLOT_BYTES = 120
#: Accounted overhead per pre-copy install tag (key reference, tuple, slot).
TAG_SLOT_BYTES = 168
#: Accounted overhead per secondary-index posting (a bucket-map slot holding the
#: key itself, or a set member plus its share of the set and that slot).
INDEX_POSTING_BYTES = 96

#: Sentinel distinguishing "absent" from a stored ``None`` value inside shard
#: lookups, so accounting and dirty marks stay exact even for falsy objects.
_MISSING = object()


@dataclass(frozen=True)
class StoreMemoryStats:
    """Byte-level accounting snapshot of one :class:`PerFlowStateStore`.

    All byte figures are *accounted* estimates — a per-slot constant times a
    population count — so reading them is O(1) and removing everything always
    returns them to zero.  ``peak_total_bytes`` is the high-water mark of
    ``total_bytes`` over the store's lifetime — the number the million-flow
    tier bounds against resident state size.
    """

    #: Resident per-flow entries.
    entries: int
    #: Accounted bytes of resident entries (keys, slots, values).
    entry_bytes: int
    #: Flows currently in the dirty set (pre-copy tracking).
    dirty_entries: int
    #: Accounted bytes of the dirty set.
    dirty_bytes: int
    #: Flows carrying a pre-copy install-round tag.
    install_tags: int
    #: Accounted bytes of the install-tag map.
    install_tag_bytes: int
    #: Secondary-index postings (0 unless the store was built ``indexed=True``).
    index_postings: int
    #: Accounted bytes of the secondary indexes.
    index_bytes: int
    #: Number of hash shards the entries are spread over.
    shard_count: int
    #: Lifetime high-water mark of :attr:`total_bytes`.
    peak_total_bytes: int

    @property
    def total_bytes(self) -> int:
        """Current accounted footprint: entries + dirty set + tags + indexes."""
        return self.entry_bytes + self.dirty_bytes + self.install_tag_bytes + self.index_bytes


class PerFlowStateStore(Generic[T]):
    """Sharded per-flow state objects indexed by flow key.

    The store records which header fields the owning middlebox uses to
    identify per-flow state (its *granularity*); queries at a finer
    granularity raise :class:`GranularityError`, as required by the paper.

    Entries live in ``shard_count`` hash shards keyed by the canonical flow
    token (:meth:`~repro.core.flowspace.FlowKey.token`, which the shard ring
    also hashes with :func:`~repro.core.sharding.stable_hash`, so placement is
    stable across processes).  Pattern lookups scan shard by shard — the same
    linear cost as the paper's prototype for partial patterns on a default
    store — but a fully specified concrete pattern is routed to its single
    owning shard, and ``indexed=True`` additionally maintains per-field
    secondary indexes (source/destination address and source/destination
    port), generalising the original source-address-only index.

    The store also supports **versioned dirty-key tracking** for iterative
    pre-copy transfers: between :meth:`begin_dirty_tracking` and
    :meth:`end_dirty_tracking`, every mutation (:meth:`put`,
    :meth:`get_or_create` — whose returned object the caller typically mutates
    in place — and :meth:`remove`) stamps the flow's canonical key with a
    monotonically increasing version.  :meth:`drain_dirty` hands the dirtied
    keys to a delta round in dirtying order and clears them, so the next round
    starts from a clean slate.  Dirty tracking is O(affected): nothing in the
    drain path touches the resident entry population.

    Byte-level memory accounting is per-slot constants times population
    counts; :meth:`memory_stats` returns an O(1) snapshot including the
    lifetime peak, which every mutation keeps up to date.
    """

    def __init__(
        self,
        granularity: Tuple[str, ...] = ("nw_proto", "nw_src", "nw_dst", "tp_src", "tp_dst"),
        *,
        indexed: bool = False,
        shard_count: int = DEFAULT_SHARD_COUNT,
    ) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.granularity = tuple(granularity)
        self.shard_count = shard_count
        self._shards: List[Dict[FlowKey, T]] = [{} for _ in range(shard_count)]
        self._count = 0
        self._indexed = indexed
        #: Address index: nw_src *and* nw_dst of every canonical key map to it.
        #: A bucket is one ``FlowKey`` or a ``set`` of two or more (``_index_add``).
        self._by_src: Dict[str, object] = {}
        #: Port index: tp_src and tp_dst of every canonical key map to it.
        self._by_port: Dict[int, object] = {}
        self._index_postings = 0
        #: Linear-scan step counter; exposed so benchmarks can verify the
        #: access pattern without timing noise.
        self.scan_steps = 0
        #: Dirty-key tracking (pre-copy transfers): canonical key -> version.
        self._dirty: Dict[FlowKey, int] = {}
        self._dirty_version = 0
        self._tracking_dirty = False
        #: Pre-copy install ordering at a destination: canonical key -> the
        #: round tag of the last tagged install; pruned with the entry itself.
        self._install_rounds: Dict[FlowKey, Tuple[int, ...]] = {}
        self._peak_total_bytes = 0

    # -- sharding --------------------------------------------------------------

    def _shard_index(self, canonical: FlowKey) -> int:
        """Owning shard of a canonical key (stable token hash, as the ring's)."""
        if self.shard_count == 1:
            return 0
        return _stable_hash(canonical.token()) % self.shard_count

    def _shard_of(self, canonical: FlowKey) -> Dict[FlowKey, T]:
        """The shard dict holding (or destined to hold) *canonical*."""
        return self._shards[self._shard_index(canonical)]

    # -- memory accounting -----------------------------------------------------

    def _current_total_bytes(self) -> int:
        """Current accounted footprint across entries, dirt, tags, indexes."""
        return (
            self._count * (ENTRY_SLOT_BYTES + VALUE_SLOT_BYTES)
            + len(self._dirty) * DIRTY_SLOT_BYTES
            + len(self._install_rounds) * TAG_SLOT_BYTES
            + self._index_postings * INDEX_POSTING_BYTES
        )

    def _note_memory(self) -> None:
        """Update the lifetime peak after a mutation."""
        total = self._current_total_bytes()
        if total > self._peak_total_bytes:
            self._peak_total_bytes = total

    def memory_stats(self) -> StoreMemoryStats:
        """O(1) snapshot of the store's accounted memory footprint."""
        return StoreMemoryStats(
            entries=self._count,
            entry_bytes=self._count * (ENTRY_SLOT_BYTES + VALUE_SLOT_BYTES),
            dirty_entries=len(self._dirty),
            dirty_bytes=len(self._dirty) * DIRTY_SLOT_BYTES,
            install_tags=len(self._install_rounds),
            install_tag_bytes=len(self._install_rounds) * TAG_SLOT_BYTES,
            index_postings=self._index_postings,
            index_bytes=self._index_postings * INDEX_POSTING_BYTES,
            shard_count=self.shard_count,
            peak_total_bytes=max(self._peak_total_bytes, self._current_total_bytes()),
        )

    # -- dirty tracking --------------------------------------------------------

    @property
    def tracking_dirty(self) -> bool:
        """True while mutations are being recorded for a pre-copy transfer."""
        return self._tracking_dirty

    @property
    def dirty_count(self) -> int:
        """Number of flows dirtied since the last drain (0 when not tracking)."""
        return len(self._dirty)

    def begin_dirty_tracking(self) -> None:
        """Start recording mutated flow keys; clears any previous dirty set.

        Called at the instant a pre-copy bulk get snapshots the store, so every
        later mutation is guaranteed to be either in the snapshot or dirty.
        """
        self._tracking_dirty = True
        self._dirty.clear()

    def end_dirty_tracking(self) -> None:
        """Stop recording mutations and drop the dirty set (transfer froze)."""
        self._tracking_dirty = False
        self._dirty.clear()

    def mark_dirty(self, key: FlowKey) -> None:
        """Stamp *key* with the next dirty version; no-op unless tracking.

        Middleboxes call this for flows a packet updated in place (mutating an
        object previously handed out by :meth:`get` / :meth:`get_or_create`
        leaves no store-level trace, so the data plane reports those updates
        explicitly via ``ProcessResult.updated_flows``).
        """
        if not self._tracking_dirty:
            return
        self._dirty_version += 1
        self._dirty[self.canonical_key(key)] = self._dirty_version
        self._note_memory()

    def dirty_keys(self) -> List[FlowKey]:
        """Currently dirty canonical keys in dirtying order (oldest first)."""
        return sorted(self._dirty, key=self._dirty.__getitem__)

    def drain_dirty(self) -> List[FlowKey]:
        """Return the dirty keys in dirtying order and clear the dirty set.

        A delta round exports exactly these flows; anything dirtied after the
        drain lands in the next round's set.
        """
        keys = self.dirty_keys()
        self._dirty.clear()
        return keys

    # -- pre-copy install ordering (destination side) --------------------------

    def install_round(self, key: FlowKey, tag: Tuple[int, ...]) -> bool:
        """Record a round-tagged install for *key*; False when the tag is stale.

        Tags are (operation id, round index) pairs compared lexicographically,
        so a later round — or any later operation — supersedes an earlier one.
        A stale tag leaves the recorded state untouched and the caller must
        discard the corresponding chunk.  Entries live and die with the flow's
        state: :meth:`remove` and :meth:`clear` prune them, which keeps the
        map bounded by the store's resident flows.
        """
        canonical = self.canonical_key(key)
        existing = self._install_rounds.get(canonical)
        if existing is not None and existing > tag:
            return False
        self._install_rounds[canonical] = tag
        self._note_memory()
        return True

    def clear_install_round(self, key: FlowKey) -> None:
        """Forget the install tag for one flow (its transfer involvement ended)."""
        self._install_rounds.pop(self.canonical_key(key), None)

    def clear_install_rounds(self) -> int:
        """Drop every pre-copy install tag (crash/teardown cleanup); returns count.

        Used when the instance's transfer involvement ends wholesale — the
        middlebox crashed or was unregistered mid-transfer — so no orphaned
        ``(op_id, round)`` tags survive an operation that will never release
        them."""
        count = len(self._install_rounds)
        self._install_rounds.clear()
        return count

    @property
    def install_round_count(self) -> int:
        """Number of flows currently carrying a pre-copy install tag."""
        return len(self._install_rounds)

    # -- mutation --------------------------------------------------------------

    def canonical_key(self, key: FlowKey) -> FlowKey:
        """Key under which state for *key* is stored (bidirectional canonical form)."""
        return key.bidirectional()

    def _index_fields(self, canonical: FlowKey) -> Tuple[Tuple[dict, object], ...]:
        """The four (bucket map, field value) pairs a canonical key is posted under."""
        by_src, by_port = self._by_src, self._by_port
        return (
            (by_src, canonical.nw_src),
            (by_src, canonical.nw_dst),
            (by_port, canonical.tp_src),
            (by_port, canonical.tp_dst),
        )

    def _index_add(self, canonical: FlowKey) -> None:
        """Add a freshly inserted canonical key to every secondary index.

        A bucket is the key itself while its value names one flow — a client
        address, an ephemeral port: nearly all of them — and becomes a ``set``
        when a second posting arrives.  The resident key goes in first, so the
        set iterates (and a move exports) as one built by the same insertions.
        """
        for bucket_map, value in self._index_fields(canonical):
            bucket = bucket_map.get(value)
            if bucket is None:
                bucket_map[value] = canonical
            elif bucket is canonical or (type(bucket) is set and canonical in bucket):
                # Posted a moment ago: one value in two fields (tp_src == tp_dst).
                # A fresh key is in no bucket otherwise, so identity is enough.
                continue
            elif type(bucket) is set:
                bucket.add(canonical)
            else:
                bucket_map[value] = {bucket, canonical}
            self._index_postings += 1

    def _index_discard(self, canonical: FlowKey) -> None:
        """Remove a deleted canonical key from every secondary index."""
        for bucket_map, value in self._index_fields(canonical):
            bucket = bucket_map.get(value)
            if type(bucket) is set and canonical in bucket:
                bucket.discard(canonical)
                if len(bucket) == 1:
                    (bucket_map[value],) = bucket
            elif bucket is canonical or (type(bucket) is FlowKey and bucket == canonical):
                del bucket_map[value]
            else:
                continue  # already gone: one value in two fields
            self._index_postings -= 1

    @staticmethod
    def _postings(bucket_map: dict, value: object) -> Collection[FlowKey]:
        """The postings of one field value, whichever of the two shapes its bucket has."""
        bucket = bucket_map.get(value, ())
        return (bucket,) if type(bucket) is FlowKey else bucket

    def put(self, key: FlowKey, value: T) -> None:
        """Insert or replace the state object for a flow."""
        key = self.canonical_key(key)
        shard = self._shard_of(key)
        if key not in shard:
            self._count += 1
            if self._indexed:
                self._index_add(key)
        shard[key] = value
        self.mark_dirty(key)
        self._note_memory()

    def get(self, key: FlowKey) -> Optional[T]:
        """Return the state object for a flow, or None when absent."""
        canonical = self.canonical_key(key)
        return self._shard_of(canonical).get(canonical)

    def get_or_create(self, key: FlowKey, factory: Callable[[], T]) -> T:
        """Return the state object for a flow, creating it via *factory* if missing.

        Counts as a mutation for dirty tracking even when the object already
        exists: callers use this accessor precisely to update the returned
        object in place.
        """
        canonical = self.canonical_key(key)
        shard = self._shard_of(canonical)
        existing = shard.get(canonical, _MISSING)
        if existing is _MISSING:
            self.put(canonical, factory())
            return shard[canonical]
        self.mark_dirty(canonical)
        return existing

    def remove(self, key: FlowKey) -> Optional[T]:
        """Remove and return the state object for a flow (None when absent)."""
        canonical = self.canonical_key(key)
        shard = self._shard_of(canonical)
        value = shard.pop(canonical, _MISSING)
        self._install_rounds.pop(canonical, None)
        if value is _MISSING:
            return None
        self._count -= 1
        self.mark_dirty(canonical)
        if self._indexed:
            self._index_discard(canonical)
        self._note_memory()
        return value

    def clear(self) -> None:
        """Drop every entry (with its index and install tag); dirty tracking is unaffected."""
        for shard in self._shards:
            shard.clear()
        self._count = 0
        self._by_src.clear()
        self._by_port.clear()
        self._index_postings = 0
        self._install_rounds.clear()

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        """Number of per-flow entries in the store."""
        return self._count

    def __contains__(self, key: FlowKey) -> bool:
        """Whether the store holds state for the flow (canonical form)."""
        canonical = self.canonical_key(key)
        return canonical in self._shard_of(canonical)

    def items(self) -> Iterator[Tuple[FlowKey, T]]:
        """Iterate over a snapshot of (canonical key, state object) pairs."""
        collected: List[Tuple[FlowKey, T]] = []
        for shard in self._shards:
            collected.extend(shard.items())
        return iter(collected)

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
        """Return all (key, value) pairs whose flow matches *pattern*.

        Raises :class:`GranularityError` when the pattern constrains fields the
        middlebox does not use to identify per-flow state.
        """
        return list(self.iter_matching(pattern))

    def iter_matching(self, pattern: FlowPattern) -> Iterator[Tuple[FlowKey, T]]:
        """Lazily yield (key, value) pairs matching *pattern*.

        Same matching semantics and ``scan_steps`` totals as :meth:`query`,
        but entries stream out as they are found: callers that seal chunks
        batch-by-batch never hold the full match list.  Each shard is
        snapshotted just before it is walked, so mutations to *other* flows
        during iteration are safe; removing a yielded flow mid-stream is also
        safe (the value was captured at snapshot time).
        """
        self._check_granularity(pattern)
        if pattern.is_wildcard:
            for shard in self._shards:
                self.scan_steps += len(shard)
                yield from list(shard.items())
            return
        if self._indexed:
            candidates = self._index_candidates(pattern)
            if candidates is not None:
                self.scan_steps += len(candidates)
                for key in candidates:
                    # Pattern first: a rejected candidate's shard is never hashed for.
                    if pattern.matches_either_direction(key):
                        shard = self._shard_of(key)
                        if key in shard:
                            yield key, shard[key]
                return
        # A pattern that pins one flow names at most two resident keys (itself
        # and its reverse); both share one canonical form, so the scan is
        # restricted to the owning shard whether or not the store is indexed.
        exact = pattern.exact_key()
        if exact is not None:
            canonical = self.canonical_key(exact)
            shard = self._shard_of(canonical)
            for key, value in list(shard.items()):
                self.scan_steps += 1
                if pattern.matches_either_direction(key):
                    yield key, value
            return
        for shard in self._shards:
            for key, value in list(shard.items()):
                self.scan_steps += 1
                if pattern.matches_either_direction(key):
                    yield key, value

    def remove_matching(self, pattern: FlowPattern) -> List[Tuple[FlowKey, T]]:
        """Remove and return all entries matching *pattern*.

        A wildcard empties the store with one :meth:`clear` instead of one
        :meth:`remove` per entry; the post-state is the per-key path's: the
        removed keys are dirtied in match order while tracking, and an install
        tag whose flow was never resident survives, as :meth:`remove` leaves it.
        """
        matches = self.query(pattern)
        if not pattern.is_wildcard:
            for key, _ in matches:
                self.remove(key)
            return matches
        orphan_tags = {key: tag for key, tag in self._install_rounds.items() if key not in self}
        self.clear()
        self._install_rounds.update(orphan_tags)
        if self._tracking_dirty:
            for key, _ in matches:
                self.mark_dirty(key)
        return matches

    def _index_candidates(self, pattern: FlowPattern) -> Optional[set]:
        """Smallest usable secondary-index posting set, or None when no index applies.

        Host (/32, however written) source/destination addresses consult the
        address index; pinned transport ports consult the port index.  When several
        indexed fields are pinned the smallest posting set wins, keeping the
        candidate filter pass minimal.
        """
        best: Optional[Collection[FlowKey]] = None
        for host in pattern.pinned_hosts():
            if host is not None:
                postings = self._postings(self._by_src, host)
                if best is None or len(postings) < len(best):
                    best = postings
        for port in (pattern.tp_src, pattern.tp_dst):
            if port is not None:
                postings = self._postings(self._by_port, port)
                if best is None or len(postings) < len(best):
                    best = postings
        if best is None:
            return None
        return set(best)


class SharedStateSlot(Generic[T]):
    """Holder for one piece of shared state with the middlebox's merge hook.

    The middlebox supplies the merge function (the paper keeps merge logic
    inside the middlebox because it depends on state semantics).  Export needs
    no hook: serialising the value is what copies it.
    """

    def __init__(self, initial: T, *, merge: Optional[Callable[[T, T], T]] = None) -> None:
        self.value: T = initial
        self._merge = merge
        #: Number of times external state has been merged into this slot.
        self.merge_count = 0

    def replace(self, value: T) -> None:
        """Overwrite the shared state (used when importing into an empty MB)."""
        self.value = value

    def merge_in(self, incoming: T) -> None:
        """Merge externally supplied state into the local state.

        Falls back to replacement when the middlebox supplied no merge hook,
        mirroring the paper's note that an MB may "start afresh when the state
        does not permit merge".
        """
        if self._merge is None:
            self.value = incoming
        else:
            self.value = self._merge(self.value, incoming)
        self.merge_count += 1

    def clone_value(self) -> T:
        """Return the shared state for export (the serialiser copies it)."""
        return self.value
