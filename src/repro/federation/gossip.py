"""Tunable anti-entropy gossip: versioned digests, TTL expiry, fanout selection.

The federation layer (PAPERS.md: Femminella et al.'s gossip-based signaling
dissemination; De Florio & Blondia's tunable gossip family) disseminates two
kinds of soft state between controller domains:

* **instance liveness** — which middlebox instance lives in which domain and
  whether its home controller believes it alive (built from PR 5's heartbeat
  state);
* **flow ownership** — a versioned directory mapping canonical flow-key
  tokens to the domain that owns their state
  (:mod:`repro.federation.directory`).

Both ride on the same machinery defined here: a :class:`VersionedMap` of
last-writer-wins entries whose merge is **idempotent** and **commutative**
(so digests may be duplicated, reordered, or crossed in flight without
divergence), plus the three tunables of the gossip family:

* ``fanout`` — how many peers each domain pushes its digest to per round;
* ``interval`` — the gossip round period (simulated seconds);
* ``ttl`` — how long a *tombstone* entry (``alive=False`` liveness records
  of dead instances) lives after it was **authored**; the authoring time
  travels in the entry, so every replica drops it at the same clock instant.

A round pushes what the peer is not known to have, not the maps: every install
gets the next local *revision*, entries are kept in revision order, and
:meth:`VersionedMap.newer` walks back from the newest to a per-peer mark —
O(changed).  The constant-size :attr:`VersionedMap.summary` (count + checksum,
kept incrementally) rides along so a receiver can tell that a delta went missing.

All randomness (peer selection) flows through an **injected**
``random.Random`` per the repo's determinism policy (tests/test_determinism)
so a federation run reproduces bit for bit from its seeds.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class GossipConfig:
    """The tunables of the anti-entropy protocol (De Florio & Blondia)."""

    #: Peers each domain pushes its digest to per gossip round.
    fanout: int = 2
    #: Gossip round period (simulated seconds).
    interval: float = 2e-3
    #: Lifetime of a tombstone entry, measured from its authoring time.
    ttl: float = 0.25
    #: Seed mixed (with the domain name) into each domain's private RNG.
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate tunable ranges; raises ValueError on malformed configs."""
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval}")
        if self.ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {self.ttl}")


@dataclass
class VersionedEntry:
    """One last-writer-wins fact: a key, its payload, and who versioned it."""

    key: str
    #: Domain that authored this version of the entry.
    origin: str
    #: Monotonic per-key version; higher versions win merges.
    version: int
    #: JSON-serialisable payload (e.g. ``{"domain": ..., "alive": ...}``).
    value: Dict[str, Any]
    #: Authoring time on the origin's clock; on the wire, so a tombstone's TTL
    #: runs from it on every replica alike, however late the entry arrived.
    at: float = 0.0
    #: Local only: revision at install, the peer it was learned from (never echoed
    #: there), checksum term (own blake2b: ``stable_hash`` calls count as shard routing).
    rev: int = 0
    source: Optional[str] = None
    mark: int = 0

    def as_wire(self) -> Dict[str, Any]:
        """The digest form of the entry (revision, source and mark stay local)."""
        return {"key": self.key, "origin": self.origin, "version": self.version, "value": dict(self.value), "at": self.at}

    def due(self, now: float, ttl: float) -> bool:
        """True for a tombstone whose deadline — authoring time + *ttl* — is behind *now*."""
        return self.value.get("alive") is False and self.at + ttl < now

    def beats(self, other: "VersionedEntry") -> bool:
        """Deterministic total order: higher version wins; ties go to the
        lexicographically smaller origin so every replica picks the same
        winner when two domains author the same version concurrently."""
        if self.version != other.version:
            return self.version > other.version
        return self.origin < other.origin


class VersionedMap:
    """A mergeable map of :class:`VersionedEntry` facts.

    ``merge`` is idempotent (re-merging a digest changes nothing) and
    commutative (digest arrival order does not matter), which is what lets
    the gossip layer tolerate the duplicated/reordered/lossy inter-domain
    channels the chaos harness injects.
    """

    def __init__(self) -> None:
        #: Insertion order is revision order: an install re-inserts its key last.
        self._entries: Dict[str, VersionedEntry] = {}
        #: Installs so far (a peer's mark is the revision it was sent up to).
        self.revision = 0
        self._checksum = 0
        #: Latest TTL deadline applied here; a summary taken at or before it
        #: may still count the tombstone and is not comparable with ours.
        self.expired_to = float("-inf")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[VersionedEntry]:
        """The current winning entry for *key*, or None."""
        return self._entries.get(key)

    def value_of(self, key: str) -> Optional[Dict[str, Any]]:
        """The current payload for *key*, or None."""
        entry = self._entries.get(key)
        return entry.value if entry is not None else None

    def items(self) -> List[Tuple[str, VersionedEntry]]:
        """Entries in deterministic (key-sorted) order."""
        return sorted(self._entries.items())

    @property
    def summary(self) -> str:
        """Entry count + checksum of every ``(key, version, origin)``: 24 hex digits whatever the map holds."""
        return f"{len(self._entries) & 0xFFFFFFFF:08x}{self._checksum & 0xFFFFFFFFFFFFFFFF:016x}"

    def _install(self, entry: VersionedEntry, source: Optional[str] = None) -> None:
        self._drop(entry.key)
        self.revision += 1
        entry.rev, entry.source = self.revision, source
        token = f"{entry.key}|{entry.version}|{entry.origin}".encode("utf-8")
        entry.mark = int.from_bytes(hashlib.blake2b(token, digest_size=8).digest(), "big")
        self._checksum += entry.mark
        self._entries[entry.key] = entry

    def _drop(self, key: str) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._checksum -= old.mark

    def put(self, key: str, origin: str, value: Dict[str, Any], now: float) -> VersionedEntry:
        """Author a new version of *key* locally (version = current + 1)."""
        current = self._entries.get(key)
        version = (current.version + 1) if current is not None else 1
        entry = VersionedEntry(key=key, origin=origin, version=version, value=dict(value), at=now)
        self._install(entry)
        return entry

    def merge(self, digest: Sequence[dict], now: float, *, ttl: Optional[float] = None, source: Optional[str] = None) -> List[str]:
        """Fold a received digest in; returns the keys whose winner changed.

        An incoming entry replaces the current one only when it *beats* it
        (higher version, or same version from a smaller origin), so receiving
        the current version again changes nothing.  Entries are taken as typed
        (``messages.parse`` validates a frame's; nothing is coerced).  With a
        *ttl*, a tombstone past its deadline is applied and expired in one
        step: what it beats goes, and it is never installed.
        """
        changed: List[str] = []
        for wire in digest:
            incoming = VersionedEntry(wire["key"], wire["origin"], wire["version"], wire["value"], wire["at"])
            current = self._entries.get(incoming.key)
            if current is not None and not incoming.beats(current):
                continue
            if ttl is not None and incoming.due(now, ttl):
                self.expired_to = max(self.expired_to, incoming.at + ttl)
                if current is None:
                    continue
                self._drop(incoming.key)
            else:
                self._install(incoming, source)
            changed.append(incoming.key)
        return changed

    def expire(self, now: float, ttl: float) -> List[str]:
        """Drop the tombstones :meth:`~VersionedEntry.due` at *now*; returns their keys.
        Durable facts like flow ownership never age out, and no digest refreshes a
        tombstone: replicas sharing a clock drop it at the same instant."""
        dropped = [key for key, entry in self._entries.items() if entry.due(now, ttl)]
        for key in dropped:
            self.expired_to = max(self.expired_to, self._entries[key].at + ttl)
            self._drop(key)
        return sorted(dropped)

    def newer(self, revision: int, skip: Optional[str] = None) -> Iterator[VersionedEntry]:
        """Entries installed after *revision*, newest first, except those
        learned from *skip* — O(entries above the mark), not O(map)."""
        for entry in reversed(self._entries.values()):
            if entry.rev <= revision:
                return
            if entry.source is None or entry.source != skip:
                yield entry

    def digest(self) -> List[Dict[str, Any]]:
        """The wire form of every entry, in deterministic key order."""
        return [entry.as_wire() for _, entry in self.items()]


@dataclass
class GossipState:
    """The per-domain soft state the gossip rounds disseminate.

    ``membership`` tracks controller domains (``{"alive": bool}``),
    ``liveness`` tracks middlebox instances (``{"domain": str,
    "alive": bool}``); the ownership directory keeps its own
    :class:`VersionedMap` (see :mod:`repro.federation.directory`) but is
    carried in the same digest message.
    """

    membership: VersionedMap = field(default_factory=VersionedMap)
    liveness: VersionedMap = field(default_factory=VersionedMap)

    def live_domains(self) -> List[str]:
        """Domains currently believed alive, sorted."""
        return sorted(key for key, entry in self.membership.items() if entry.value.get("alive"))

    def instances_of(self, domain: str, *, alive: bool = True) -> List[str]:
        """Instances homed in *domain* (optionally only live ones), sorted."""
        return sorted(
            key
            for key, entry in self.liveness.items()
            if entry.value.get("domain") == domain and (not alive or entry.value.get("alive"))
        )


def choose_peers(rng: random.Random, peers: Sequence[str], fanout: int) -> List[str]:
    """Pick the gossip targets for one round: ``min(fanout, len(peers))`` of
    *peers*, uniformly without replacement from the injected *rng* (sorted
    first so the draw depends only on the rng state, not dict order)."""
    ordered = sorted(peers)
    if len(ordered) <= fanout:
        return ordered
    return sorted(rng.sample(ordered, fanout))
