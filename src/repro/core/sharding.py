"""Sharded controller runtime: flow-space partitioning and the shard coordinator.

The seed controller serialises *every* received message — chunk streams, put
ACKs, re-process events — through one simulated CPU, which is exactly the
bottleneck the paper profiles in section 8.3 and the reason average operation
time grows linearly with the number of simultaneous operations (Figure 10b).
This module partitions that event loop:

* :class:`ShardRing` — a consistent-hash ring that owns the flow space.  A
  concrete (canonical, bidirectional) :class:`~repro.core.flowspace.FlowKey`
  always maps to exactly one shard; a
  :class:`~repro.core.flowspace.FlowPattern` maps to the set of shards that
  could own matching flows — one shard for a fully specified five-tuple,
  *every* shard for wildcard/prefix patterns (hash partitioning spreads the
  matching flows across the whole ring, so pattern-scoped work is broadcast
  to all matching shards).
* :class:`ControllerShard` — one controller event/ACK loop: its own simulated
  CPU (the per-message handling cost is charged here, not globally).
* :class:`ShardCoordinator` — the shared brain above the shards.  It owns the
  ring, assigns every stateful operation a *home shard* (the shard whose loop
  sends the operation's southbound requests and absorbs their replies),
  routes incoming messages to shards, and provides the cross-shard
  **barrier** primitive transactions use to order a merge behind moves
  running on different shards.

With ``num_shards=1`` (the default) the runtime collapses to the seed's
single-CPU behaviour bit-for-bit: one shard, one CPU serialisation point, the
same callback schedule.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
from typing import Callable, List, Optional, Sequence, Tuple

from ..net.simulator import Future, Simulator
from ..obs import Counters
from .flowspace import FlowKey, FlowPattern

#: Virtual nodes per shard on the consistent-hash ring.  Enough replicas keep
#: the per-shard share of the flow space within a few percent of uniform.
DEFAULT_RING_REPLICAS = 64


def stable_hash(token: str) -> int:
    """Hash *token* to a 64-bit ring position, stable across processes.

    Python's built-in ``hash`` is salted per process; the ring must place the
    same flow on the same shard in every run, so positions come from a keyed
    blake2b digest instead.
    """
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRing:
    """Consistent-hash partitioning of the flow space across N shards.

    Each shard owns :data:`DEFAULT_RING_REPLICAS` points on a 64-bit ring; a
    flow key is served by the shard owning the first point at or after the
    key's hash.  Consistent hashing (rather than ``hash % N``) keeps most of
    the flow space stable when a deployment re-sizes the shard count.
    """

    def __init__(self, num_shards: int, *, replicas: int = DEFAULT_RING_REPLICAS) -> None:
        """Build the ring.

        Args:
            num_shards: number of partitions; must be >= 1.
            replicas: virtual nodes per shard (higher = smoother balance).

        Raises:
            ValueError: when ``num_shards`` or ``replicas`` is < 1.
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.num_shards = num_shards
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for shard in range(num_shards):
            for replica in range(replicas):
                points.append((stable_hash(f"shard-{shard}:{replica}"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def shard_for_token(self, token: str) -> int:
        """Map an arbitrary string *token* to its owning shard id."""
        if self.num_shards == 1:
            return 0
        index = bisect.bisect_right(self._points, stable_hash(token))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    @staticmethod
    def canonical_token(key: FlowKey) -> str:
        """The ring token of a flow: its canonical (bidirectional) five-tuple."""
        return key.bidirectional().token()

    def shard_for_key(self, key: FlowKey) -> int:
        """Owning shard of a concrete flow (both packet directions agree)."""
        return self.shard_for_token(self.canonical_token(key))

    def shards_for_pattern(self, pattern: Optional[FlowPattern]) -> Tuple[int, ...]:
        """Shard ids that could own flows matching *pattern*.

        A fully specified five-tuple lives on exactly one shard; any wildcard
        or prefix pattern is hash-spread over the whole ring, so pattern-
        scoped work (event interest, gets, deletes) is broadcast to every
        shard.  "Exact" is :meth:`FlowPattern.exact_key`: a host written as
        ``"10.0.0.1/32"`` yields the same ring token as the bare address the
        flow's keys carry, so an operation is homed where its events arrive.
        """
        exact = pattern.exact_key() if pattern is not None else None
        if exact is not None:
            return (self.shard_for_key(exact),)
        return tuple(range(self.num_shards))


#: Counters kept by one controller shard's event loop.
SHARD_COUNTERS = (
    #: Messages (replies, ACKs, events) whose handling this shard's CPU ran.
    "messages",
    #: Re-process/introspection events among those messages.
    "events",
    #: Total simulated CPU time this shard spent handling messages.
    "busy_time",
    #: Stateful operations whose home loop this shard is/was.
    "operations_homed",
)


class ControllerShard:
    """One partition of the controller: a CPU and its queue.

    Every message routed to a shard is charged to *this* shard's simulated
    CPU; two shards never contend with each other, which is what converts the
    seed's O(total messages) serial bottleneck into O(messages per shard).
    """

    def __init__(self, sim: Simulator, shard_id: int) -> None:
        self.sim = sim
        self.shard_id = shard_id
        self.stats = Counters(*SHARD_COUNTERS)
        #: This shard's CPU: a runtime lane serialising all message handling.
        #: Watermark arithmetic on the runtime's clock: shards overlap in
        #: (simulated or wall) time, the one kernel thread runs their work.
        self._cpu = sim.lane(f"shard-{shard_id}")

    # -- CPU model ---------------------------------------------------------------------

    def on_cpu(self, cost: float, work: Callable, *args: object) -> None:
        """Run ``work(*args)`` after *cost* seconds of this shard's (serialised) CPU time."""
        self.stats.messages += 1
        self.stats.busy_time += cost
        self._cpu.submit(cost, work, *args)

    @property
    def idle_at(self) -> float:
        """Earliest runtime time at which this shard's CPU queue is empty."""
        return self._cpu.idle_at


class ShardCoordinator:
    """Shared coordinator above the controller shards.

    Owns the consistent-hash ring, places operations on home shards, and
    provides the cross-shard barrier transactions use to order steps that
    span shards (e.g. a merge behind moves homed on different shards).
    """

    def __init__(self, sim: Simulator, num_shards: int = 1) -> None:
        """Create the coordinator and its shards.

        Args:
            sim: the simulation kernel the shards schedule on.
            num_shards: number of controller shards (1 = the seed behaviour).

        Raises:
            ValueError: when ``num_shards`` is < 1.
        """
        self.sim = sim
        self.ring = ShardRing(num_shards)
        self.shards = [ControllerShard(sim, shard_id) for shard_id in range(num_shards)]
        #: Round-robin cursor spreading multi-shard operations across homes.
        self._placement = itertools.count()
        self.barriers_issued = 0

    @property
    def num_shards(self) -> int:
        """Number of controller shards."""
        return len(self.shards)

    # -- placement / routing ------------------------------------------------------------

    def shard_for_key(self, key: FlowKey) -> ControllerShard:
        """The shard owning a concrete flow."""
        return self.shards[self.ring.shard_for_key(key)]

    def shard_for_name(self, name: str) -> ControllerShard:
        """Deterministic shard for non-flow-scoped traffic of one middlebox."""
        return self.shards[self.ring.shard_for_token(f"mb:{name}")]

    def shards_for_pattern(self, pattern: Optional[FlowPattern]) -> List[ControllerShard]:
        """Every shard that could own flows matching *pattern* (broadcast set)."""
        return [self.shards[shard_id] for shard_id in self.ring.shards_for_pattern(pattern)]

    def home_shard(self, pattern: Optional[FlowPattern]) -> ControllerShard:
        """Pick the home shard for a new stateful operation.

        An exact-pattern operation is homed on the shard owning its flow
        (affinity: the flow's events and the operation's ACK loop share a
        CPU).  A multi-shard pattern has no natural owner, so homes are dealt
        round-robin to balance concurrent operations across the shards.
        """
        candidates = self.shards_for_pattern(pattern)
        if len(candidates) == 1:
            shard = candidates[0]
        else:
            shard = candidates[next(self._placement) % len(candidates)]
        shard.stats.operations_homed += 1
        return shard

    # -- cross-shard barrier ------------------------------------------------------------

    def barrier(self, shard_ids: Optional[Sequence[int]] = None) -> Future:
        """A future that resolves once the named shards' CPU queues drain.

        Args:
            shard_ids: shards to quiesce; ``None`` means every shard.

        Returns:
            A :class:`~repro.net.simulator.Future` succeeding (with the
            simulated completion time) when each listed shard has finished
            all message handling issued before — and during — the wait.  The
            check re-arms while new work keeps a shard busy, so the barrier
            observes a genuinely drained loop, not a snapshot.
        """
        shards = self.shards if shard_ids is None else [self.shards[i] for i in sorted(set(shard_ids))]
        self.barriers_issued += 1
        future = self.sim.event(name=f"shard-barrier({','.join(str(s.shard_id) for s in shards)})")

        def check() -> None:
            horizon = max(shard.idle_at for shard in shards) if shards else self.sim.now
            if horizon <= self.sim.now:
                future.succeed(self.sim.now)
            else:
                self.sim.schedule_at(horizon, check)

        self.sim.schedule(0.0, check)
        return future


__all__ = [
    "DEFAULT_RING_REPLICAS",
    "ControllerShard",
    "ShardCoordinator",
    "ShardRing",
    "stable_hash",
]
