"""Trace replay onto the simulated network.

A :class:`TraceReplayer` turns trace records back into packets and injects
them on the simulated clock, either directly into a node (a middlebox or a
switch port — the equivalent of a tap feeding a middlebox) or via a host's
``send`` so the packets traverse the routed topology.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..net.packet import Packet
from ..net.simulator import Simulator
from ..net.topology import Host, Node
from ..obs import Counters
from .records import Trace, TraceRecord


#: Counters describing one replay.
REPLAY_COUNTERS = ("injected", "bytes", "first_time", "last_time")


class TraceReplayer:
    """Schedules the packets of a trace for injection on the simulated clock."""

    def __init__(
        self,
        sim: Simulator,
        trace: Trace,
        inject: Callable[[Packet], None],
        *,
        start_at: float = 0.0,
        speedup: float = 1.0,
        limit: Optional[int] = None,
    ) -> None:
        if speedup <= 0:
            raise ValueError("speedup must be positive")
        self.sim = sim
        self.trace = trace
        self.inject = inject
        self.start_at = start_at
        self.speedup = speedup
        self.limit = limit
        self.stats = Counters(*REPLAY_COUNTERS)

    # -- convenience constructors ------------------------------------------------------------------

    @classmethod
    def into_node(
        cls,
        sim: Simulator,
        trace: Trace,
        node: Node,
        *,
        in_port: int = 1,
        start_at: float = 0.0,
        speedup: float = 1.0,
        limit: Optional[int] = None,
    ) -> "TraceReplayer":
        """Replay directly into a node's receive path (tap-style injection)."""
        return cls(
            sim,
            trace,
            lambda packet: node.receive(packet, in_port),
            start_at=start_at,
            speedup=speedup,
            limit=limit,
        )

    @classmethod
    def via_host(
        cls,
        sim: Simulator,
        trace: Trace,
        host: Host,
        *,
        start_at: float = 0.0,
        speedup: float = 1.0,
        limit: Optional[int] = None,
    ) -> "TraceReplayer":
        """Replay by sending from a host so packets follow installed routes."""
        return cls(sim, trace, host.send, start_at=start_at, speedup=speedup, limit=limit)

    # -- scheduling ---------------------------------------------------------------------------------

    def schedule(self) -> int:
        """Schedule every record for injection; returns the number scheduled."""
        records = self.trace.records[: self.limit] if self.limit is not None else self.trace.records
        if not records:
            return 0
        base = records[0].time
        for record in records:
            at = self.start_at + (record.time - base) / self.speedup
            self.sim.schedule_at(max(at, self.sim.now), self._inject_record, record)
        self.stats.first_time = self.start_at
        self.stats.last_time = self.start_at + (records[-1].time - base) / self.speedup
        return len(records)

    def _inject_record(self, record: TraceRecord) -> None:
        packet = record.to_packet()
        packet.created_at = self.sim.now
        self.stats.injected += 1
        self.stats.bytes += packet.wire_size
        self.inject(packet)
