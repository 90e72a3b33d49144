"""Network-level measurement helpers.

The evaluation needs latency and delivery accounting at the network layer:
per-packet end-to-end latency (including queueing), per-pattern delivery
counts, and timelines of when packets were seen where.  :class:`LatencyProbe`
and :class:`DeliveryRecorder` attach to hosts or middleboxes and collect these
without perturbing the traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.flowspace import FlowPattern
from .packet import Packet
from .simulator import Simulator
from .topology import Host


@dataclass
class LatencySample:
    """One observed packet delivery."""

    packet_id: int
    sent_at: float
    received_at: float

    @property
    def latency(self) -> float:
        return self.received_at - self.sent_at


class LatencyProbe:
    """Records end-to-end latency for packets delivered to a host."""

    def __init__(self, sim: Simulator, host: Host, pattern: Optional[FlowPattern] = None) -> None:
        self.sim = sim
        self.pattern = pattern or FlowPattern.wildcard()
        self.samples: List[LatencySample] = []
        host.on_receive(self._record)

    def _record(self, packet: Packet) -> None:
        if not self.pattern.matches(packet.flow_key()):
            return
        self.samples.append(LatencySample(packet.packet_id, packet.created_at, self.sim.now))

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean_latency(self) -> float:
        """Mean observed latency in seconds (0.0 when no samples)."""
        if not self.samples:
            return 0.0
        return sum(sample.latency for sample in self.samples) / len(self.samples)

    def max_latency(self) -> float:
        if not self.samples:
            return 0.0
        return max(sample.latency for sample in self.samples)


class DeliveryRecorder:
    """Counts packets delivered to a host, bucketed by flow pattern."""

    def __init__(self, host: Host, patterns: Dict[str, FlowPattern]) -> None:
        self.patterns = dict(patterns)
        self.counts: Dict[str, int] = {name: 0 for name in patterns}
        self.bytes: Dict[str, int] = {name: 0 for name in patterns}
        self.unmatched = 0
        host.on_receive(self._record)

    def _record(self, packet: Packet) -> None:
        key = packet.flow_key()
        matched = False
        for name, pattern in self.patterns.items():
            if pattern.matches(key):
                self.counts[name] += 1
                self.bytes[name] += packet.wire_size
                matched = True
        if not matched:
            self.unmatched += 1

    def total(self) -> int:
        return sum(self.counts.values()) + self.unmatched
