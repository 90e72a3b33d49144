"""Split/Merge-style baseline (paper sections 2.1 and 8.1.2).

Split/Merge (Rajagopalan et al., NSDI 2013) migrates per-flow middlebox state
between replicas, but achieves atomicity by *halting* the affected traffic
while state moves: packets for the flows being migrated are buffered at the
network until the transfer completes and the routing update is installed.
The paper measures the cost of that choice — with 1000 chunks of state moving
and packets arriving at 1000 packets/second, 244 packets had to be buffered
and their processing latency grew by 863 ms.

Split/Merge also has no notion of shared state, so scale-down of middleboxes
with shared supporting or reporting state (RE, the monitor) is out of scope
for it (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List

from ..apps.base import ControlApplication
from ..apps.scenarios import TwoInstanceScenario
from ..core.flowspace import FlowPattern


@dataclass
class SuspensionReport:
    """Cost of a suspend-and-buffer migration."""

    buffered_packets: int
    buffering_latencies: List[float] = field(default_factory=list)
    move_duration: float = 0.0

    @property
    def mean_added_latency(self) -> float:
        if not self.buffering_latencies:
            return 0.0
        return sum(self.buffering_latencies) / len(self.buffering_latencies)

    @property
    def max_added_latency(self) -> float:
        return max(self.buffering_latencies, default=0.0)


def expected_buffered_packets(packet_rate: float, move_duration: float) -> int:
    """Analytical estimate: packets arriving while traffic is suspended."""
    return int(packet_rate * move_duration)


def expected_added_latency(packet_rate: float, move_duration: float) -> float:
    """Analytical estimate of the mean added latency of buffered packets.

    Packets arrive uniformly during the suspension window and are all released
    at its end, so the average packet waits half the window.
    """
    if packet_rate <= 0:
        return 0.0
    return move_duration / 2.0


class SplitMergeMigration(ControlApplication):
    """Migrate per-flow state with traffic suspended, Split/Merge style."""

    name = "split-merge-migration"

    def __init__(self, scenario: TwoInstanceScenario, *, pattern: FlowPattern | list | dict | str) -> None:
        super().__init__(scenario.sim, scenario.northbound, scenario.sdn)
        self.scenario = scenario
        self.pattern = pattern if isinstance(pattern, FlowPattern) else FlowPattern.parse(pattern)
        #: The scenario's two instances: state moves from the first to the second.
        self.src_mb, self.dst_mb = scenario.mb1.name, scenario.mb2.name
        self.suspension = SuspensionReport(buffered_packets=0)

    def steps(self) -> Generator:
        ingress = self.scenario.ingress
        # 1. Halt the affected traffic: buffer it at the ingress switch.
        ingress.buffer_pattern(self.pattern)
        self._log(f"suspended traffic matching {self.pattern!r} at {ingress.name}")
        move_started = self.sim.now

        # 2. Clone configuration and move the per-flow state while traffic is held.
        values = yield self.nb.read_config(self.src_mb, "*")
        yield self.nb.write_config(self.dst_mb, "*", values)
        handle = self.nb.move_internal(self.src_mb, self.dst_mb, self.pattern)
        record = yield handle.completed

        # 3. Update routing so released packets reach the new instance.
        yield self.scenario.route_via(self.dst_mb, self.pattern)

        # 4. Release the buffered packets.
        released = ingress.release_pattern(self.pattern)
        self.suspension = SuspensionReport(
            buffered_packets=len(released),
            buffering_latencies=[duration for _, duration in released],
            move_duration=self.sim.now - move_started,
        )
        self._log(
            f"released {self.suspension.buffered_packets} buffered packets after "
            f"{self.suspension.move_duration:.3f}s; mean added latency "
            f"{self.suspension.mean_added_latency * 1000:.1f} ms"
        )
        self.report.details["move"] = record
        self.report.details["buffered_packets"] = self.suspension.buffered_packets
        self.report.details["mean_added_latency"] = self.suspension.mean_added_latency
        self.report.details["max_added_latency"] = self.suspension.max_added_latency
        return self.report


#: Applicability of Split/Merge to the paper's scenarios (Table 2).
CAPABILITIES = {
    "scale-up": "yes",  # designed for elastic scaling, at the cost of suspending traffic
    "scale-down": "partial",  # no support for merging shared state
    "migration": "yes",  # per-flow state moves, with traffic halted during the move
}
