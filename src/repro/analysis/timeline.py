"""Timelines of middlebox activity (Figure 7).

Figure 7 in the paper shows, for the scale-up scenario, when each middlebox
processed packets, when it raised or consumed re-process events, and when the
get/put operations started and finished.  :class:`ActivitySampler` samples the
relevant counters of a set of middleboxes at a fixed interval on the simulated
clock, and :func:`operation_windows` extracts the get/put windows from the
controller's operation records, which together reconstruct the figure's
series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.operations import OperationRecord
from ..middleboxes.base import Middlebox
from ..net.simulator import Simulator


@dataclass
class ActivitySample:
    """One sample of a middlebox's cumulative counters."""

    time: float
    packets_received: int
    reprocess_events_raised: int
    reprocessed_packets: int


@dataclass
class ActivitySeries:
    """Samples for one middlebox, with helpers to derive per-interval rates."""

    mb_name: str
    samples: List[ActivitySample] = field(default_factory=list)

    def rates(self) -> List[Tuple[float, float, float, float]]:
        """(time, packet rate, event-raise rate, event-consume rate) per interval."""
        rows = []
        for previous, current in zip(self.samples, self.samples[1:]):
            dt = current.time - previous.time
            if dt <= 0:
                continue
            rows.append(
                (
                    current.time,
                    (current.packets_received - previous.packets_received) / dt,
                    (current.reprocess_events_raised - previous.reprocess_events_raised) / dt,
                    (current.reprocessed_packets - previous.reprocessed_packets) / dt,
                )
            )
        return rows


class ActivitySampler:
    """Periodically samples middlebox counters on the simulated clock."""

    def __init__(self, sim: Simulator, middleboxes: Sequence[Middlebox], *, interval: float = 0.05) -> None:
        self.sim = sim
        self.middleboxes = list(middleboxes)
        self.interval = interval
        self.series: Dict[str, ActivitySeries] = {mb.name: ActivitySeries(mb.name) for mb in middleboxes}

    def start(self, duration: float) -> None:
        """Schedule samples covering the next *duration* seconds."""
        steps = int(duration / self.interval) + 1
        for index in range(steps):
            self.sim.schedule(index * self.interval, self._sample)

    def _sample(self) -> None:
        now = self.sim.now
        for middlebox in self.middleboxes:
            self.series[middlebox.name].samples.append(
                ActivitySample(
                    time=now,
                    packets_received=middlebox.counters.packets_received,
                    reprocess_events_raised=middlebox.counters.reprocess_events_raised,
                    reprocessed_packets=middlebox.counters.reprocessed_packets,
                )
            )


@dataclass
class OperationWindow:
    """The time window of one state operation, as drawn in Figure 7."""

    op_type: str
    src: str
    dst: str
    started_at: float
    completed_at: Optional[float]
    finalized_at: Optional[float]
    chunks: int
    events_forwarded: int


def operation_windows(records: Sequence[OperationRecord]) -> List[OperationWindow]:
    """Extract operation windows from controller operation records."""
    return [
        OperationWindow(
            op_type=record.type.value,
            src=record.src,
            dst=record.dst,
            started_at=record.started_at,
            completed_at=record.completed_at,
            finalized_at=record.finalized_at,
            chunks=record.chunks_transferred,
            events_forwarded=record.events_forwarded,
        )
        for record in records
    ]
