"""Controller-side instrumentation.

The evaluation section measures the controller itself: how long operations
take, how many are in flight, how many events were buffered versus forwarded,
and how much state crossed the control channels.  :class:`ControllerStats`
holds those counters; every finished
:class:`~repro.core.operations.OperationRecord` is archived here.
"""

from __future__ import annotations

from typing import Optional

from ..obs import Counters
from .operations import OperationRecord, OperationType

#: The controller's counters, in report order.
CONTROLLER_COUNTERS = (
    "messages_received", "messages_sent",
    #: BATCH frames produced by the southbound dispatcher (each replaces
    #: several channel messages) and the requests coalesced into them.
    "batches_dispatched", "messages_coalesced",
    "events_received", "events_forwarded", "events_buffered", "events_dropped", "introspection_events",
    #: Liveness: heartbeat beacons received, instances crashed via ``kill``,
    #: and instances declared dead (by the sweep or an explicit declaration).
    "heartbeats_received", "instances_killed", "instances_declared_dead",
    #: Moves re-driven onto a standby destination after the primary died.
    "standby_retries",
    #: Operations started, and of those finished the ones whose ``completed``
    #: future succeeded and the ones that failed (a standby retry's failed
    #: attempt included); the rest are live.
    "operations_started", "operations_completed", "operations_failed",
    #: Pre-copy aggregates: copy rounds run before freezes, chunks/bytes
    #: resent by delta + stop-and-copy rounds (the pre-copy wire overhead).
    "precopy_operations", "precopy_rounds_total", "precopy_delta_chunks", "precopy_delta_bytes",
)


class ControllerStats(Counters):
    """The controller's counters plus the archive of finished operations (``records``)."""

    def __init__(self, **values: object) -> None:
        super().__init__(*CONTROLLER_COUNTERS, records=[], **values)

    def archive(self, record: OperationRecord) -> None:
        """Store a finished operation's record; it counts as completed when it reached completion."""
        self.records.append(record)
        if record.completed_at is not None:
            self.operations_completed += 1
        self.events_buffered += record.events_buffered
        self.events_forwarded += record.events_forwarded
        self.events_dropped += record.events_dropped
        if record.mode == "precopy":
            self.precopy_operations += 1
            self.precopy_rounds_total += record.precopy_rounds
            for round_stats in record.rounds:
                if round_stats.get("round", 0) > 0:
                    self.precopy_delta_chunks += round_stats.get("chunks", 0)
                    self.precopy_delta_bytes += round_stats.get("bytes", 0)

    # -- queries used by benchmarks and reports --------------------------------------

    def mean_duration(self, op_type: Optional[OperationType] = None) -> float:
        """Mean completion time of archived operations (seconds), 0.0 when none."""
        durations = [
            record.duration
            for record in self.records
            if record.duration is not None and (op_type is None or record.type is op_type)
        ]
        if not durations:
            return 0.0
        return sum(durations) / len(durations)

    def total_chunks(self) -> int:
        return sum(record.chunks_transferred for record in self.records)

    def total_bytes(self) -> int:
        return sum(record.bytes_transferred for record in self.records)
