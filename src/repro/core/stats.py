"""Controller-side instrumentation.

The evaluation section measures the controller itself: how long operations
take, how many are in flight, how many events were buffered versus forwarded,
and how much state crossed the control channels.  :class:`ControllerStats`
aggregates those measurements; every completed
:class:`~repro.core.operations.OperationRecord` is archived here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from .operations import OperationRecord, OperationType


@dataclass
class ControllerStats:
    """Aggregate counters and the archive of completed operations."""

    messages_received: int = 0
    messages_sent: int = 0
    #: BATCH frames produced by the southbound dispatcher (each replaces
    #: several channel messages) and the requests coalesced into them.
    batches_dispatched: int = 0
    messages_coalesced: int = 0
    events_received: int = 0
    events_forwarded: int = 0
    events_buffered: int = 0
    events_dropped: int = 0
    introspection_events: int = 0
    #: Liveness: heartbeat beacons received, instances crashed via ``kill``,
    #: and instances declared dead (by the sweep or an explicit declaration).
    heartbeats_received: int = 0
    instances_killed: int = 0
    instances_declared_dead: int = 0
    #: Moves re-driven onto a standby destination after the primary died.
    standby_retries: int = 0
    operations_started: int = 0
    operations_completed: int = 0
    operations_failed: int = 0
    #: Pre-copy aggregates: copy rounds run before freezes, chunks/bytes
    #: resent by delta + stop-and-copy rounds (the pre-copy wire overhead).
    precopy_operations: int = 0
    precopy_rounds_total: int = 0
    precopy_delta_chunks: int = 0
    precopy_delta_bytes: int = 0
    records: List[OperationRecord] = field(default_factory=list)

    def archive(self, record: OperationRecord) -> None:
        """Store a finished operation's record."""
        self.records.append(record)
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

    def merge(self, *others: "ControllerStats") -> "ControllerStats":
        """Fold one or more controllers' stats into a fleet-wide aggregate.

        Returns a **new** :class:`ControllerStats`; neither ``self`` nor any
        of *others* is mutated.  Every integer counter is summed and the
        operation archives are concatenated (in argument order), so the
        derived queries — :meth:`mean_duration`, :meth:`summary` — report across the whole
        federation exactly as they would for a single controller.  The counters
        are whatever ``dataclasses.fields`` lists, so one added here — or by a
        subclass, whose type the aggregate keeps — is never dropped.  Merging is
        associative and merging with a fresh instance is the identity, so
        multi-domain benchmarks can fold domains in any grouping.
        """
        merged = type(self)()
        for stats in (self, *others):
            for counter in fields(self):
                if counter.name != "records":
                    setattr(merged, counter.name, getattr(merged, counter.name) + getattr(stats, counter.name))
            merged.records.extend(stats.records)
        return merged

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

    def summary(self) -> Dict[str, float]:
        """A flat summary dictionary convenient for reports."""
        return {
            "operations_started": self.operations_started,
            "operations_completed": self.operations_completed,
            "operations_failed": self.operations_failed,
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "events_received": self.events_received,
            "events_forwarded": self.events_forwarded,
            "events_buffered": self.events_buffered,
            "events_dropped": self.events_dropped,
            "chunks_transferred": self.total_chunks(),
            "bytes_transferred": self.total_bytes(),
            "mean_move_duration": self.mean_duration(OperationType.MOVE),
            "precopy_operations": self.precopy_operations,
            "precopy_rounds_total": self.precopy_rounds_total,
            "precopy_delta_chunks": self.precopy_delta_chunks,
            "precopy_delta_bytes": self.precopy_delta_bytes,
        }
