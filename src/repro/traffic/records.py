"""Trace records: the workload representation used throughout the evaluation.

A :class:`Trace` is an ordered list of :class:`TraceRecord` entries, each of
which describes one packet (timestamp, five-tuple, flags, payload).  Traces
are produced by the generators in :mod:`repro.traffic.generators` (our
synthetic stand-ins for the paper's captured enterprise, data-center, and
high-redundancy traces) and consumed by :mod:`repro.traffic.replay`, which
turns records back into packets on the simulated network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List

from ..core.flowspace import PROTO_TCP, FlowKey
from ..net.packet import Packet


@dataclass
class TraceRecord:
    """One packet in a trace."""

    time: float
    nw_src: str
    nw_dst: str
    tp_src: int
    tp_dst: int
    nw_proto: int = PROTO_TCP
    payload: bytes = b""
    flags: List[str] = field(default_factory=list)
    seq: int = 0

    def flow_key(self) -> FlowKey:
        return FlowKey(self.nw_proto, self.nw_src, self.nw_dst, self.tp_src, self.tp_dst)

    def to_packet(self) -> Packet:
        """Materialise the record as a packet (created_at is set at injection time)."""
        return Packet(
            nw_src=self.nw_src,
            nw_dst=self.nw_dst,
            nw_proto=self.nw_proto,
            tp_src=self.tp_src,
            tp_dst=self.tp_dst,
            payload=self.payload,
            flags=frozenset(self.flags),
            seq=self.seq,
        )


@dataclass
class Trace:
    """An ordered packet trace plus free-form metadata."""

    records: List[TraceRecord] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.records.sort(key=lambda record: record.time)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def merged_with(self, other: "Trace") -> "Trace":
        """A new trace interleaving this trace and *other* by timestamp."""
        return Trace(records=list(self.records) + list(other.records), metadata=dict(self.metadata))

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord], **metadata: object) -> "Trace":
        return cls(records=list(records), metadata=dict(metadata))
