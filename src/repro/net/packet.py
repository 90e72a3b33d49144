"""Packet model.

A :class:`Packet` carries the header fields middleboxes and switches match on
(the five-tuple plus TCP flags), a payload, and bookkeeping used by the
evaluation (creation time, per-hop latency accounting, and middlebox
annotations such as redundancy-elimination shims).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, FrozenSet, Optional

from ..core.flowspace import PROTO_TCP, PROTO_UDP, FlowKey

#: Bytes of layer-2/3/4 headers accounted for in a packet's wire size.
HEADER_BYTES = 54

#: TCP flag names used by the simulated middleboxes.
SYN = "SYN"
ACK = "ACK"
FIN = "FIN"
RST = "RST"
PSH = "PSH"


@dataclass
class Packet:
    """One simulated packet."""

    nw_src: str
    nw_dst: str
    nw_proto: int = PROTO_TCP
    tp_src: int = 0
    tp_dst: int = 0
    payload: bytes = b""
    flags: FrozenSet[str] = frozenset()
    seq: int = 0
    created_at: float = 0.0
    #: Free-form annotations added by middleboxes (e.g. RE shim descriptors).
    annotations: Dict[str, object] = field(default_factory=dict)
    #: Overrides the wire size when a middlebox shrank the payload (RE encoding).
    encoded_size: Optional[int] = None

    # -- identity --------------------------------------------------------------

    def flow_key(self) -> FlowKey:
        """The directional flow key for this packet."""
        return FlowKey(self.nw_proto, self.nw_src, self.nw_dst, self.tp_src, self.tp_dst)

    @property
    def payload_size(self) -> int:
        return len(self.payload)

    @property
    def wire_size(self) -> int:
        """Bytes the packet occupies on the wire (headers plus effective payload)."""
        if self.encoded_size is not None:
            return HEADER_BYTES + self.encoded_size
        return HEADER_BYTES + len(self.payload)

    def has_flag(self, flag: str) -> bool:
        return flag in self.flags

    # -- construction helpers --------------------------------------------------

    def copy(self) -> "Packet":
        """Return an independent copy (its annotations are its own).

        Used by baselines that duplicate traffic, by the RE encoder when it
        emits an encoded version of a packet, and by link protection for every
        held frame — so it walks the dataclass's own field list (a field added
        later cannot be missed) without re-running ``__init__``.
        """
        duplicate = object.__new__(type(self))
        for name in _FIELD_NAMES:
            setattr(duplicate, name, getattr(self, name))
        duplicate.annotations = dict(self.annotations)
        return duplicate

    def reply(self, payload: bytes = b"", flags: FrozenSet[str] = frozenset()) -> "Packet":
        """Build a packet in the reverse direction of this one."""
        return Packet(
            nw_src=self.nw_dst,
            nw_dst=self.nw_src,
            nw_proto=self.nw_proto,
            tp_src=self.tp_dst,
            tp_dst=self.tp_src,
            payload=payload,
            flags=flags,
            created_at=self.created_at,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(sorted(flag[0] for flag in self.flags))
        return (
            f"<Packet {self.nw_src}:{self.tp_src}->"
            f"{self.nw_dst}:{self.tp_dst} proto={self.nw_proto} len={self.payload_size} {flags}>"
        )


#: What :meth:`Packet.copy` carries across, in declaration order.
_FIELD_NAMES = tuple(f.name for f in fields(Packet))


def tcp_packet(
    nw_src: str,
    nw_dst: str,
    tp_src: int,
    tp_dst: int,
    payload: bytes = b"",
    *,
    flags: FrozenSet[str] = frozenset({ACK}),
    seq: int = 0,
    created_at: float = 0.0,
) -> Packet:
    """Convenience constructor for a TCP packet."""
    return Packet(
        nw_src=nw_src,
        nw_dst=nw_dst,
        nw_proto=PROTO_TCP,
        tp_src=tp_src,
        tp_dst=tp_dst,
        payload=payload,
        flags=frozenset(flags),
        seq=seq,
        created_at=created_at,
    )


def udp_packet(
    nw_src: str,
    nw_dst: str,
    tp_src: int,
    tp_dst: int,
    payload: bytes = b"",
    *,
    created_at: float = 0.0,
) -> Packet:
    """Convenience constructor for a UDP packet."""
    return Packet(
        nw_src=nw_src,
        nw_dst=nw_dst,
        nw_proto=PROTO_UDP,
        tp_src=tp_src,
        tp_dst=tp_dst,
        payload=payload,
        created_at=created_at,
    )
