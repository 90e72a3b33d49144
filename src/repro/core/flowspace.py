"""Flow identifiers and header-field patterns.

The southbound API identifies per-flow state with a *HeaderFieldList* (paper
section 4.1.2): a set of packet header fields, possibly a subset of the full
five-tuple, and possibly using prefixes.  This module provides:

* :class:`FlowKey` — a concrete five-tuple identifying one transport flow.
* :class:`FlowPattern` — a HeaderFieldList: a partially specified match over
  the five-tuple supporting exact values, IPv4 prefixes, and wildcards.

Patterns are used both by middleboxes (to name the granularity at which they
keep per-flow state) and by control applications (to name which flows an
operation applies to).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Tuple

#: Header fields recognised in a pattern, in canonical order.
FIELDS = ("nw_proto", "nw_src", "nw_dst", "tp_src", "tp_dst")

#: Convenience protocol numbers.
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ICMP = 1

_PROTO_NAMES = {PROTO_TCP: "tcp", PROTO_UDP: "udp", PROTO_ICMP: "icmp"}

#: Distinct address strings whose parse :func:`ip_to_int` remembers: enough for
#: the addresses of a ten-thousand-flow store scan, a few megabytes at most.
ADDRESS_MEMO_SIZE = 16384


@lru_cache(maxsize=ADDRESS_MEMO_SIZE)
def ip_to_int(address: str) -> int:
    """Convert a dotted-quad IPv4 address to its 32-bit integer value.

    Memoised: pattern matching parses the same few addresses per packet and
    per store entry.  A malformed address raises on every call (an exception
    is never cached).
    """
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"not an IPv4 address: {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"not an IPv4 address: {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to a dotted-quad IPv4 address."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"not a 32-bit value: {value!r}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class IPv4Prefix:
    """An IPv4 prefix (``address/length``) used for prefix matches in patterns."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        mask = self.mask
        object.__setattr__(self, "network", self.network & mask)

    @classmethod
    def parse(cls, text: str) -> "IPv4Prefix":
        """Parse ``a.b.c.d/len`` or a bare address (treated as /32)."""
        if "/" in text:
            addr, _, length = text.partition("/")
            return cls(ip_to_int(addr), int(length))
        return cls(ip_to_int(text), 32)

    @property
    def mask(self) -> int:
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    def contains_ip(self, address: str) -> bool:
        """Return True when *address* falls inside this prefix."""
        return (ip_to_int(address) & self.mask) == self.network

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{int_to_ip(self.network)}/{self.length}"


@dataclass(frozen=True, order=True, slots=True)
class FlowKey:
    """A concrete transport flow: protocol plus source/destination IP and port.

    ``FlowKey`` is directional.  :meth:`reversed` gives the opposite direction
    and :meth:`bidirectional` gives a canonical key shared by both directions,
    which is what connection-oriented middleboxes index their state by.

    Declared with ``slots=True``: at a million resident flows the store keeps
    a ``FlowKey`` per entry (plus copies in dirty sets, indexes, and transfer
    bookkeeping), and dropping the per-instance ``__dict__`` roughly halves
    the key's footprint.
    """

    nw_proto: int
    nw_src: str
    nw_dst: str
    tp_src: int
    tp_dst: int

    def reversed(self) -> "FlowKey":
        """Return the key for the opposite packet direction."""
        return FlowKey(self.nw_proto, self.nw_dst, self.nw_src, self.tp_dst, self.tp_src)

    def bidirectional(self) -> "FlowKey":
        """Return a canonical key identical for both directions of the flow."""
        forward = (self.nw_src, self.tp_src)
        backward = (self.nw_dst, self.tp_dst)
        if forward <= backward:
            return self
        return self.reversed()

    def token(self) -> str:
        """The ``proto|src|dst|sport|dport`` string of this key as given.

        Taken of the :meth:`bidirectional` key it is the canonical flow token
        that the shard ring, the state store's shard index and the federation's
        ownership directory all hash or index by.
        """
        return f"{self.nw_proto}|{self.nw_src}|{self.nw_dst}|{self.tp_src}|{self.tp_dst}"

    def as_dict(self) -> dict:
        """Return a plain-dict form suitable for JSON messages."""
        return {
            "nw_proto": self.nw_proto,
            "nw_src": self.nw_src,
            "nw_dst": self.nw_dst,
            "tp_src": self.tp_src,
            "tp_dst": self.tp_dst,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FlowKey":
        """Inverse of :meth:`as_dict`; strict, because *data* comes off the wire.

        Protocol and ports must be ``int`` (not ``bool``) and addresses ``str``:
        anything else raises ``ValueError`` rather than being coerced into the
        key of a different flow.
        """
        proto, src, dst, sport, dport = data["nw_proto"], data["nw_src"], data["nw_dst"], data["tp_src"], data["tp_dst"]
        if not (type(proto) is type(sport) is type(dport) is int and type(src) is type(dst) is str):
            raise ValueError(f"ill-typed flow key: {dict(data)!r}")
        return cls(proto, src, dst, sport, dport)

    def __str__(self) -> str:
        proto = _PROTO_NAMES.get(self.nw_proto, str(self.nw_proto))
        return f"{proto} {self.nw_src}:{self.tp_src} -> {self.nw_dst}:{self.tp_dst}"


class FlowPattern:
    """A HeaderFieldList: a partially specified match over flow header fields.

    Each of the five fields may be:

    * absent / ``None`` — wildcard;
    * an exact value (``int`` for protocol and ports, dotted quad for IPs);
    * for IP fields, a prefix string such as ``"1.1.1.0/24"``.

    Patterns compare packets and flow keys (:meth:`matches`), other patterns
    (:meth:`covers`), and report how many fields they pin (:attr:`specificity`),
    which the per-flow state stores use to honour the paper's granularity rule.
    """

    __slots__ = ("nw_proto", "_src_prefix", "_dst_prefix", "tp_src", "tp_dst", "_src_text", "_dst_text")

    def __init__(
        self,
        nw_proto: Optional[int] = None,
        nw_src: Optional[str] = None,
        nw_dst: Optional[str] = None,
        tp_src: Optional[int] = None,
        tp_dst: Optional[int] = None,
    ) -> None:
        self.nw_proto = nw_proto
        self.tp_src = tp_src
        self.tp_dst = tp_dst
        self._src_text = nw_src
        self._dst_text = nw_dst
        self._src_prefix = IPv4Prefix.parse(nw_src) if nw_src is not None else None
        self._dst_prefix = IPv4Prefix.parse(nw_dst) if nw_dst is not None else None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def wildcard(cls) -> "FlowPattern":
        """The pattern that matches every flow (the empty HeaderFieldList)."""
        return cls()

    @classmethod
    def from_flow(cls, key: FlowKey) -> "FlowPattern":
        """The fully specified pattern matching exactly *key*."""
        return cls(key.nw_proto, key.nw_src, key.nw_dst, key.tp_src, key.tp_dst)

    @classmethod
    def parse(cls, fields: Mapping[str, object] | Iterable[str] | str | None) -> "FlowPattern":
        """Parse the HeaderFieldList notation used in the paper's examples.

        Accepts a mapping (``{"nw_src": "1.1.1.0/24"}``), an iterable of
        ``"field=value"`` strings (``["nw_src=1.1.1.0/24"]``), a single such
        string, or ``None`` / ``[]`` / ``""`` for the wildcard pattern.
        """
        from .errors import PatternError

        if fields is None:
            return cls.wildcard()
        if isinstance(fields, str):
            fields = [part for part in fields.split(",") if part.strip()]
        if isinstance(fields, Mapping):
            items = dict(fields)
        else:
            items = {}
            for entry in fields:
                name, _, value = str(entry).partition("=")
                name = name.strip()
                if not name:
                    continue
                items[name] = value.strip()
        kwargs: dict = {}
        for name, value in items.items():
            if name not in FIELDS:
                raise PatternError(f"unknown header field {name!r} (expected one of {', '.join(FIELDS)})")
            if value is None or value == "*":
                continue
            if name in ("nw_proto", "tp_src", "tp_dst"):
                try:
                    kwargs[name] = int(value)
                except (TypeError, ValueError):
                    raise PatternError(f"field {name!r} requires an integer, got {value!r}") from None
            else:
                kwargs[name] = str(value)
        try:
            return cls(**kwargs)
        except ValueError as exc:  # bad IP address / prefix in an address field
            raise PatternError(f"malformed pattern {items!r}: {exc}") from exc

    # -- field access ---------------------------------------------------------

    @property
    def nw_src(self) -> Optional[str]:
        return self._src_text

    @property
    def nw_dst(self) -> Optional[str]:
        return self._dst_text

    def as_dict(self) -> dict:
        """Return only the specified fields as a plain dict (JSON friendly)."""
        result: dict = {}
        if self.nw_proto is not None:
            result["nw_proto"] = self.nw_proto
        if self._src_text is not None:
            result["nw_src"] = self._src_text
        if self._dst_text is not None:
            result["nw_dst"] = self._dst_text
        if self.tp_src is not None:
            result["tp_src"] = self.tp_src
        if self.tp_dst is not None:
            result["tp_dst"] = self.tp_dst
        return result

    @property
    def specificity(self) -> int:
        """Number of constrained fields (prefixes count as constrained)."""
        return len(self.as_dict())

    @property
    def is_wildcard(self) -> bool:
        return self.specificity == 0

    def specified_fields(self) -> Tuple[str, ...]:
        """Names of the fields this pattern constrains, in canonical order."""
        present = self.as_dict()
        return tuple(field for field in FIELDS if field in present)

    def pinned_hosts(self) -> Tuple[Optional[str], Optional[str]]:
        """``(source, destination)``: the bare address where the field pins one
        host, else None.  Asked of the parsed prefix, so ``"10.0.0.1/32"`` and
        ``"10.0.0.1"`` are the same host — the form flow keys carry."""
        return tuple(
            int_to_ip(prefix.network) if prefix is not None and prefix.length == 32 else None
            for prefix in (self._src_prefix, self._dst_prefix)
        )

    def exact_key(self) -> Optional[FlowKey]:
        """The single concrete flow this pattern pins, or None when it spans many.

        A pattern is exact when all five header fields are constrained and
        both addresses are hosts (:meth:`pinned_hosts`).  The one definition
        the shard ring and the per-flow stores share: were they to disagree,
        the controller would home an operation on one shard while the store
        scanned all of them.
        """
        src, dst = self.pinned_hosts()
        if None in (self.nw_proto, src, dst, self.tp_src, self.tp_dst):
            return None
        return FlowKey(self.nw_proto, src, dst, self.tp_src, self.tp_dst)

    def reversed(self) -> "FlowPattern":
        """The pattern matching the opposite packet direction of the same flows."""
        return FlowPattern(self.nw_proto, self._dst_text, self._src_text, self.tp_dst, self.tp_src)

    # -- matching -------------------------------------------------------------

    def matches(self, key: FlowKey) -> bool:
        """Return True when the concrete flow *key* falls inside this pattern."""
        if self.nw_proto is not None and key.nw_proto != self.nw_proto:
            return False
        if self.tp_src is not None and key.tp_src != self.tp_src:
            return False
        if self.tp_dst is not None and key.tp_dst != self.tp_dst:
            return False
        if self._src_prefix is not None and not self._src_prefix.contains_ip(key.nw_src):
            return False
        if self._dst_prefix is not None and not self._dst_prefix.contains_ip(key.nw_dst):
            return False
        return True

    def matches_either_direction(self, key: FlowKey) -> bool:
        """Return True when the pattern matches *key* or its reverse direction.

        Middleboxes index connection state bidirectionally, so state selection
        by pattern must consider both packet directions.
        """
        return self.matches(key) or self.matches(key.reversed())

    # -- dunder protocol ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowPattern):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.as_dict().items())))

    def __iter__(self) -> Iterator[Tuple[str, object]]:
        return iter(self.as_dict().items())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value}" for name, value in self.as_dict().items())
        return f"FlowPattern({fields or '*'})"
