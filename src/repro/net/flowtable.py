"""OpenFlow-style flow tables: prioritized match/action rules.

Switches forward packets according to the highest-priority rule whose
:class:`~repro.core.flowspace.FlowPattern` matches the packet.  Rules carry
a cookie so the SDN controller can remove everything it installed for one
routing decision in a single call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.flowspace import FlowPattern
from .packet import Packet

#: Distinct header tuples a :class:`FlowTable` remembers between two table
#: changes.  Reaching the bound clears the cache wholesale: the hit path
#: carries no recency bookkeeping, and a miss only costs the linear scan.
EXACT_MATCH_CACHE_LIMIT = 4096


class ActionType(enum.Enum):
    """What a switch does with a matching packet."""

    OUTPUT = "output"
    DROP = "drop"
    BUFFER = "buffer"


@dataclass(frozen=True)
class Action:
    """One forwarding action; ``port`` is meaningful only for OUTPUT."""

    type: ActionType
    port: Optional[int] = None

    @classmethod
    def output(cls, port: int) -> "Action":
        return cls(ActionType.OUTPUT, port)

    @classmethod
    def drop(cls) -> "Action":
        return cls(ActionType.DROP)


@dataclass(eq=False)
class FlowRule:
    """One flow-table entry; two rules are equal only when they are the same object."""

    pattern: FlowPattern
    actions: List[Action]
    priority: int = 100
    cookie: str = ""
    packets_matched: int = 0
    bytes_matched: int = 0
    installed_at: float = 0.0

    def matches(self, packet: Packet) -> bool:
        return self.pattern.matches(packet.flow_key())

    def record(self, packet: Packet) -> None:
        self.packets_matched += 1
        self.bytes_matched += packet.wire_size


class FlowTable:
    """A prioritized rule list with longest-priority-first matching.

    :meth:`lookup` is fronted by an OVS-style exact-match cache: the packet's
    five header values map to the winning rule (or ``None`` for a miss), so
    only the first packet of a flow after a table change pays the linear scan.
    The key is exactly the fields :meth:`FlowPattern.matches
    <repro.core.flowspace.FlowPattern.matches>` reads — a match field added
    there must join the key — and a rule's pattern and priority must not
    change while it is installed.  Every mutator drops the whole cache through
    :meth:`_invalidate`, the one invalidation point.
    """

    def __init__(self) -> None:
        self._rules: List[FlowRule] = []
        self._cache: Dict[tuple, Optional[FlowRule]] = {}

    def _invalidate(self) -> None:
        """The rule list changed: forget every cached lookup."""
        self._cache.clear()

    def add(self, rule: FlowRule) -> FlowRule:
        """Install *rule*, keeping the table ordered by descending priority.

        Ties break toward the more specific pattern, then toward the most
        recently installed rule (so a re-route of the same pattern wins).
        """
        self._rules.insert(0, rule)  # the sort is stable: ahead of every equal rule installed before it
        self._rules.sort(key=lambda r: (-r.priority, -r.pattern.specificity))
        self._invalidate()
        return rule

    def remove_by_cookie(self, cookie: str) -> int:
        """Remove every rule with the given cookie; returns how many were removed."""
        before = len(self._rules)
        self._rules = [rule for rule in self._rules if rule.cookie != cookie]
        self._invalidate()
        return before - len(self._rules)

    def lookup(self, packet: Packet) -> Optional[FlowRule]:
        """Return the matching rule with the highest priority, or None on a miss."""
        key = (packet.nw_proto, packet.nw_src, packet.nw_dst, packet.tp_src, packet.tp_dst)
        cache = self._cache
        try:
            return cache[key]
        except KeyError:
            pass
        winner = next((rule for rule in self._rules if rule.matches(packet)), None)
        if len(cache) >= EXACT_MATCH_CACHE_LIMIT:
            cache.clear()
        cache[key] = winner
        return winner

    def rules(self) -> List[FlowRule]:
        """The installed rules in match order (a copy)."""
        return list(self._rules)
