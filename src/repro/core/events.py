"""State events: packet re-processing and introspection.

Section 4.2 of the paper augments the southbound API with events raised by
middleboxes when they establish or manipulate state:

* **Re-process events** (section 4.2.1) — raised while a move or clone is in
  progress (and until the corresponding routing change takes effect) whenever
  a packet updates state that was exported.  The event carries the packet; the
  destination middlebox re-processes it *without external side effects*, which
  is how OpenMB achieves atomicity without suspending traffic.
* **Introspection events** (section 4.2.2) — MB-specific notifications (a NAT
  created a mapping, a load balancer assigned a flow to a server).  They carry
  an event code, the key of the affected state, and MB-specific values, and
  can be enabled or disabled per code and per flow pattern so the controller
  and network are not overloaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .flowspace import FlowKey, FlowPattern
from ..net.packet import Packet


class EventCode:
    """Well-known event codes.  Middleboxes define additional codes."""

    #: A packet updated state that is being (or was) moved or cloned.
    REPROCESS = "openmb.reprocess"
    #: Generic "state created" introspection code prefix.
    STATE_CREATED = "openmb.state_created"
    #: Generic "state updated" introspection code prefix.
    STATE_UPDATED = "openmb.state_updated"
    #: Generic "state removed" introspection code prefix.
    STATE_REMOVED = "openmb.state_removed"
    #: Controller-originated: a middlebox instance was declared dead (crash or
    #: missed liveness deadline).  ``values["reason"]`` carries the cause.
    INSTANCE_DOWN = "openmb.instance_down"


@dataclass
class Event:
    """One event raised by a middlebox."""

    mb_name: str
    code: str
    key: Optional[FlowKey] = None
    packet: Optional[Packet] = None
    values: Dict[str, object] = field(default_factory=dict)
    raised_at: float = 0.0
    event_id: int = 0  # numbered by the controller that decodes (or raises) it; 0 until then
    #: True for shared-state re-process events (no per-flow key applies).
    shared: bool = False

    @property
    def is_reprocess(self) -> bool:
        return self.code == EventCode.REPROCESS


class EventFilter:
    """Controls which introspection events a middlebox generates.

    Re-process events are never filtered (they are required for correctness);
    introspection events are generated only when a subscription matching their
    code and key is active.  Subscriptions may carry an expiry time, matching
    the paper's "receive all events only for a limited period of time".
    """

    def __init__(self) -> None:
        self._subscriptions: List[Tuple[str, FlowPattern, Optional[float]]] = []

    def enable(self, code: str, pattern: Optional[FlowPattern] = None, *, until: Optional[float] = None) -> None:
        """Enable events with *code* for flows matching *pattern* (default: all)."""
        self._subscriptions.append((code, pattern or FlowPattern.wildcard(), until))

    def disable(self, code: str, pattern: Optional[FlowPattern] = None) -> int:
        """Remove subscriptions for *code* (and pattern, when given); returns count removed."""
        before = len(self._subscriptions)
        self._subscriptions = [
            (existing_code, existing_pattern, until)
            for existing_code, existing_pattern, until in self._subscriptions
            if not (existing_code == code and (pattern is None or existing_pattern == pattern))
        ]
        return before - len(self._subscriptions)

    def allows(self, event: Event, now: float = 0.0) -> bool:
        """Return True when *event* should be generated at simulated time *now*."""
        if event.is_reprocess:
            return True
        for code, pattern, until in self._subscriptions:
            if code != event.code:
                continue
            if until is not None and now > until:
                continue
            if event.key is None or pattern.matches_either_direction(event.key):
                return True
        return False
