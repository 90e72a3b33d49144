"""Stateful firewall.

The firewall exercises the *configuration* corner of the state taxonomy: its
rule set is configuration state (owned and written by the controller, only
read by the middlebox), while its table of established connections is per-flow
supporting state that must move with flows during migration so that return
traffic of connections admitted before the move is not dropped afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.flowspace import FlowKey, FlowPattern
from ..core.southbound import ProcessingCosts
from ..core.state import StateRole, StateScope
from ..net.packet import Packet
from ..net.simulator import Simulator
from .base import Middlebox, ProcessResult, Verdict

EVENT_CONNECTION_ALLOWED = "fw.connection_allowed"
EVENT_PACKET_DENIED = "fw.packet_denied"


@dataclass
class FirewallRule:
    """One configured rule: a pattern and an allow/deny action."""

    pattern: FlowPattern
    allow: bool

    def to_config_value(self) -> str:
        action = "allow" if self.allow else "deny"
        fields = ",".join(f"{name}={value}" for name, value in self.pattern.as_dict().items()) or "*"
        return f"{action} {fields}"

    @classmethod
    def from_config_value(cls, value: str) -> "FirewallRule":
        action, _, fields = value.partition(" ")
        pattern = FlowPattern.parse(fields if fields and fields != "*" else None)
        return cls(pattern=pattern, allow=action.strip().lower() == "allow")


@dataclass
class ConnectionEntry:
    """Per-flow supporting state: an admitted connection."""

    key: FlowKey
    admitted_at: float = 0.0
    packets: int = 0


class Firewall(Middlebox):
    """A stateful firewall with an ordered allow/deny rule list."""

    MB_TYPE = "firewall"
    STATE = {(StateRole.SUPPORTING, StateScope.PER_FLOW): ConnectionEntry}

    DEFAULT_COSTS = ProcessingCosts(packet_processing=70e-6, get_per_chunk=130e-6, put_per_chunk=25e-6)

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        rules: Sequence[FirewallRule] = (),
        default_allow: bool = False,
        costs: Optional[ProcessingCosts] = None,
    ) -> None:
        super().__init__(sim, name, costs=costs or ProcessingCosts(**vars(self.DEFAULT_COSTS)))
        self.config.set("FW.DefaultAllow", [default_allow])
        self.config.set("FW.Rules", [rule.to_config_value() for rule in rules])
        self.denied_packets = 0

    # -- configuration ------------------------------------------------------------------------

    def rules(self) -> List[FirewallRule]:
        """The configured rule list, in evaluation order."""
        return [FirewallRule.from_config_value(str(value)) for value in self.config.get_values("FW.Rules")]

    @property
    def default_allow(self) -> bool:
        return bool(self.config.get_scalar("FW.DefaultAllow", False))

    # -- packet processing -----------------------------------------------------------------------

    def process_packet(self, packet: Packet) -> ProcessResult:
        key = packet.flow_key()
        canonical = key.bidirectional()
        entry = self.support_store.get(canonical)
        if entry is not None:
            entry.packets += 1
            return ProcessResult(verdict=Verdict.FORWARD, updated_flows=[key])
        if self._admit(key):
            entry = ConnectionEntry(key=canonical, admitted_at=self.sim.now, packets=1)
            self.support_store.put(canonical, entry)
            if not self.is_reprocessing:
                self.raise_event(EVENT_CONNECTION_ALLOWED, key=key)
            return ProcessResult(verdict=Verdict.FORWARD, updated_flows=[key])
        self.denied_packets += 1
        if not self.is_reprocessing:
            self.raise_event(EVENT_PACKET_DENIED, key=key)
        return ProcessResult(verdict=Verdict.DROP, updated_flows=[])

    def _admit(self, key: FlowKey) -> bool:
        for rule in self.rules():
            if rule.pattern.matches(key):
                return rule.allow
        return self.default_allow
