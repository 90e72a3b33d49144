"""OpenFlow-style switch.

A switch forwards packets according to its :class:`~repro.net.flowtable.FlowTable`.
Misses go to the registered packet-in handler (the SDN controller) or are
dropped.  The switch also implements packet buffering for patterns the
Split/Merge baseline suspends, and keeps counters used by the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..core.errors import NetworkError
from ..core.flowspace import FlowPattern
from .flowtable import Action, ActionType, FlowRule, FlowTable
from .packet import Packet
from .simulator import Simulator
from .topology import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .protection import LinkProtection, ProtectionConfig

#: Per-packet forwarding latency through the switch fabric (seconds).
DEFAULT_FORWARD_LATENCY = 5e-6


@dataclass
class SwitchStats:
    """Aggregate counters for one switch."""

    packets_in: int = 0
    packets_forwarded: int = 0
    packets_dropped: int = 0
    packets_to_controller: int = 0
    packets_buffered: int = 0
    bytes_forwarded: int = 0
    table_misses: int = 0


@dataclass
class _BufferedPacket:
    packet: Packet
    in_port: int
    buffered_at: float


class Switch(Node):
    """A programmable switch with a single flow table."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        forward_latency: float = DEFAULT_FORWARD_LATENCY,
        default_action: Action = Action.drop(),
    ) -> None:
        super().__init__(sim, name)
        self.table = FlowTable()
        self.forward_latency = forward_latency
        self.default_action = default_action
        self.stats = SwitchStats()
        self._packet_in_handler: Optional[Callable[["Switch", Packet, int], None]] = None
        self._buffers: Dict[FlowPattern, List[_BufferedPacket]] = {}

    # -- control-plane interface -------------------------------------------------

    def set_packet_in_handler(self, handler: Callable[["Switch", Packet, int], None]) -> None:
        """Register the handler invoked for CONTROLLER actions and table misses."""
        self._packet_in_handler = handler

    def install_rule(self, rule: FlowRule) -> FlowRule:
        """Install a flow rule immediately (the SDN controller adds install latency)."""
        rule.installed_at = self.sim.now
        return self.table.add(rule)

    def remove_rules_by_cookie(self, cookie: str) -> int:
        return self.table.remove_by_cookie(cookie)

    # -- buffering (used by the Split/Merge baseline) -----------------------------

    def buffer_pattern(self, pattern: FlowPattern) -> None:
        """Start buffering packets that match *pattern* instead of forwarding them."""
        self._buffers.setdefault(pattern, [])

    def release_pattern(self, pattern: FlowPattern) -> List[Tuple[Packet, float]]:
        """Stop buffering *pattern* and re-inject held packets through the pipeline.

        Released packets take the same path as a fresh arrival: they are
        re-checked against the patterns still buffering (a packet matching an
        overlapping suspended pattern is re-buffered, preserving Split/Merge
        suspend semantics) and otherwise pay the ``forward_latency`` hop
        before the table lookup — release is not a free shortcut through the
        fabric.

        Returns ``(packet, buffered_duration)`` pairs so callers can account
        for the extra latency the buffering introduced.
        """
        held = self._buffers.pop(pattern, [])
        released: List[Tuple[Packet, float]] = []
        for entry in held:
            duration = self.sim.now - entry.buffered_at
            released.append((entry.packet, duration))
            if self._buffer_if_matched(entry.packet, entry.in_port):
                continue
            self.sim.schedule(self.forward_latency, self._apply_pipeline, entry.packet, entry.in_port)
        return released

    def buffered_count(self, pattern: Optional[FlowPattern] = None) -> int:
        """Number of packets currently buffered (for one pattern or in total)."""
        if pattern is not None:
            return len(self._buffers.get(pattern, []))
        return sum(len(held) for held in self._buffers.values())

    # -- link-local protection (LinkGuardian) -------------------------------------

    def protect_port(self, port: int, config: Optional["ProtectionConfig"] = None) -> "LinkProtection":
        """Enable LinkGuardian-style loss recovery on the link behind *port*."""
        link = self.ports.get(port)
        if link is None:
            raise NetworkError(f"{self.name} has no link on port {port}")
        return link.enable_protection(config)

    # -- data plane ----------------------------------------------------------------

    def _buffer_if_matched(self, packet: Packet, in_port: int) -> bool:
        """Buffer *packet* under the first matching suspended pattern.

        First match wins, in pattern-insertion order — the contract
        Split/Merge relies on when overlapping patterns are suspended.
        """
        for pattern, held in self._buffers.items():
            if pattern.matches(packet.flow_key()):
                held.append(_BufferedPacket(packet, in_port, self.sim.now))
                self.stats.packets_buffered += 1
                return True
        return False

    def receive(self, packet: Packet, in_port: int) -> None:
        self.stats.packets_in += 1
        if self._buffer_if_matched(packet, in_port):
            return
        self.sim.schedule(self.forward_latency, self._apply_pipeline, packet, in_port)

    def _apply_pipeline(self, packet: Packet, in_port: int) -> None:
        rule = self.table.lookup(packet)
        if rule is None:
            self.stats.table_misses += 1
            self._apply_actions(packet, in_port, [self.default_action])
            return
        rule.record(packet)
        self._apply_actions(packet, in_port, rule.actions)

    def _apply_actions(self, packet: Packet, in_port: int, actions: List[Action]) -> None:
        for action in actions:
            if action.type is ActionType.OUTPUT:
                if action.port == in_port:
                    # never reflect a packet back out of the port it arrived on
                    self.stats.packets_dropped += 1
                    continue
                self.stats.packets_forwarded += 1
                self.stats.bytes_forwarded += packet.wire_size
                self.send_out(action.port, packet)
            elif action.type is ActionType.DROP:
                self.stats.packets_dropped += 1
            elif action.type is ActionType.CONTROLLER:
                self.stats.packets_to_controller += 1
                if self._packet_in_handler is not None:
                    self._packet_in_handler(self, packet, in_port)
            elif action.type is ActionType.BUFFER:
                self._buffers.setdefault(FlowPattern.from_flow(packet.flow_key()), []).append(
                    _BufferedPacket(packet, in_port, self.sim.now)
                )
                self.stats.packets_buffered += 1
