"""Network address translator.

The NAT is the paper's running example for introspection events and failure
recovery: its address/port mappings are the *critical* per-flow supporting
state that a failover application wants to learn about as soon as they are
created (requirement R6), so a replacement instance can be bootstrapped with a
minimal live snapshot while non-critical state (mapping timeouts) restarts at
default values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..core.errors import MiddleboxError
from ..core.flowspace import FlowKey
from ..core.southbound import ProcessingCosts
from ..core.state import StateRole, StateScope
from ..net.packet import Packet
from ..net.simulator import Simulator
from .base import FULL_GRANULARITY, Middlebox, ProcessResult, Verdict

EVENT_MAPPING_CREATED = "nat.mapping_created"
EVENT_MAPPING_EXPIRED = "nat.mapping_expired"

#: Default idle timeout for mappings (seconds) — non-critical state.
DEFAULT_MAPPING_TIMEOUT = 120.0


@dataclass
class NatMapping:
    """Per-flow supporting state: one address/port translation."""

    internal_ip: str
    internal_port: int
    external_ip: str
    external_port: int
    created_at: float = 0.0
    last_used: float = 0.0


class NAT(Middlebox):
    """A source NAT translating internal addresses to one external address."""

    MB_TYPE = "nat"
    STATE = {(StateRole.SUPPORTING, StateScope.PER_FLOW): NatMapping}

    DEFAULT_COSTS = ProcessingCosts(packet_processing=80e-6, get_per_chunk=150e-6, put_per_chunk=30e-6)

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        external_ip: str = "203.0.113.1",
        port_range: Tuple[int, int] = (10_000, 60_000),
        internal_prefix: str = "10.0.0.0/8",
        costs: Optional[ProcessingCosts] = None,
        granularity: Sequence[str] = FULL_GRANULARITY,
    ) -> None:
        super().__init__(
            sim, name, costs=costs or ProcessingCosts(**vars(self.DEFAULT_COSTS)), granularity=granularity
        )
        self.config.set("NAT.ExternalIP", [external_ip])
        self.config.set("NAT.PortRangeStart", [port_range[0]])
        self.config.set("NAT.PortRangeEnd", [port_range[1]])
        self.config.set("NAT.InternalPrefix", [internal_prefix])
        self.config.set("NAT.MappingTimeout", [DEFAULT_MAPPING_TIMEOUT])
        self._next_port = port_range[0]
        #: External (ip, port) -> internal flow key, for translating return traffic.
        self._reverse: Dict[Tuple[str, int], FlowKey] = {}
        #: Critical-state restore table: (internal ip, internal port) -> (external ip, external port).
        #: Populated from the ``NAT.StaticMappings`` configuration key, which the
        #: failure-recovery application writes when bootstrapping a replacement.
        self._static_mappings: Dict[Tuple[str, int], Tuple[str, int]] = {}

    # -- configuration behaviour --------------------------------------------------------------

    def on_config_changed(self, key: str) -> None:
        if key in ("NAT.StaticMappings", "*"):
            self._load_static_mappings()

    def _load_static_mappings(self) -> None:
        """Parse ``internal_ip:port=external_ip:port`` entries from configuration."""
        if not self.config.has("NAT.StaticMappings"):
            return
        self._static_mappings.clear()
        for value in self.config.get_values("NAT.StaticMappings"):
            internal, _, external = str(value).partition("=")
            internal_ip, _, internal_port = internal.partition(":")
            external_ip, _, external_port = external.partition(":")
            if not (internal_ip and internal_port and external_ip and external_port):
                continue
            self._static_mappings[(internal_ip, int(internal_port))] = (external_ip, int(external_port))
            # Keep dynamic allocation clear of restored ports.
            self._next_port = max(self._next_port, int(external_port) + 1)

    # -- helpers -----------------------------------------------------------------------------

    @property
    def external_ip(self) -> str:
        return str(self.config.get_scalar("NAT.ExternalIP"))

    def _allocate_port(self) -> int:
        start = int(self.config.get_scalar("NAT.PortRangeStart", 10_000))
        end = int(self.config.get_scalar("NAT.PortRangeEnd", 60_000))
        if self._next_port < start:
            self._next_port = start
        if self._next_port > end:
            raise MiddleboxError(f"{self.name}: NAT port range exhausted")
        port = self._next_port
        self._next_port += 1
        return port

    def _is_internal(self, address: str) -> bool:
        from ..core.flowspace import IPv4Prefix

        prefix = IPv4Prefix.parse(str(self.config.get_scalar("NAT.InternalPrefix", "10.0.0.0/8")))
        return prefix.contains_ip(address)

    # -- packet processing -------------------------------------------------------------------

    def process_packet(self, packet: Packet) -> ProcessResult:
        key = packet.flow_key()
        if self._is_internal(packet.nw_src):
            return self._outbound(packet, key)
        return self._inbound(packet, key)

    def _outbound(self, packet: Packet, key: FlowKey) -> ProcessResult:
        canonical = key.bidirectional()
        mapping = self.support_store.get(canonical)
        created = False
        if mapping is None:
            restored = self._static_mappings.get((packet.nw_src, packet.tp_src))
            external_ip = restored[0] if restored else self.external_ip
            external_port = restored[1] if restored else self._allocate_port()
            mapping = NatMapping(
                internal_ip=packet.nw_src,
                internal_port=packet.tp_src,
                external_ip=external_ip,
                external_port=external_port,
                created_at=self.sim.now,
            )
            self.support_store.put(canonical, mapping)
            created = True
        mapping.last_used = self.sim.now
        self._reverse[(mapping.external_ip, mapping.external_port)] = canonical
        translated = packet.copy()
        translated.nw_src = mapping.external_ip
        translated.tp_src = mapping.external_port
        if created and not self.is_reprocessing:
            self.raise_event(
                EVENT_MAPPING_CREATED,
                key=key,
                external_ip=mapping.external_ip,
                external_port=mapping.external_port,
            )
        return ProcessResult(verdict=Verdict.FORWARD, packet=translated, updated_flows=[key])

    def _inbound(self, packet: Packet, key: FlowKey) -> ProcessResult:
        reverse_key = self._reverse.get((packet.nw_dst, packet.tp_dst))
        if reverse_key is None:
            # No mapping: the packet is unsolicited and is dropped.
            return ProcessResult(verdict=Verdict.DROP, updated_flows=[])
        mapping = self.support_store.get(reverse_key)
        if mapping is None:
            return ProcessResult(verdict=Verdict.DROP, updated_flows=[])
        mapping.last_used = self.sim.now
        translated = packet.copy()
        translated.nw_dst = mapping.internal_ip
        translated.tp_dst = mapping.internal_port
        return ProcessResult(verdict=Verdict.FORWARD, packet=translated, updated_flows=[reverse_key])

    # -- maintenance ----------------------------------------------------------------------------

    def expire_idle_mappings(self) -> int:
        """Remove mappings idle longer than the configured timeout; returns count removed."""
        timeout = float(self.config.get_scalar("NAT.MappingTimeout", DEFAULT_MAPPING_TIMEOUT))
        expired = []
        for key, mapping in self.support_store.items():
            if self.sim.now - mapping.last_used > timeout:
                expired.append((key, mapping))
        for key, mapping in expired:
            self.support_store.remove(key)
            self._reverse.pop((mapping.external_ip, mapping.external_port), None)
            self.raise_event(EVENT_MAPPING_EXPIRED, key=key)
        return len(expired)

    def put_perflow(self, chunk, *, round=None) -> None:  # type: ignore[override]
        super().put_perflow(chunk, round=round)
        mapping = self.support_store.get(chunk.key)
        if isinstance(mapping, NatMapping):
            self._reverse[(mapping.external_ip, mapping.external_port)] = self.support_store.canonical_key(chunk.key)
            # Keep port allocation clear of imported mappings.
            self._next_port = max(self._next_port, mapping.external_port + 1)
