"""Passive network monitor (a PRADS-like middlebox).

PRADS, the monitor used in the paper's scaling scenario, keeps two kinds of
state:

* a *per-flow reporting* record per connection (packet and byte counters,
  timestamps, the service detected on the flow) — this is what
  ``moveInternal`` relocates during scale-up and scale-down; and
* a *shared reporting* structure (``prads_stat`` in PRADS) of aggregate
  counters across all traffic — this is what ``mergeInternal`` combines during
  scale-down, by adding the counter values (exactly how the paper's modified
  PRADS handles ``putSharedReport``).

The monitor is passive: every packet is forwarded unmodified.  The collective
statistics of any set of monitor instances must equal those of a single
instance that saw all the traffic — the invariant the correctness experiment
(section 8.2) checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.flowspace import PROTO_ICMP, PROTO_TCP, PROTO_UDP, FlowKey
from ..core.southbound import ProcessingCosts
from ..core.state import SharedStateSlot, StateRole, StateScope
from ..net.packet import Packet, SYN
from ..net.simulator import Simulator
from .base import FULL_GRANULARITY, Middlebox, ProcessResult, Verdict

#: Well-known service names by destination port, used for asset detection.
SERVICE_PORTS: Dict[int, str] = {
    80: "http",
    443: "https",
    22: "ssh",
    25: "smtp",
    53: "dns",
    143: "imap",
    3306: "mysql",
    8080: "http-alt",
}


@dataclass
class FlowRecord:
    """Per-flow reporting state: one record per observed connection."""

    key: FlowKey
    packets: int = 0
    bytes: int = 0
    first_seen: float = 0.0
    last_seen: float = 0.0
    service: Optional[str] = None
    syn_seen: bool = False


@dataclass
class MonitorStats:
    """Shared reporting state: aggregate counters across all traffic."""

    total_packets: int = 0
    total_bytes: int = 0
    tcp_packets: int = 0
    udp_packets: int = 0
    icmp_packets: int = 0
    flows_seen: int = 0
    #: Detected assets: host address -> sorted list of services observed.
    assets: Dict[str, List[str]] = field(default_factory=dict)

    def record_asset(self, host: str, service: str) -> bool:
        """Record a service observed on a host; returns True when it is new."""
        services = self.assets.setdefault(host, [])
        if service in services:
            return False
        services.append(service)
        services.sort()
        return True

    @staticmethod
    def merge(existing: "MonitorStats", incoming: "MonitorStats") -> "MonitorStats":
        """Counter addition plus asset union — the paper's putSharedReport behaviour."""
        merged = MonitorStats(
            total_packets=existing.total_packets + incoming.total_packets,
            total_bytes=existing.total_bytes + incoming.total_bytes,
            tcp_packets=existing.tcp_packets + incoming.tcp_packets,
            udp_packets=existing.udp_packets + incoming.udp_packets,
            icmp_packets=existing.icmp_packets + incoming.icmp_packets,
            flows_seen=existing.flows_seen + incoming.flows_seen,
        )
        merged.assets = {host: list(services) for host, services in existing.assets.items()}
        for host, services in incoming.assets.items():
            for service in services:
                merged.record_asset(host, service)
        return merged


#: Introspection event codes raised by the monitor.
EVENT_ASSET_DETECTED = "monitor.asset_detected"
EVENT_FLOW_SEEN = "monitor.flow_seen"


class PassiveMonitor(Middlebox):
    """A PRADS-like passive monitoring middlebox."""

    MB_TYPE = "monitor"
    STATE = {
        (StateRole.REPORTING, StateScope.PER_FLOW): FlowRecord,
        (StateRole.REPORTING, StateScope.SHARED): MonitorStats,
    }

    #: Default cost model: shallow per-flow state, so gets/puts are cheaper than the IDS.
    DEFAULT_COSTS = ProcessingCosts(
        packet_processing=120e-6,
        get_per_chunk=300e-6,
        put_per_chunk=50e-6,
        get_scan_per_entry=1.0e-6,
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        costs: Optional[ProcessingCosts] = None,
        granularity: Sequence[str] = FULL_GRANULARITY,
        indexed_store: bool = False,
    ) -> None:
        super().__init__(
            sim,
            name,
            costs=costs or ProcessingCosts(**vars(self.DEFAULT_COSTS)),
            granularity=granularity,
            indexed_store=indexed_store,
        )
        self.shared_report = SharedStateSlot(MonitorStats(), merge=MonitorStats.merge)
        self.config.set("Monitor.PromiscuousMode", [True])
        self.config.set("Monitor.ServicePorts", [f"{port}:{name_}" for port, name_ in sorted(SERVICE_PORTS.items())])

    # -- packet processing -----------------------------------------------------------------

    def process_packet(self, packet: Packet) -> ProcessResult:
        key = packet.flow_key()
        canonical = key.bidirectional()
        stats: MonitorStats = self.shared_report.value
        record = self.report_store.get(canonical)
        new_flow = record is None
        if new_flow:
            record = FlowRecord(key=canonical, first_seen=self.sim.now)
            self.report_store.put(canonical, record)
            if not self.is_reprocessing:
                self.raise_event(EVENT_FLOW_SEEN, key=key)
        record.packets += 1
        record.bytes += packet.wire_size
        record.last_seen = self.sim.now
        if packet.has_flag(SYN):
            record.syn_seen = True
        service = SERVICE_PORTS.get(packet.tp_dst) or SERVICE_PORTS.get(packet.tp_src)
        if service is not None and record.service is None:
            record.service = service

        # Shared reporting state (the prads_stat equivalent).  Replayed packets
        # normally do NOT update shared counters: the source instance already
        # counted them, and counting them again would double-report.  The one
        # exception is a replay raised during a shared-state merge: the source's
        # post-snapshot counter updates will be discarded with the source, so
        # they must be applied here to avoid under-reporting.
        if not self.is_reprocessing or self.reprocess_covers_shared:
            stats.total_packets += 1
            stats.total_bytes += packet.wire_size
            if packet.nw_proto == PROTO_TCP:
                stats.tcp_packets += 1
            elif packet.nw_proto == PROTO_UDP:
                stats.udp_packets += 1
            elif packet.nw_proto == PROTO_ICMP:
                stats.icmp_packets += 1
            if new_flow:
                stats.flows_seen += 1
            if service is not None:
                server = packet.nw_dst if SERVICE_PORTS.get(packet.tp_dst) else packet.nw_src
                if stats.record_asset(server, service):
                    self.raise_event(EVENT_ASSET_DETECTED, key=key, host=server, service=service)

        return ProcessResult(
            verdict=Verdict.FORWARD,
            updated_flows=[key],
            updated_shared=not self.is_reprocessing,
        )

    # -- monitor-specific reporting --------------------------------------------------------------

    def statistics(self) -> dict:
        """Aggregate statistics equivalent to PRADS's textual stats output.

        Combines the shared reporting counters with per-flow reporting records
        currently resident at this instance.
        """
        stats: MonitorStats = self.shared_report.value
        return {
            "total_packets": stats.total_packets,
            "total_bytes": stats.total_bytes,
            "tcp_packets": stats.tcp_packets,
            "udp_packets": stats.udp_packets,
            "icmp_packets": stats.icmp_packets,
            "flows_seen": stats.flows_seen,
            "assets": {host: list(services) for host, services in sorted(stats.assets.items())},
            "resident_flow_records": len(self.report_store),
        }

    def flow_records(self) -> List[FlowRecord]:
        """All per-flow reporting records currently resident at this instance."""
        return [record for _, record in self.report_store.items()]


def combined_statistics(monitors: Sequence[PassiveMonitor]) -> dict:
    """Combine the statistics of several monitor instances.

    Used by the correctness experiment: the combination over all instances
    (after any scaling activity) must equal the statistics of one unmodified
    monitor that processed the whole trace.  Per-flow records that moved
    between instances are counted once because ``flows_seen`` travels with the
    shared reporting state merge, not with the per-flow records.
    """
    total = MonitorStats()
    for monitor in monitors:
        total = MonitorStats.merge(total, monitor.shared_report.value)
    return {
        "total_packets": total.total_packets,
        "total_bytes": total.total_bytes,
        "tcp_packets": total.tcp_packets,
        "udp_packets": total.udp_packets,
        "icmp_packets": total.icmp_packets,
        "flows_seen": total.flows_seen,
        "assets": {host: list(services) for host, services in sorted(total.assets.items())},
    }
