"""Intrusion detection system (a Bro-like middlebox).

Bro is the IDS used in the paper's live-migration and VM-snapshot experiments.
The reproduction keeps the properties those experiments rely on:

* a per-flow *supporting* state tree per connection — TCP state machine,
  per-direction packet/byte counters, a connection history string, and the
  HTTP transactions reassembled on the flow (Bro's ``Connection`` object and
  the object tree hanging off it);
* shared *supporting* state used by scan detection (per-source sets of
  contacted destinations);
* ``conn.log`` and ``http.log`` outputs whose entries are produced when
  connections complete (or when the instance is finalised), which the
  correctness experiment compares between an unmodified instance and
  OpenMB-enabled instances;
* anomaly entries when a connection disappears without completing — the
  behaviour that makes VM-snapshot migration produce thousands of "incorrect
  entries" in section 8.1.2, because migrated flows terminate abruptly at the
  instance that no longer sees them.  Connections removed by a controller
  delete after a successful move are flagged as *moved* (the paper's moved
  flag) and produce no such entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.flowspace import PROTO_TCP, FlowKey, FlowPattern
from ..core.southbound import ProcessingCosts
from ..core.state import SharedStateSlot, StateRole, StateScope
from ..net.packet import ACK, FIN, RST, SYN, Packet
from ..net.simulator import Simulator
from .base import FULL_GRANULARITY, Middlebox, ProcessResult, Verdict

#: Conn-state labels (a subset of Bro's).
STATE_ATTEMPT = "S0"  # SYN seen, no reply
STATE_ESTABLISHED = "S1"  # handshake complete, not yet closed
STATE_CLOSED = "SF"  # normal close (FIN exchange)
STATE_RESET = "RSTO"  # closed by RST
STATE_INCOMPLETE = "INCOMPLETE"  # disappeared without closing (anomaly)
STATE_MOVED = "MOVED"  # removed because its state was migrated elsewhere

#: Scan detection threshold: distinct destinations contacted by one source.
SCAN_THRESHOLD = 25

EVENT_CONNECTION_ESTABLISHED = "ids.connection_established"
EVENT_SCAN_DETECTED = "ids.scan_detected"


@dataclass
class HttpTransaction:
    """One HTTP request/response pair reassembled on a connection."""

    method: str = ""
    uri: str = ""
    host: str = ""
    status: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    complete: bool = False


@dataclass
class Connection:
    """Per-flow supporting state: the IDS's view of one transport connection."""

    key: FlowKey
    state: str = STATE_ATTEMPT
    orig_packets: int = 0
    resp_packets: int = 0
    orig_bytes: int = 0
    resp_bytes: int = 0
    start_time: float = 0.0
    last_time: float = 0.0
    history: str = ""
    service: str = ""
    http: List[HttpTransaction] = field(default_factory=list)
    moved: bool = False
    logged: bool = False


@dataclass(frozen=True)
class ConnLogEntry:
    """One ``conn.log`` record."""

    orig_host: str
    orig_port: int
    resp_host: str
    resp_port: int
    proto: int
    service: str
    conn_state: str
    orig_packets: int
    resp_packets: int
    orig_bytes: int
    resp_bytes: int


@dataclass(frozen=True)
class HttpLogEntry:
    """One ``http.log`` record."""

    orig_host: str
    resp_host: str
    method: str
    uri: str
    host: str
    status: int
    request_bytes: int
    response_bytes: int


@dataclass
class ScanTable:
    """Shared supporting state: destinations contacted per source (scan detection)."""

    contacted: Dict[str, List[str]] = field(default_factory=dict)

    def record(self, source: str, destination: str) -> int:
        """Record a contact; returns the number of distinct destinations for the source."""
        destinations = self.contacted.setdefault(source, [])
        if destination not in destinations:
            destinations.append(destination)
        return len(destinations)

    @staticmethod
    def merge(existing: "ScanTable", incoming: "ScanTable") -> "ScanTable":
        merged = ScanTable(contacted={src: list(dsts) for src, dsts in existing.contacted.items()})
        for src, dsts in incoming.contacted.items():
            for dst in dsts:
                merged.record(src, dst)
        return merged


class IDS(Middlebox):
    """A Bro-like intrusion detection middlebox."""

    MB_TYPE = "ids"
    STATE = {
        (StateRole.SUPPORTING, StateScope.PER_FLOW): Connection,
        (StateRole.SUPPORTING, StateScope.SHARED): ScanTable,
    }

    #: Deep per-flow state makes gets and puts the most expensive of our middleboxes.
    DEFAULT_COSTS = ProcessingCosts(
        packet_processing=250e-6,
        get_per_chunk=800e-6,
        put_per_chunk=130e-6,
        get_scan_per_entry=2.0e-6,
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
        self.shared_support = SharedStateSlot(ScanTable(), merge=ScanTable.merge)
        self.conn_log: List[ConnLogEntry] = []
        self.http_log: List[HttpLogEntry] = []
        self.alerts: List[dict] = []
        self.config.set("IDS.ScanThreshold", [SCAN_THRESHOLD])
        self.config.set("IDS.HTTPPorts", [80, 8080])
        self.config.set("IDS.Rules", ["scan-detect", "http-analyze"])

    # =====================================================================================
    # Packet processing
    # =====================================================================================

    def process_packet(self, packet: Packet) -> ProcessResult:
        key = packet.flow_key()
        canonical = key.bidirectional()
        connection = self.support_store.get(canonical)
        is_new = connection is None
        if is_new:
            connection = Connection(key=canonical, start_time=self.sim.now)
            self.support_store.put(canonical, connection)
        assert connection is not None
        is_originator = key == canonical
        self._update_counters(connection, packet, is_originator)
        self._advance_tcp_state(connection, packet, is_originator)
        if self._is_http_port(packet):
            connection.service = "http"
            self._analyze_http(connection, packet, is_originator)
        updated_shared = False
        if is_new and not self.is_reprocessing:
            updated_shared = self._scan_detect(packet)
        if connection.state in (STATE_CLOSED, STATE_RESET) and not connection.logged:
            if self.is_reprocessing:
                # The source middlebox processed this packet normally and already
                # emitted the conn.log entry; emitting it here too would duplicate it.
                connection.logged = True
            else:
                self._log_connection(connection, connection.state)
        return ProcessResult(
            verdict=Verdict.FORWARD,
            updated_flows=[key],
            updated_shared=updated_shared,
        )

    def _update_counters(self, connection: Connection, packet: Packet, is_originator: bool) -> None:
        connection.last_time = self.sim.now
        if is_originator:
            connection.orig_packets += 1
            connection.orig_bytes += packet.payload_size
        else:
            connection.resp_packets += 1
            connection.resp_bytes += packet.payload_size

    def _advance_tcp_state(self, connection: Connection, packet: Packet, is_originator: bool) -> None:
        if packet.nw_proto != PROTO_TCP:
            connection.state = STATE_ESTABLISHED
            return
        if packet.has_flag(SYN) and is_originator:
            connection.history += "S"
            if connection.state == STATE_ATTEMPT and not self.is_reprocessing:
                self.raise_event(EVENT_CONNECTION_ESTABLISHED, key=connection.key)
        elif packet.has_flag(SYN) and not is_originator:
            connection.history += "h"
            connection.state = STATE_ESTABLISHED
        if packet.has_flag(ACK) and connection.state == STATE_ATTEMPT and not packet.has_flag(SYN):
            connection.state = STATE_ESTABLISHED
            connection.history += "A"
        if packet.has_flag(FIN):
            connection.history += "F" if is_originator else "f"
            if connection.history.count("F") and connection.history.count("f"):
                connection.state = STATE_CLOSED
        if packet.has_flag(RST):
            connection.history += "R" if is_originator else "r"
            connection.state = STATE_RESET

    def _is_http_port(self, packet: Packet) -> bool:
        http_ports = set(self.config.get_values("IDS.HTTPPorts"))
        return packet.tp_dst in http_ports or packet.tp_src in http_ports

    def _analyze_http(self, connection: Connection, packet: Packet, is_originator: bool) -> None:
        if not packet.payload:
            return
        try:
            text = packet.payload.decode("utf-8", errors="ignore")
        except Exception:  # pragma: no cover - decode with errors="ignore" cannot fail
            return
        if is_originator and self._looks_like_request(text):
            transaction = HttpTransaction(request_bytes=packet.payload_size)
            first_line = text.split("\r\n", 1)[0]
            parts = first_line.split(" ")
            if len(parts) >= 2:
                transaction.method = parts[0]
                transaction.uri = parts[1]
            for line in text.split("\r\n")[1:]:
                if line.lower().startswith("host:"):
                    transaction.host = line.split(":", 1)[1].strip()
            connection.http.append(transaction)
        elif is_originator and connection.http:
            connection.http[-1].request_bytes += packet.payload_size
        elif not is_originator and connection.http:
            transaction = connection.http[-1]
            if text.startswith("HTTP/") and not transaction.complete:
                parts = text.split(" ")
                if len(parts) >= 2 and parts[1][:3].isdigit():
                    transaction.status = int(parts[1][:3])
                transaction.complete = True
                transaction.response_bytes += packet.payload_size
                if not self.is_reprocessing:
                    self._log_http(connection, transaction)
            else:
                transaction.response_bytes += packet.payload_size

    @staticmethod
    def _looks_like_request(text: str) -> bool:
        return any(text.startswith(method + " ") for method in ("GET", "POST", "PUT", "DELETE", "HEAD"))

    def _scan_detect(self, packet: Packet) -> bool:
        table: ScanTable = self.shared_support.value
        distinct = table.record(packet.nw_src, packet.nw_dst)
        threshold = int(self.config.get_scalar("IDS.ScanThreshold", SCAN_THRESHOLD))
        if distinct == threshold and not self.is_reprocessing:
            alert = {"type": "scan", "source": packet.nw_src, "destinations": distinct, "time": self.sim.now}
            self.alerts.append(alert)
            self.raise_event(EVENT_SCAN_DETECTED, key=packet.flow_key(), source=packet.nw_src)
        return True

    # =====================================================================================
    # Logging
    # =====================================================================================

    def _log_connection(self, connection: Connection, conn_state: str) -> None:
        key = connection.key
        entry = ConnLogEntry(
            orig_host=key.nw_src,
            orig_port=key.tp_src,
            resp_host=key.nw_dst,
            resp_port=key.tp_dst,
            proto=key.nw_proto,
            service=connection.service,
            conn_state=conn_state,
            orig_packets=connection.orig_packets,
            resp_packets=connection.resp_packets,
            orig_bytes=connection.orig_bytes,
            resp_bytes=connection.resp_bytes,
        )
        self.conn_log.append(entry)
        connection.logged = True

    def _log_http(self, connection: Connection, transaction: HttpTransaction) -> None:
        self.http_log.append(
            HttpLogEntry(
                orig_host=connection.key.nw_src,
                resp_host=connection.key.nw_dst,
                method=transaction.method,
                uri=transaction.uri,
                host=transaction.host,
                status=transaction.status,
                request_bytes=transaction.request_bytes,
                response_bytes=transaction.response_bytes,
            )
        )

    def finalize(self) -> None:
        """Flush log entries for connections still open (end of trace / shutdown).

        Connections that never completed produce INCOMPLETE entries — these are
        the anomalies that make VM-snapshot migration incorrect.  Connections
        whose state was moved away by the controller were deleted via
        ``delSupportPerflow`` and are not present any more, so they produce no
        entries here (the moved flag keeps an explicit guard as well).
        """
        for _, connection in self.support_store.items():
            if connection.logged or connection.moved:
                continue
            if connection.state in (STATE_CLOSED, STATE_RESET):
                self._log_connection(connection, connection.state)
            else:
                self._log_connection(connection, STATE_INCOMPLETE)

    def incorrect_entries(self) -> List[ConnLogEntry]:
        """conn.log entries that reflect anomalies rather than real connection ends."""
        return [entry for entry in self.conn_log if entry.conn_state == STATE_INCOMPLETE]

    # =====================================================================================
    # Move integration
    # =====================================================================================

    def on_perflow_deleted(self, role: StateRole, key: FlowKey, obj: object) -> None:
        """A controller delete after a successful move: mark the connection moved."""
        if isinstance(obj, Connection):
            obj.moved = True

    # =====================================================================================
    # State-size accounting (used by the VM-snapshot comparison)
    # =====================================================================================

    def state_size_bytes(self, pattern: Optional[FlowPattern] = None) -> int:
        """Approximate size of resident per-flow supporting state in bytes."""
        return self.cell_size_bytes(StateRole.SUPPORTING, StateScope.PER_FLOW, pattern)
