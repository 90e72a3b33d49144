"""Middlebox substrate: OpenMB-enabled middleboxes built from scratch."""

from .base import FULL_GRANULARITY, Middlebox, ProcessResult, Verdict
from .dummy import DummyMiddlebox
from .firewall import ConnectionEntry, Firewall, FirewallRule
from .ids import IDS, ConnLogEntry, Connection, HttpLogEntry, HttpTransaction, ScanTable
from .loadbalancer import Assignment, LoadBalancer
from .monitor import FlowRecord, MonitorStats, PassiveMonitor, combined_statistics
from .nat import NAT, NatMapping
from .re import (
    CHUNK_SIZE,
    DecoderCacheState,
    EncoderCacheState,
    PacketCache,
    REDecoder,
    REEncoder,
)

__all__ = [
    "FULL_GRANULARITY",
    "Middlebox",
    "ProcessResult",
    "Verdict",
    "DummyMiddlebox",
    "ConnectionEntry",
    "Firewall",
    "FirewallRule",
    "IDS",
    "ConnLogEntry",
    "Connection",
    "HttpLogEntry",
    "HttpTransaction",
    "ScanTable",
    "Assignment",
    "LoadBalancer",
    "FlowRecord",
    "MonitorStats",
    "PassiveMonitor",
    "combined_statistics",
    "NAT",
    "NatMapping",
    "CHUNK_SIZE",
    "DecoderCacheState",
    "EncoderCacheState",
    "PacketCache",
    "REDecoder",
    "REEncoder",
]
