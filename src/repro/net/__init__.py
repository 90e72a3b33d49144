"""Network substrate: discrete-event simulator, switches, links, SDN controller."""

from ..runtime.arq import ScriptedFault
from .flowtable import Action, ActionType, FlowRule, FlowTable
from .links import (
    DEFAULT_BANDWIDTH,
    DEFAULT_LATENCY,
    Link,
    LinkFaultPlan,
    LinkFaultProfile,
    LinkStats,
)
from .packet import ACK, FIN, PSH, RST, SYN, Packet, tcp_packet, udp_packet
from .protection import LinkProtection, ProtectionConfig, ProtectionStats, ProtectionSummary, summarize
from .sdn import DEFAULT_RULE_INSTALL_LATENCY, RouteHandle, SDNController
from .simulator import Future, Simulator, all_of
from .switch import Switch, SwitchStats
from .topology import Host, Node, Topology

__all__ = [
    "Action",
    "ActionType",
    "FlowRule",
    "FlowTable",
    "Link",
    "LinkFaultPlan",
    "LinkFaultProfile",
    "LinkStats",
    "ScriptedFault",
    "LinkProtection",
    "ProtectionConfig",
    "ProtectionStats",
    "ProtectionSummary",
    "summarize",
    "DEFAULT_BANDWIDTH",
    "DEFAULT_LATENCY",
    "DEFAULT_RULE_INSTALL_LATENCY",
    "Packet",
    "tcp_packet",
    "udp_packet",
    "SYN",
    "ACK",
    "FIN",
    "RST",
    "PSH",
    "RouteHandle",
    "SDNController",
    "Future",
    "Simulator",
    "all_of",
    "Switch",
    "SwitchStats",
    "Host",
    "Node",
    "Topology",
]
