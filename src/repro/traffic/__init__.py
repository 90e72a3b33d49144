"""Workloads: synthetic trace generators, distributions, and replay."""

from .distributions import FlowDurationModel, FlowSizeModel, fraction_exceeding, quantile
from .generators import (
    FlowSpec,
    constant_rate_trace,
    datacenter_flow_durations,
    datacenter_trace,
    enterprise_cloud_trace,
    http_flow_records,
    raw_flow_records,
    redundancy_trace,
    scan_trace,
)
from .records import Trace, TraceRecord
from .replay import ReplayStats, TraceReplayer, replay_trace_through

__all__ = [
    "FlowDurationModel",
    "FlowSizeModel",
    "fraction_exceeding",
    "quantile",
    "FlowSpec",
    "constant_rate_trace",
    "datacenter_flow_durations",
    "datacenter_trace",
    "enterprise_cloud_trace",
    "http_flow_records",
    "raw_flow_records",
    "redundancy_trace",
    "scan_trace",
    "Trace",
    "TraceRecord",
    "ReplayStats",
    "TraceReplayer",
    "replay_trace_through",
]
