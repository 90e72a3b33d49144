"""Workloads: synthetic trace generators, distributions, and replay."""

from .distributions import FlowDurationModel, FlowSizeModel, fraction_exceeding
from .generators import (
    FlowSpec,
    constant_rate_trace,
    datacenter_flow_durations,
    enterprise_cloud_trace,
    http_flow_records,
    raw_flow_records,
    redundancy_trace,
)
from .records import Trace, TraceRecord
from .replay import ReplayStats, TraceReplayer

__all__ = [
    "FlowDurationModel",
    "FlowSizeModel",
    "fraction_exceeding",
    "FlowSpec",
    "constant_rate_trace",
    "datacenter_flow_durations",
    "enterprise_cloud_trace",
    "http_flow_records",
    "raw_flow_records",
    "redundancy_trace",
    "Trace",
    "TraceRecord",
    "ReplayStats",
    "TraceReplayer",
]
