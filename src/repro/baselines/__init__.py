"""Baseline systems the paper compares OpenMB against."""

from . import config_routing, split_merge, vm_snapshot
from .config_routing import ConfigRoutingREMigration, HoldUpReport, scale_down_hold_up
from .split_merge import (
    SplitMergeMigration,
    SuspensionReport,
    expected_added_latency,
    expected_buffered_packets,
)
from .vm_snapshot import clone_via_snapshot, snapshot_size

#: Table 2: applicability of each control scheme to each dynamic scenario.
APPLICABILITY_MATRIX = {
    "SDMBN (OpenMB)": {"scale-up": "yes", "scale-down": "yes", "migration": "yes"},
    "VM snapshot": dict(vm_snapshot.CAPABILITIES),
    "Config + routing": dict(config_routing.CAPABILITIES),
    "Split/Merge": dict(split_merge.CAPABILITIES),
}

__all__ = [
    "ConfigRoutingREMigration",
    "HoldUpReport",
    "scale_down_hold_up",
    "SplitMergeMigration",
    "SuspensionReport",
    "expected_added_latency",
    "expected_buffered_packets",
    "clone_via_snapshot",
    "snapshot_size",
    "APPLICABILITY_MATRIX",
]
