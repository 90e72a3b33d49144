"""VM-snapshot baseline (paper section 2.1 and 8.1.2).

Running a middlebox as a VM makes it possible to "migrate" or "clone" it by
snapshotting the whole VM and booting the snapshot elsewhere.  The snapshot
necessarily carries *all* of the middlebox's state — including state for flows
that are not moving — which wastes memory and, worse, causes incorrect
behaviour: the flows that migrated terminate abruptly at the old instance and
the flows that stayed terminate abruptly at the new instance, so an IDS logs
anomalies for both groups.

This module models a VM snapshot as a deep copy of a middlebox's entire state
(configuration, per-flow stores, shared slots), measured in serialised bytes so
snapshot sizes can be compared with the amount of state OpenMB actually moves.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.chunks import serialize_payload
from ..core.flowspace import FlowPattern
from ..core.state import TAXONOMY
from ..middleboxes.base import Middlebox


@dataclass
class SnapshotReport:
    """Sizes involved in one snapshot-based migration."""

    base_bytes: int
    full_bytes: int
    needed_bytes: int
    unneeded_bytes: int

    @property
    def overhead_ratio(self) -> float:
        """Unneeded bytes as a fraction of the full snapshot delta."""
        delta = self.full_bytes - self.base_bytes
        if delta <= 0:
            return 0.0
        return self.unneeded_bytes / delta


def _serialized_size(middlebox: Middlebox, pattern: Optional[FlowPattern] = None) -> int:
    """Serialised size of a middlebox's state, optionally restricted to a flow pattern."""
    cells = sum(middlebox.cell_size_bytes(*cell, pattern) for cell, entry in TAXONOMY.items() if entry.movable)
    return len(serialize_payload(middlebox.config.export())) + cells


def snapshot_size(middlebox: Middlebox, pattern: Optional[FlowPattern] = None) -> int:
    """Size in bytes of a snapshot of *middlebox* (optionally only state matching *pattern*)."""
    return _serialized_size(middlebox, pattern)


def clone_via_snapshot(source: Middlebox, target: Middlebox) -> int:
    """Boot *target* from a snapshot of *source*: copy every piece of state wholesale.

    Returns the number of per-flow entries copied.  This deliberately bypasses
    the OpenMB APIs — a VM snapshot has no notion of per-flow granularity or of
    which state the new instance actually needs.
    """
    if source.mb_type != target.mb_type:
        raise ValueError("a VM snapshot can only instantiate the same middlebox type")
    target.config = source.config.clone()
    target.on_config_changed("*")
    copied = 0
    for key, obj in source.support_store.items():
        target.support_store.put(key, copy.deepcopy(obj))
        copied += 1
    for key, obj in source.report_store.items():
        target.report_store.put(key, copy.deepcopy(obj))
        copied += 1
    if source.shared_support is not None and target.shared_support is not None:
        target.shared_support.replace(copy.deepcopy(source.shared_support.value))
    if source.shared_report is not None and target.shared_report is not None:
        target.shared_report.replace(copy.deepcopy(source.shared_report.value))
    return copied


def snapshot_migration_report(
    source: Middlebox,
    *,
    base_size: int,
    migrated_pattern: FlowPattern,
) -> SnapshotReport:
    """Size accounting for migrating the flows matching *migrated_pattern* via a snapshot.

    ``base_size`` is the size of a freshly booted instance (the paper's BASE
    image); the *needed* state is the per-flow state matching the migrated
    pattern; everything else carried by the snapshot is unneeded.
    """
    full = snapshot_size(source)
    needed = snapshot_size(source, migrated_pattern) - snapshot_size(source, FlowPattern(nw_src="255.255.255.255"))
    needed = max(needed, 0)
    unneeded = max(full - base_size - needed, 0)
    return SnapshotReport(base_bytes=base_size, full_bytes=full, needed_bytes=needed, unneeded_bytes=unneeded)


#: Applicability of the VM-snapshot approach to the paper's scenarios (Table 2).
CAPABILITIES: Dict[str, str] = {
    "scale-up": "partial",  # can clone an instance, but clones all state, causing incorrect behaviour
    "scale-down": "no",  # cannot merge state from multiple instances
    "migration": "partial",  # moves everything, wasting memory and producing incorrect log entries
}
