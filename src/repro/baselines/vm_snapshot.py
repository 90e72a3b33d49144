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
from typing import Dict, Optional

from ..core.chunks import serialize_payload
from ..core.flowspace import FlowPattern
from ..core.state import TAXONOMY, StateScope
from ..middleboxes.base import Middlebox


def snapshot_size(middlebox: Middlebox, pattern: Optional[FlowPattern] = None) -> int:
    """Size in bytes of a snapshot of *middlebox* (optionally only state matching *pattern*)."""
    cells = sum(middlebox.cell_size_bytes(*cell, pattern) for cell, entry in TAXONOMY.items() if entry.movable)
    return len(serialize_payload(middlebox.config.export())) + cells


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
    for (role, scope), entry in TAXONOMY.items():
        if not entry.movable:
            continue
        held, into = source._cell(role, scope)[0], target._cell(role, scope)[0]
        if scope is StateScope.PER_FLOW:
            for key, obj in held.items():
                into.put(key, copy.deepcopy(obj))
                copied += 1
        elif held is not None and into is not None:
            into.replace(copy.deepcopy(held.value))
    return copied


#: Applicability of the VM-snapshot approach to the paper's scenarios (Table 2).
CAPABILITIES: Dict[str, str] = {
    "scale-up": "partial",  # can clone an instance, but clones all state, causing incorrect behaviour
    "scale-down": "no",  # cannot merge state from multiple instances
    "migration": "partial",  # moves everything, wasting memory and producing incorrect log entries
}
