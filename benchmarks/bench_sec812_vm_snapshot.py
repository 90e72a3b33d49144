"""Section 8.1.2 (VM snapshots): snapshot sizes and incorrect log entries.

Regenerates the VM-snapshot comparison: the size of a base snapshot versus a
full snapshot at migration time, snapshots of the HTTP-only and other-only
substreams, the amount of state OpenMB would actually move (per-flow state for
the migrated HTTP flows), and the incorrect conn.log entries both snapshot
copies produce because the flows now handled by the other copy terminate
abruptly.
"""

from __future__ import annotations

from repro.analysis import format_mapping, print_block
from repro.baselines import clone_via_snapshot, snapshot_size
from repro.core import FlowPattern
from repro.middleboxes import IDS
from repro.net import Simulator
from repro.traffic import enterprise_cloud_trace


def run_snapshot_comparison():
    sim = Simulator()
    trace = enterprise_cloud_trace(
        http_flows=40, other_flows=25, duration=20.0, seed=90, leave_open_fraction=1.0
    )
    http_records = [r for r in trace if 80 in (r.tp_dst, r.tp_src)]
    other_records = [r for r in trace if 80 not in (r.tp_dst, r.tp_src)]
    split = len(trace.records) // 2

    # BASE: a freshly booted IDS.
    base_size = snapshot_size(IDS(sim, "base"))

    # FULL: the IDS at the instant of migration (half the trace processed).
    original = IDS(sim, "original")
    for record in trace.records[:split]:
        original.process_packet(record.to_packet())
    full_size = snapshot_size(original)

    # HTTP / OTHER: snapshots of instances that processed only one substream up to
    # the migration instant.
    http_only = IDS(sim, "http-only")
    for record in (r for r in trace.records[:split] if 80 in (r.tp_dst, r.tp_src)):
        http_only.process_packet(record.to_packet())
    other_only = IDS(sim, "other-only")
    for record in (r for r in trace.records[:split] if 80 not in (r.tp_dst, r.tp_src)):
        other_only.process_packet(record.to_packet())
    http_size = snapshot_size(http_only)
    other_size = snapshot_size(other_only)

    # What OpenMB would move: the per-flow supporting state of the HTTP flows only.
    sdmbn_moved = original.state_size_bytes(FlowPattern(tp_dst=80))

    # Migrate by snapshot: the new instance is a full copy; HTTP flows go to it and
    # the rest stay.  Both copies end up logging anomalies for the other's flows.
    migrated = IDS(sim, "migrated")
    clone_via_snapshot(original, migrated)
    for record in trace.records[split:]:
        target = migrated if 80 in (record.tp_dst, record.tp_src) else original
        target.process_packet(record.to_packet())
    original.finalize()
    migrated.finalize()

    return {
        "base_size": base_size,
        "full_size": full_size,
        "http_size": http_size,
        "other_size": other_size,
        "sdmbn_moved": sdmbn_moved,
        "incorrect_original": len(original.incorrect_entries()),
        "incorrect_migrated": len(migrated.incorrect_entries()),
        "http_flows": len({r.flow_key().bidirectional() for r in http_records}),
        "other_flows": len({r.flow_key().bidirectional() for r in other_records}),
    }


def test_sec812_vm_snapshot(once):
    results = once(run_snapshot_comparison)

    print_block(
        format_mapping(
            "Section 8.1.2 — VM-snapshot migration of an IDS",
            {
                "BASE snapshot (bytes)": results["base_size"],
                "FULL snapshot at migration (bytes)": results["full_size"],
                "FULL - BASE (state carried, bytes)": results["full_size"] - results["base_size"],
                "HTTP-substream snapshot - BASE (bytes)": results["http_size"] - results["base_size"],
                "OTHER-substream snapshot - BASE (bytes)": results["other_size"] - results["base_size"],
                "state SDMBN actually moves (bytes)": results["sdmbn_moved"],
                "incorrect conn.log entries at the old copy": results["incorrect_original"],
                "incorrect conn.log entries at the new copy": results["incorrect_migrated"],
            },
        )
    )

    # Shape checks mirroring the paper's observations:
    # 1. The full snapshot carries far more state than either substream needs.
    assert results["full_size"] > results["http_size"] > results["base_size"], (
        "§8.1.2: a full snapshot carries more than the HTTP substream needs"
    )
    assert results["full_size"] > results["other_size"], "§8.1.2: a full snapshot carries more than the other substream needs"
    # 2. SDMBN moves only the per-flow state of the migrated flows — less than the
    #    full snapshot delta.
    assert 0 < results["sdmbn_moved"] < results["full_size"] - results["base_size"], "§8.1.2: OpenMB moves less than the snapshot delta"
    # 3. Both snapshot copies produce incorrect entries; OpenMB's migration produces
    #    none (shown by bench_sec82_correctness).
    assert results["incorrect_original"] > 0, "§8.1.2: the original snapshot copy logs incorrect entries"
    assert results["incorrect_migrated"] > 0, "§8.1.2: the migrated snapshot copy logs incorrect entries"
