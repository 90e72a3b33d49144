"""The correctness gate every workload runs before it reports a number.

Each function returns a list of failure strings (empty = the op is good); the
harness counts an op as failed when its list is non-empty, which is what feeds
``failed`` / ``attempted``.  A throughput figure from a run that lost an
update is not a throughput figure.

:func:`sim_fingerprint` condenses the simulated side of a run — executed
events, wire bytes, every simulated duration — so ``compare`` can require that
two runs with the same seed simulated exactly the same thing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence


@dataclass
class Iteration:
    """What one verified iteration produced."""

    #: Units of work completed (the denominator of every per-unit count).
    units: int = 0
    #: Operations attempted, how many failed, and why.
    ops: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Simulated seconds per op, and per-move freeze (event-buffering) windows.
    sim_op_s: List[float] = field(default_factory=list)
    sim_freeze_s: List[float] = field(default_factory=list)
    executed_events: int = 0
    wire_bytes: int = 0
    #: Raw sums of the system's own public counters (see ``trace.layer_counts``).
    counters: Dict[str, float] = field(default_factory=dict)

    def gate(self, failures: List[str]) -> None:
        """Record one op's gate result: any failure string fails the op."""
        if failures:
            self.failed += 1
            self.failures += failures


def move_failures(record, *, label: str) -> List[str]:
    """A move must complete, finalize, and install exactly what it exported."""
    failures = []
    if record.completed_at is None:
        failures.append(f"{label}: move never completed")
    if record.finalized_at is None:
        failures.append(f"{label}: move never finalized")
    if record.puts_acked != record.chunks_transferred:
        failures.append(f"{label}: puts_acked {record.puts_acked} != chunks {record.chunks_transferred}")
    return failures


def conservation_failures(injected: int, stores: Iterable, *, label: str) -> List[str]:
    """Update conservation: every packet counted at a source survives somewhere."""
    counted = sum(entry.get("packets", 0) for store in stores for _, entry in store.items())
    if counted != injected:
        return [f"{label}: {injected - counted} of {injected} updates lost"]
    return []


def placement_failures(store, expected_keys: Sequence, *, label: str) -> List[str]:
    """The store holds exactly the expected flows (no lost or stray entries)."""
    missing = sum(1 for key in expected_keys if key not in store)
    if missing or len(store) != len(expected_keys):
        return [f"{label}: holds {len(store)} flows, expected {len(expected_keys)} ({missing} missing)"]
    return []


def event_failures(record, generated: int, moved_flows: int, *, label: str) -> List[str]:
    """Order-preserving event accounting: nothing dropped, every flow released."""
    failures = []
    if record.events_dropped:
        failures.append(f"{label}: {record.events_dropped} events dropped")
    if record.events_received != generated:
        failures.append(f"{label}: received {record.events_received} of {generated} events")
    if record.events_forwarded < record.events_received:
        failures.append(f"{label}: forwarded {record.events_forwarded} < received {record.events_received}")
    if record.releases_sent < moved_flows:
        failures.append(f"{label}: released {record.releases_sent} of {moved_flows} flows")
    return failures


def chaos_failures(result, *, expect_outcome: str, label: str) -> List[str]:
    """The four chaos invariants plus an independent seq-journal order check.

    An expected abort (a killed source) with its invariants intact is not a
    failure; an unexpected outcome is.
    """
    failures = []
    try:
        result.assert_ok()
    except AssertionError as exc:
        failures.append(f"{label}: {str(exc).splitlines()[-1].strip()}")
    if result.outcome != expect_outcome:
        failures.append(f"{label}: outcome {result.outcome!r}, expected {expect_outcome!r} ({result.error})")
    if result.spec.guarantee == "order_preserving":
        for owner, journals in result.final_state.items():
            for flow, seqs in journals.items():
                if any(later <= earlier for earlier, later in zip(seqs, seqs[1:])):
                    failures.append(f"{label}: {owner} journal out of order for {flow}")
    return failures


def flow_failures(completed: bool, delivered: set, packets: int, *, label: str) -> List[str]:
    """A transport flow completes and delivers exactly seq 1..packets."""
    failures = []
    if not completed:
        failures.append(f"{label}: flow did not complete")
    if delivered != set(range(1, packets + 1)):
        failures.append(f"{label}: delivered {len(delivered)} distinct seqs, expected 1..{packets}")
    return failures


def sim_fingerprint(executed_events: int, wire_bytes: int, durations: Sequence[float]) -> Dict[str, object]:
    """What the run simulated, in a form two documents can be compared on."""
    digest = hashlib.sha256(repr(sorted(durations)).encode("ascii")).hexdigest()
    return {
        "executed_events": executed_events,
        "wire_bytes": wire_bytes,
        "durations": len(durations),
        "durations_sha256": digest,
    }
