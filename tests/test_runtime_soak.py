"""Wall-clock soak: continuous transactions under loss on the realtime runtime.

A two-instance deployment runs scale-up / rebalance / scale-down transaction
cycles back to back on the :class:`RealtimeRuntime`, with every control
channel behind a lossy seeded :class:`FaultPlan` (1 % drops, 2x latency
jitter) and the reliable delivery layer recovering.  Live traffic bursts
between cycles keep per-flow seq journals growing, so at the end the four
chaos invariants are checked from state alone, by the same auditor functions
the chaos runner calls (:func:`repro.testing.audit_journals`,
:func:`repro.testing.audit_conservation`):

1. **termination** — every transaction commits within its budget;
2. **no lost updates** — each flow's journal holds every delivered seq
   exactly once, wherever the flow ended up;
3. **no reordering** — journals are strictly increasing (state rides along
   moves intact);
4. **conservation** — exactly one instance holds each flow, no packet holds,
   dirty tracking, or install tags leak — and the runtime's shutdown report
   shows **zero leaked processes**.

The 30-second variant is marked ``slow`` and gated behind ``RUN_SLOW=1``; a
~2-second variant runs in tier-1 so the soak path itself cannot rot.
"""

from __future__ import annotations

import itertools
import os
import random
from typing import Dict, List

import pytest

from repro.core import ControllerConfig, FlowPattern, MBController, NorthboundAPI
from repro.core.channel import ControlChannel, FaultPlan
from repro.core.transfer import TransferGuarantee, TransferMode, TransferSpec
from repro.net.packet import tcp_packet
from repro.runtime import RuntimeConfig
from repro.testing import ChaosMiddlebox, audit_conservation, audit_journals

FLOWS = 6
A, B = "soak-a", "soak-b"


def _journal_for(middlebox: ChaosMiddlebox, key) -> List[int]:
    seqs = middlebox.flow_seqs()
    return seqs.get(key) or seqs.get(key.bidirectional()) or []


def run_soak(duration: float, *, seed: int = 0, shards: int = 2) -> Dict[str, object]:
    """Run transaction cycles for *duration* runtime seconds; returns the verdict."""
    runtime = RuntimeConfig(mode="realtime").create()
    master = random.Random(seed)
    violations: List[object] = []
    cycles = 0
    try:
        controller = MBController(runtime, ControllerConfig(quiescence_timeout=0.01, num_shards=shards))
        northbound = NorthboundAPI(controller)
        mbs: Dict[str, ChaosMiddlebox] = {}
        for name in (A, B):
            middlebox = ChaosMiddlebox(runtime, name)
            plan = FaultPlan.symmetric(master.randrange(2**31), drop=0.01, jitter=2.0)
            controller.register(middlebox, channel=ControlChannel(runtime, f"chan-{name}", faults=plan))
            mbs[name] = middlebox
        mbs[A].populate(FLOWS)
        keys = {flow: mbs[A].flow_key_for(flow) for flow in range(FLOWS)}
        owners = {flow: A for flow in range(FLOWS)}
        sent: Dict[int, List[int]] = {flow: [] for flow in range(FLOWS)}
        seq = 0
        kinds = itertools.cycle(["scale_up", "rebalance", "scale_down"])
        guarantees = itertools.cycle(["loss_free", "order_preserving"])
        modes = itertools.cycle(["snapshot", "precopy"])
        deadline = runtime.now + duration

        while runtime.now < deadline:
            # Burst live traffic at each flow's current owner.
            for _ in range(2 * FLOWS):
                seq += 1
                flow = seq % FLOWS
                key = keys[flow]
                packet = tcp_packet(key.nw_src, key.nw_dst, key.tp_src, key.tp_dst, b"s", seq=seq)
                sent[flow].append(seq)
                mbs[owners[flow]].receive(packet, 0)

            spec = TransferSpec(
                guarantee=TransferGuarantee(next(guarantees)),
                mode=TransferMode(next(modes)),
                max_rounds=2,
                dirty_threshold=2,
            )
            kind = next(kinds)
            transaction = northbound.transaction()
            new_owner: Dict[int, str] = {}
            if kind == "scale_up":
                transaction.move(A, B, None, spec=spec)
                new_owner = {flow: B for flow in range(FLOWS) if owners[flow] == A}
            elif kind == "scale_down":
                transaction.move(B, A, None, spec=spec)
                new_owner = {flow: A for flow in range(FLOWS) if owners[flow] == B}
            else:  # rebalance: pull the even-index flows back with exact patterns
                for flow in range(0, FLOWS, 2):
                    if owners[flow] == B:
                        transaction.move(B, A, FlowPattern.from_flow(keys[flow]), spec=spec)
                        new_owner[flow] = A
            if not new_owner:
                continue
            handle = transaction.commit()
            try:
                runtime.run_until(handle.done, limit=runtime.now + 10.0)
            except Exception as exc:  # noqa: BLE001 - recorded as a violation
                violations.append(f"termination: cycle {cycles} ({kind}) never settled: {exc}")
                break
            if handle.status != "committed":
                violations.append(f"termination: cycle {cycles} ({kind}) ended {handle.status!r}")
                break
            owners.update(new_owner)
            cycles += 1
            runtime.run(until=runtime.now + 0.01)  # drain releases/acks between cycles

        # Let retransmission timers and finalization work drain fully.
        runtime.run(until=runtime.now + 0.1)

        # -- invariants 2-4 from state alone: the auditor, on this world -----------------
        journals: Dict[int, List[int]] = {}
        for flow in range(FLOWS):
            held = {name: _journal_for(middlebox, keys[flow]) for name, middlebox in mbs.items()}
            holders = [name for name, seqs in held.items() if seqs]
            if len(holders) != 1:
                violations.append(f"conservation: flow {flow} held by {holders}, expected exactly one")
                continue
            journals[flow] = held[holders[0]]
        # Every move was loss-free or stronger and state rides along intact, so
        # the strictest guarantee's checks apply to every journal that has one
        # holder; every instance is an install-tag suspect once all is quiet.
        audited = {flow: seqs for flow, seqs in sent.items() if flow in journals}
        violations += audit_journals("order_preserving", audited, journals, owner="the holder")
        violations += audit_conservation(mbs, tag_suspects=set(mbs))
    finally:
        close_report = runtime.close()
    return {"cycles": cycles, "violations": violations, "close": close_report, "delivered": seq}


def _assert_soak_clean(result: Dict[str, object], min_cycles: int) -> None:
    assert not result["violations"], "\n".join(str(v) for v in result["violations"])
    assert result["cycles"] >= min_cycles, f"only {result['cycles']} cycles completed"
    close = result["close"]
    assert close["processes_leaked"] == 0, f"leaked processes at shutdown: {close}"


def test_soak_quick_two_seconds():
    """Tier-1 guard: a short soak must stay invariant-clean and leak-free."""
    _assert_soak_clean(run_soak(2.0, seed=3), min_cycles=3)


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("RUN_SLOW"), reason="30s wall-clock soak; set RUN_SLOW=1")
def test_soak_thirty_seconds():
    """The full 30-second lossy soak from the issue's acceptance criteria."""
    _assert_soak_clean(run_soak(30.0, seed=1), min_cycles=20)
