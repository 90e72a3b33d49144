"""Reliable delivery is bit-identical across the engine extraction.

``tests/data/arq_schedule.json`` was recorded while the control channel and
link protection each carried their own sequence/ack/retransmit code, before
both became carriers of :mod:`repro.runtime.arq`.  It pins what the refactor
must not move:

* **control channel** — for chaos scenarios over ``lossy`` and ``chaotic``
  channels (snapshot and pre-copy, order-preserving, a destination kill with a
  standby): the simulator's executed-callback count, wire messages, drops,
  retransmissions, dedup discards, duplicates, the settle time and the move's
  duration and freeze window;
* **protected link** — for one strict-order and one loose-order run (seeded
  loss + corruption + reordering in both directions, a four-frame hold buffer,
  one scripted corruption): the full ``(time, index)`` delivery schedule at
  the receiving host plus every ``LinkStats`` / ``ProtectionStats`` counter.

Re-record it (only when the protocol is meant to change) with
``PYTHONPATH=src python tests/test_arq_golden.py``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.net import LinkFaultPlan, ProtectionConfig, ScriptedFault, Simulator, Topology, udp_packet
from repro.net.links import A_TO_B, B_TO_A
from repro.testing import ChaosSpec, run_chaos

GOLDEN = Path(__file__).parent / "data" / "arq_schedule.json"


def _spec(seed: int, **kwargs) -> ChaosSpec:
    return ChaosSpec(seed=seed, flows=30, packets=60, **kwargs)


CHAOS_SPECS = {
    "lossy/snapshot": _spec(101, guarantee="loss_free", mode="snapshot", profile="lossy"),
    "lossy/precopy": _spec(200, guarantee="loss_free", mode="precopy", profile="lossy", shards=4),
    "chaotic/snapshot": _spec(303, guarantee="order_preserving", mode="snapshot", profile="chaotic"),
    "chaotic/precopy": _spec(404, guarantee="order_preserving", mode="precopy", profile="chaotic"),
    "chaotic/precopy/dst-kill": _spec(
        505, guarantee="loss_free", mode="precopy", profile="chaotic", kill="dst", kill_at_round=1, standby=True
    ),
}
CHAOS_FIELDS = (
    "outcome",
    "executed_events",
    "messages",
    "drops",
    "retransmits",
    "dedup_discards",
    "duplicates",
    "settled_at",
    "move_duration",
    "freeze_window",
)

LINK_FRAMES = 160
REVERSE_FRAMES = 40


def chaos_fingerprint(label: str) -> dict:
    result = run_chaos(CHAOS_SPECS[label])
    result.assert_ok()
    return {name: getattr(result, name) for name in CHAOS_FIELDS}


def link_fingerprint(strict_order: bool) -> dict:
    """One protected host pair under every link fault class at once."""
    sim = Simulator()
    topo = Topology(sim)
    h1 = topo.add_host("h1", "10.0.0.1")
    h2 = topo.add_host("h2", "10.0.0.2")
    plan = LinkFaultPlan.symmetric(
        seed=47,
        loss=0.04,
        corruption=0.04,
        reorder=0.08,
        scripted=[ScriptedFault("corrupt", A_TO_B, nth=5)],
    )
    link = topo.connect(h1, h2, faults=plan)
    protection = link.enable_protection(ProtectionConfig(strict_order=strict_order, hold_buffer=4))
    schedule, reverse = [], []
    h2.on_receive(lambda packet: schedule.append([sim.now, packet.annotations["index"]]))
    h1.on_receive(lambda packet: reverse.append([sim.now, packet.annotations["index"]]))
    for index in range(LINK_FRAMES):
        packet = udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload=bytes(100))
        packet.annotations["index"] = index
        h1.send(packet)
        if index < REVERSE_FRAMES:
            # Data both ways: each wire carries frames and the other's acks.
            packet = udp_packet("10.0.0.2", "10.0.0.1", 2, 1, payload=bytes(60))
            packet.annotations["index"] = index
            h2.send(packet)
    sim.run(until=5.0)
    return {
        "schedule": schedule,
        "reverse_schedule": reverse,
        "executed_events": sim.executed_events,
        "link": {d: dataclasses.asdict(link.stats_for(d)) for d in (A_TO_B, B_TO_A)},
        "protection": {d: dataclasses.asdict(protection.stats_for(d)) for d in (A_TO_B, B_TO_A)},
    }


def record() -> dict:
    return {
        "chaos": {label: chaos_fingerprint(label) for label in CHAOS_SPECS},
        "link": {"strict": link_fingerprint(True), "loose": link_fingerprint(False)},
    }


class TestControlChannelSchedule:
    @pytest.mark.parametrize("label", sorted(CHAOS_SPECS))
    def test_chaos_counters_match_the_pre_extraction_run(self, label):
        golden = json.loads(GOLDEN.read_text())["chaos"][label]
        # The scenarios must keep exercising what they pin.
        assert golden["drops"] > 0 and golden["retransmits"] > 0
        assert chaos_fingerprint(label) == golden


class TestProtectedLinkSchedule:
    @pytest.mark.parametrize("order", ["strict", "loose"])
    def test_delivery_schedule_matches_the_pre_extraction_run(self, order):
        golden = json.loads(GOLDEN.read_text())["link"][order]
        observed = link_fingerprint(order == "strict")
        indexes = [index for _, index in observed["schedule"]]
        assert sorted(indexes) == list(range(LINK_FRAMES))
        assert sorted(index for _, index in observed["reverse_schedule"]) == list(range(REVERSE_FRAMES))
        assert (indexes == sorted(indexes)) == (order == "strict")
        assert observed["link"][A_TO_B]["retransmits"] > 0
        assert observed == golden


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
