"""The per-frame path is bit-identical across the fast-path rewrite.

``tests/data/dataplane_schedule.json`` was recorded while ``FlowTable.lookup``
was a bare linear scan, ``Link.transmit_raw`` re-derived its endpoint facts per
frame, ``Packet.copy`` went through ``dataclasses.replace`` and link protection
built a closure per arrival — before the exact-match cache, the per-end link
record and the session epoch on every protocol frame.  It pins what those
changes must not move, on ``h1—s1==s2—h2`` with a seeded fault plan on the
middle hop (corruption + reordering + one scripted corruption) under strict
and loose link protection:

* every host delivery ``[time, host, tp_src, seq]`` of two interleaved flows in
  each direction, plus a stream no rule matches (the cached *miss*);
* a lower-priority rule **shadowed and un-shadowed mid-run** on each switch
  (``install_rule`` / ``remove_rules_by_cookie``): on ``s1`` the shadow drops
  one flow for a window, on ``s2`` it forwards to the same port — a stale
  exact-match entry would show in the deliveries or the per-rule counters;
* every link and protection counter of all three links, both switches'
  counters (all read with ``as_dict()``) and per-rule ``packets_matched`` /
  ``bytes_matched``, and ``sim.executed_events``.

No link flap: what a protected link does across down → up is changed on
purpose (see ``tests/test_link_protection.py``).

Re-record it (only when the schedule is meant to change) with
``PYTHONPATH=src python tests/test_dataplane_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro.core.flowspace import FlowPattern
from repro.net import (
    Action,
    FlowRule,
    LinkFaultPlan,
    ProtectionConfig,
    ScriptedFault,
    Simulator,
    Switch,
    Topology,
    tcp_packet,
)
from repro.net.links import A_TO_B, B_TO_A

GOLDEN = Path(__file__).parent / "data" / "dataplane_schedule.json"

H1_IP = "10.30.0.1"
H2_IP = "10.30.0.2"
NOWHERE_IP = "10.99.0.9"
FRAMES = 120
FORWARD_GAP = 11e-6
REVERSE_GAP = 17e-6
SHADOW_ON = 0.45e-3
SHADOW_OFF = 0.95e-3


def fingerprint(strict_order: bool) -> dict:
    sim = Simulator()
    topo = Topology(sim)
    h1 = topo.add_host("h1", H1_IP)
    h2 = topo.add_host("h2", H2_IP)
    s1 = topo.add_node(Switch(sim, "s1"))
    s2 = topo.add_node(Switch(sim, "s2"))
    edge1 = topo.connect(h1, s1)
    plan = LinkFaultPlan.symmetric(
        seed=83,
        corruption=0.03,
        reorder=0.06,
        scripted=[ScriptedFault("corrupt", A_TO_B, nth=7)],
    )
    middle = topo.connect(s1, s2, faults=plan)
    edge2 = topo.connect(s2, h2)
    protection = middle.enable_protection(ProtectionConfig(strict_order=strict_order, hold_buffer=16))
    for switch, forward, backward in ((s1, s2, h1), (s2, h2, s1)):
        switch.install_rule(FlowRule(FlowPattern(nw_dst=H2_IP), [Action.output(switch.port_to(forward))], cookie="fwd"))
        switch.install_rule(FlowRule(FlowPattern(nw_dst=H1_IP), [Action.output(switch.port_to(backward))], cookie="rev"))

    deliveries = []
    h1.on_receive(lambda packet: deliveries.append([sim.now, "h1", packet.tp_src, packet.seq]))
    h2.on_receive(lambda packet: deliveries.append([sim.now, "h2", packet.tp_src, packet.seq]))

    for index in range(FRAMES):
        # Two flows per direction, interleaved frame by frame, a few bytes
        # apart in size so serialisation times differ between them.
        flow = index % 2
        sim.schedule_at(
            index * FORWARD_GAP,
            h1.send,
            tcp_packet(H1_IP, H2_IP, 1001 + flow, 80, bytes(200 + 40 * flow), seq=index // 2),
        )
        sim.schedule_at(
            index * REVERSE_GAP,
            h2.send,
            tcp_packet(H2_IP, H1_IP, 2001 + flow, 80, bytes(64 + 8 * flow), seq=index // 2),
        )
        if index % 10 == 0:
            sim.schedule_at(index * FORWARD_GAP, h1.send, tcp_packet(H1_IP, NOWHERE_IP, 3001, 80, b"", seq=index))

    def shadow() -> None:
        # s1: flow 1001 is dropped while the shadow is installed; s2: flow
        # 2002 is forwarded by a different rule object to the same port.
        s1.install_rule(FlowRule(FlowPattern(nw_dst=H2_IP, tp_src=1001), [Action.drop()], priority=200, cookie="shadow"))
        s2.install_rule(
            FlowRule(
                FlowPattern(nw_src=H2_IP, tp_src=2002),
                [Action.output(s2.port_to(s1))],
                priority=200,
                cookie="shadow",
            )
        )

    removed = []

    def unshadow() -> None:
        removed.append(s1.remove_rules_by_cookie("shadow"))
        removed.append(s2.remove_rules_by_cookie("shadow"))

    shadows = {}

    def snapshot_shadows() -> None:
        for switch in (s1, s2):
            for rule in switch.table.rules():
                if rule.cookie == "shadow":
                    shadows[switch.name] = [rule.packets_matched, rule.bytes_matched]

    sim.schedule_at(SHADOW_ON, shadow)
    sim.schedule_at(SHADOW_OFF - 1e-9, snapshot_shadows)
    sim.schedule_at(SHADOW_OFF, unshadow)
    sim.run(until=1.0)

    return {
        "deliveries": deliveries,
        "executed_events": sim.executed_events,
        "removed": removed,
        "links": {
            name: {d: link.stats_for(d).as_dict() for d in (A_TO_B, B_TO_A)}
            for name, link in (("h1-s1", edge1), ("s1-s2", middle), ("s2-h2", edge2))
        },
        "protection": {d: protection.stats_for(d).as_dict() for d in (A_TO_B, B_TO_A)},
        "outstanding": {d: protection.outstanding(d) for d in (A_TO_B, B_TO_A)},
        "switches": {switch.name: switch.stats.as_dict() for switch in (s1, s2)},
        "rules": {
            switch.name: {rule.cookie: [rule.packets_matched, rule.bytes_matched] for rule in switch.table.rules()}
            for switch in (s1, s2)
        },
        "shadow_rules": shadows,
    }


def record() -> dict:
    return {"strict": fingerprint(True), "loose": fingerprint(False)}


@pytest.mark.parametrize("order", ["strict", "loose"])
def test_per_frame_schedule_matches_the_pre_fast_path_run(order):
    golden = json.loads(GOLDEN.read_text())[order]
    observed = fingerprint(order == "strict")
    # The scenario must keep exercising what it pins.
    middle = observed["links"]["s1-s2"]
    assert middle[A_TO_B]["corrupted"] > 1 and middle[A_TO_B]["reordered"] > 0 and middle[A_TO_B]["retransmits"] > 0
    assert observed["removed"] == [1, 1]
    assert observed["shadow_rules"]["s1"][0] > 0 and observed["shadow_rules"]["s2"][0] > 0
    assert observed["switches"]["s1"]["table_misses"] == FRAMES // 10
    # 1002, 2001 and 2002 arrive complete; 1001 lost exactly what the shadow dropped.
    arrived = {}
    for _, _, tp_src, seq in observed["deliveries"]:
        arrived.setdefault(tp_src, []).append(seq)
    for port in (1002, 2001, 2002):
        assert sorted(arrived[port]) == list(range(FRAMES // 2))
        assert (arrived[port] == sorted(arrived[port])) or order == "loose"
    assert len(arrived[1001]) == FRAMES // 2 - observed["shadow_rules"]["s1"][0]
    assert observed["outstanding"] == {A_TO_B: 0, B_TO_A: 0}
    assert observed == golden


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
