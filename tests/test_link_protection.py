"""Tests for the link fault model and LinkGuardian-style link-local protection."""

import pytest

from repro.net import (
    LinkFaultPlan,
    LinkFaultProfile,
    ProtectionConfig,
    ScriptedFault,
    Simulator,
    Topology,
    udp_packet,
)
from repro.net.links import A_TO_B, B_TO_A
from repro.net.protection import summarize


def _pair(sim, *, faults=None, latency=50e-6, bandwidth=125e6):
    """One host pair joined by a single (optionally faulted) link."""
    topo = Topology(sim)
    h1 = topo.add_host("h1", "10.0.0.1")
    h2 = topo.add_host("h2", "10.0.0.2")
    link = topo.connect(h1, h2, latency=latency, bandwidth=bandwidth, faults=faults)
    return topo, h1, h2, link


def _burst(host, count, *, payload=100, reverse=False, start=0):
    """Send *count* indexed packets so tests can check delivery order."""
    src, dst = ("10.0.0.2", "10.0.0.1") if reverse else ("10.0.0.1", "10.0.0.2")
    for index in range(start, start + count):
        packet = udp_packet(src, dst, 1, 2, payload=bytes(payload))
        packet.annotations["index"] = index
        host.send(packet)


def _indexes(host):
    return [packet.annotations["index"] for packet in host.received]


class TestLinkFaultPlan:
    def test_seeded_loss_is_deterministic(self):
        results = []
        for _ in range(2):
            sim = Simulator()
            plan = LinkFaultPlan(seed=11, a_to_b=LinkFaultProfile(loss=0.3))
            topo, h1, h2, link = _pair(sim, faults=plan)
            _burst(h1, 100)
            sim.run()
            results.append((link.stats_a_to_b.drops, _indexes(h2)))
        assert results[0] == results[1]
        assert 0 < results[0][0] < 100

    def test_corruption_counted_separately_from_drops(self):
        sim = Simulator()
        plan = LinkFaultPlan(seed=3, a_to_b=LinkFaultProfile(corruption=0.5))
        topo, h1, h2, link = _pair(sim, faults=plan)
        _burst(h1, 60)
        sim.run()
        assert link.stats_a_to_b.corrupted > 0
        assert link.stats_a_to_b.drops == 0
        assert len(h2.received) == 60 - link.stats_a_to_b.corrupted

    def test_lossy_transmit_returns_none(self):
        sim = Simulator()
        plan = LinkFaultPlan(seed=0, a_to_b=LinkFaultProfile(loss=1.0))
        topo, h1, h2, link = _pair(sim, faults=plan)
        packet = udp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        assert link.transmit(packet, h1) is None

    def test_reordering_delivers_out_of_order(self):
        sim = Simulator()
        plan = LinkFaultPlan(seed=5, a_to_b=LinkFaultProfile(reorder=0.4))
        topo, h1, h2, link = _pair(sim, faults=plan)
        _burst(h1, 50)
        sim.run()
        assert len(h2.received) == 50
        assert link.stats_a_to_b.reordered > 0
        assert _indexes(h2) != sorted(_indexes(h2))

    def test_scripted_fault_hits_exactly_the_nth_frame(self):
        sim = Simulator()
        plan = LinkFaultPlan(seed=0, scripted=[ScriptedFault("drop", A_TO_B, nth=2)])
        topo, h1, h2, link = _pair(sim, faults=plan)
        _burst(h1, 4)
        sim.run()
        assert _indexes(h2) == [0, 2, 3]
        assert link.stats_a_to_b.drops == 1

    def test_scripted_fault_is_direction_scoped(self):
        sim = Simulator()
        plan = LinkFaultPlan(seed=0, scripted=[ScriptedFault("corrupt", B_TO_A, nth=1)])
        topo, h1, h2, link = _pair(sim, faults=plan)
        _burst(h1, 2)
        _burst(h2, 2, reverse=True)
        sim.run()
        assert _indexes(h2) == [0, 1]  # a→b untouched
        assert _indexes(h1) == [1]
        assert link.stats_b_to_a.corrupted == 1


class TestLinkProtection:
    def test_masks_corruption_and_preserves_order(self):
        sim = Simulator()
        plan = LinkFaultPlan(seed=21, a_to_b=LinkFaultProfile(corruption=1e-1))
        topo, h1, h2, link = _pair(sim, faults=plan)
        link.enable_protection(ProtectionConfig(strict_order=True))
        _burst(h1, 300)
        sim.run(until=5.0)
        assert _indexes(h2) == list(range(300))
        summary = summarize(link)
        assert summary.lost_on_wire > 0
        assert summary.retransmits > 0
        assert summary.abandoned == 0

    def test_masks_combined_loss_and_reordering(self):
        sim = Simulator()
        plan = LinkFaultPlan.symmetric(seed=9, loss=0.05, corruption=0.05, reorder=0.1)
        topo, h1, h2, link = _pair(sim, faults=plan)
        link.enable_protection(ProtectionConfig(strict_order=True))
        _burst(h1, 200)
        sim.run(until=5.0)
        assert _indexes(h2) == list(range(200))

    def test_loose_order_delivers_everything_but_reordered(self):
        sim = Simulator()
        plan = LinkFaultPlan(seed=13, a_to_b=LinkFaultProfile(corruption=0.15))
        topo, h1, h2, link = _pair(sim, faults=plan)
        protection = link.enable_protection(ProtectionConfig(strict_order=False))
        _burst(h1, 200)
        sim.run(until=5.0)
        indexes = _indexes(h2)
        assert sorted(indexes) == list(range(200))
        # Repaired losses arrive late, so delivery order is perturbed — the
        # latency/ordering trade the strict_order knob encodes.
        assert indexes != sorted(indexes)
        assert protection.stats_for(A_TO_B).out_of_order > 0

    def test_protocol_annotations_stripped_before_delivery(self):
        sim = Simulator()
        topo, h1, h2, link = _pair(sim, faults=LinkFaultPlan.symmetric(seed=2, corruption=0.2))
        link.enable_protection()
        _burst(h1, 50)
        sim.run(until=5.0)
        assert len(h2.received) == 50
        for packet in h2.received:
            assert set(packet.annotations) == {"index"}

    def test_duplicates_discarded(self):
        # Force a lost ACK so the sender retransmits a frame the receiver
        # already has: ctrl frames are uncounted, so scripting the drop is
        # impossible — use heavy symmetric loss instead and assert dedup.
        sim = Simulator()
        plan = LinkFaultPlan.symmetric(seed=17, loss=0.25)
        topo, h1, h2, link = _pair(sim, faults=plan)
        protection = link.enable_protection()
        _burst(h1, 150)
        sim.run(until=10.0)
        assert _indexes(h2) == list(range(150))
        assert protection.stats_for(A_TO_B).dup_discards > 0

    def test_small_hold_buffer_backpressures_without_loss(self):
        sim = Simulator()
        plan = LinkFaultPlan(seed=23, a_to_b=LinkFaultProfile(corruption=0.1))
        topo, h1, h2, link = _pair(sim, faults=plan)
        protection = link.enable_protection(ProtectionConfig(hold_buffer=4))
        _burst(h1, 120)
        sim.run(until=10.0)
        assert _indexes(h2) == list(range(120))
        assert protection.outstanding(A_TO_B) == 0

    def test_protected_run_is_deterministic(self):
        def run():
            sim = Simulator()
            plan = LinkFaultPlan.symmetric(seed=31, loss=0.05, corruption=0.05)
            topo, h1, h2, link = _pair(sim, faults=plan)
            link.enable_protection()
            _burst(h1, 100)
            sim.run(until=10.0)
            stats = link.stats_a_to_b
            return (
                _indexes(h2),
                stats.drops,
                stats.corrupted,
                stats.retransmits,
                stats.ctrl_frames,
                sim.executed_events,
            )

        assert run() == run()

    def test_link_down_clears_holds_and_terminates(self):
        sim = Simulator()
        plan = LinkFaultPlan(seed=1, a_to_b=LinkFaultProfile(loss=0.5))
        topo, h1, h2, link = _pair(sim, faults=plan)
        protection = link.enable_protection()
        _burst(h1, 50)
        sim.run(until=10e-6)  # mid-flight
        link.set_up(False)
        sim.run()  # must drain: no timer may keep a dead wire alive forever
        assert protection.outstanding(A_TO_B) == 0
        assert protection.outstanding(B_TO_A) == 0

    def test_frames_sent_on_a_down_link_are_counted_as_dropped_once(self):
        sim = Simulator()
        topo, h1, h2, link = _pair(sim)
        protection = link.enable_protection()
        link.set_up(False)
        _burst(h1, 5)
        sim.run()  # nothing is held for a dead wire, so no timer is left to run
        assert h2.received == []
        assert link.stats_a_to_b.drops == 5
        assert protection.outstanding(A_TO_B) == 0

    def test_holds_lost_to_a_link_going_down_are_recorded_as_drops(self):
        sim = Simulator()
        topo, h1, h2, link = _pair(sim, faults=LinkFaultPlan(seed=0, a_to_b=LinkFaultProfile(loss=1.0)))
        link.enable_protection()
        _burst(h1, 5)  # 5 attempts lost on the wire, 5 frames left in the hold table
        link.set_up(False)
        sim.run()
        assert link.stats_a_to_b.drops == 5 + 5
        assert link.stats_a_to_b.retransmits == 0

    @pytest.mark.parametrize("strict", [True, False])
    def test_link_down_then_up_carries_traffic_again(self, strict):
        # A reopened link used to resume the old sequence space: under strict
        # order everything sent after the flap was ACKed and then sat in the
        # resequencer forever, behind the numbers that died with the link.
        sim = Simulator()
        topo, h1, h2, link = _pair(sim)
        protection = link.enable_protection(ProtectionConfig(strict_order=strict))
        link.set_up(True)  # already up: not a new session
        _burst(h1, 3)
        sim.run()
        link.set_up(False)
        _burst(h1, 3, start=3)
        sim.run()
        assert link.stats_a_to_b.drops == 3  # sent into the dead wire, each counted once
        link.set_up(True)
        _burst(h1, 4, start=6)
        sim.run()  # drains: nothing waits on a number that will never come
        assert _indexes(h2) == [0, 1, 2, 6, 7, 8, 9]
        assert link.stats_a_to_b.drops == 3
        stats = protection.stats_for(A_TO_B)  # counters survive the reopen
        assert (stats.delivered, stats.abandoned, stats.nacked) == (7, 0, 0)
        assert (stats.resequenced, stats.out_of_order, stats.dup_discards) == (0, 0, 0)
        assert protection.outstanding(A_TO_B) == 0
        assert protection.outstanding(B_TO_A) == 0
        assert protection.epoch == 1  # one real down -> up transition

    @pytest.mark.parametrize("strict", [True, False])
    def test_stragglers_of_the_old_session_are_dropped_on_arrival(self, strict):
        sim = Simulator()
        topo, h1, h2, link = _pair(sim)
        protection = link.enable_protection(ProtectionConfig(strict_order=strict))
        _burst(h1, 3)
        sim.run(until=52e-6)  # frame 0 has arrived and its ACK is in flight; so are frames 1 and 2
        assert _indexes(h2) == [0]
        link.set_up(False)  # the three unacknowledged holds die with the link
        link.set_up(True)
        _burst(h1, 4, start=3)
        sim.run()
        # Old frames 1 and 2 carry the new session's numbers 2 and 3, and the
        # old ACK acknowledges its number 1: each is discarded and counted,
        # and the new session neither delivers, discards nor frees anything
        # on their account.
        assert _indexes(h2) == [0, 3, 4, 5, 6]
        assert link.stats_a_to_b.drops == 3 + 2
        assert link.stats_b_to_a.drops == 1
        stats = protection.stats_for(A_TO_B)
        assert (stats.delivered, stats.dup_discards, stats.nacked) == (5, 0, 0)
        assert (stats.resequenced, stats.out_of_order) == (0, 0)
        assert link.stats_a_to_b.retransmits == 0
        assert protection.outstanding(A_TO_B) == 0

    def test_abandons_after_max_retries_on_persistent_loss(self):
        sim = Simulator()
        plan = LinkFaultPlan(seed=0, a_to_b=LinkFaultProfile(loss=1.0))
        topo, h1, h2, link = _pair(sim, faults=plan)
        protection = link.enable_protection(ProtectionConfig(max_retries=3))
        _burst(h1, 2)
        sim.run()  # terminates because retries are bounded
        assert h2.received == []
        assert protection.stats_for(A_TO_B).abandoned == 2
        assert protection.outstanding(A_TO_B) == 0
        summary = summarize(link)
        assert (summary.delivered, summary.abandoned) == (0, 2)

    def test_ctrl_frames_not_in_scripted_index_space(self):
        # The 3rd a→b *data* frame must be hit even though protection ACKs
        # (b→a ctrl) and retransmissions interleave on the wire.
        sim = Simulator()
        plan = LinkFaultPlan(seed=0, scripted=[ScriptedFault("corrupt", A_TO_B, nth=3)])
        topo, h1, h2, link = _pair(sim, faults=plan)
        link.enable_protection()
        _burst(h1, 5)
        sim.run(until=5.0)
        assert _indexes(h2) == list(range(5))  # repaired
        assert link.stats_a_to_b.corrupted == 1
        assert link.stats_a_to_b.retransmits == 1

    def test_unprotected_unfaulted_link_unaffected(self):
        sim = Simulator()
        topo, h1, h2, link = _pair(sim)
        _burst(h1, 10)
        sim.run()
        assert _indexes(h2) == list(range(10))
        assert sim.executed_events == 10
        stats = link.stats_a_to_b
        assert (stats.drops, stats.corrupted, stats.retransmits, stats.ctrl_frames) == (0, 0, 0, 0)

    def test_switch_protect_port(self):
        from repro.net import Switch

        sim = Simulator()
        topo = Topology(sim)
        h1 = topo.add_host("h1", "10.0.0.1")
        sw = topo.add_node(Switch(sim, "s1"))
        link = topo.connect(h1, sw)
        protection = sw.protect_port(sw.port_to(h1))
        assert link.protection is protection
