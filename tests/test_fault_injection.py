"""Channel-level fault injection and reliable delivery.

Unit coverage of the chaos tentpole's wire layer: the seeded
:class:`~repro.core.channel.FaultPlan` (drops, duplicates, jitter,
reordering, scripted one-shot faults) and the reliable sequenced delivery
layer (cseq stamping, in-order delivery, receiver dedup, cumulative
CHAN_ACKs, retransmit-on-timeout) — plus the guarantee that everything is
byte-identical to the seed protocol when switched off.
"""

from __future__ import annotations

import pytest

from repro.core.channel import ControlChannel, FaultPlan, FaultProfile
from repro.core.messages import Message, MessageType
from repro.net import Simulator
from repro.runtime.arq import ScriptedFault


def make_channel(sim, **kwargs):
    """A bound channel recording deliveries on both sides."""
    channel = ControlChannel(sim, "chan-test", **kwargs)
    to_mb, to_controller = [], []
    channel.bind_middlebox(to_mb.append)
    channel.bind_controller(to_controller.append)
    return channel, to_mb, to_controller


def request(index: int) -> Message:
    return Message(MessageType.GET_STATS, mb="mb", body={"index": index})


class TestSeedEquivalence:
    def test_plain_channel_is_unsequenced_and_unreliable(self):
        sim = Simulator()
        channel, to_mb, _ = make_channel(sim)
        assert channel.reliable is False
        channel.send_to_middlebox(request(1))
        sim.run()
        assert len(to_mb) == 1
        assert to_mb[0].cseq is None
        assert b"cseq" not in to_mb[0].encode()

    def test_fault_plan_enables_reliability_by_default(self):
        sim = Simulator()
        channel, _, _ = make_channel(sim, faults=FaultPlan.symmetric(1))
        assert channel.reliable is True

    def test_cseq_round_trips_on_the_wire(self):
        message = request(7)
        message.cseq = 42
        decoded = Message.decode(message.encode())
        assert decoded.cseq == 42


class TestRandomFaults:
    def test_certain_drop_loses_the_message(self):
        sim = Simulator()
        plan = FaultPlan(1, to_mb=FaultProfile(drop=1.0))
        channel, to_mb, _ = make_channel(sim, faults=plan, reliable=False)
        channel.send_to_middlebox(request(1))
        sim.run()
        assert to_mb == []
        assert channel.to_mb.dropped == 1

    def test_duplicate_without_reliability_delivers_twice(self):
        sim = Simulator()
        plan = FaultPlan(1, to_mb=FaultProfile(duplicate=1.0))
        channel, to_mb, _ = make_channel(sim, faults=plan, reliable=False)
        channel.send_to_middlebox(request(1))
        sim.run()
        assert len(to_mb) == 2
        assert channel.to_mb.duplicated == 1

    def test_duplicate_with_reliability_is_deduped(self):
        sim = Simulator()
        plan = FaultPlan(1, to_mb=FaultProfile(duplicate=1.0))
        channel, to_mb, _ = make_channel(sim, faults=plan)
        channel.send_to_middlebox(request(1))
        sim.run(until=0.05)
        assert len(to_mb) == 1
        assert channel.to_mb.dedup_discards >= 1

    def test_jitter_delays_delivery(self):
        sim = Simulator()
        plan = FaultPlan(3, to_mb=FaultProfile(jitter=5.0))
        channel, to_mb, _ = make_channel(sim, faults=plan, reliable=False)
        baseline = ControlChannel(sim, "chan-clean")
        clean_deliveries = []
        baseline.bind_middlebox(clean_deliveries.append)
        jittered_at = channel.send_to_middlebox(request(1))
        clean_at = baseline.send_to_middlebox(request(1))
        assert jittered_at > clean_at

    def test_scripted_drop_hits_the_scripted_message_only(self):
        sim = Simulator()
        plan = FaultPlan(1, scripted=[ScriptedFault(kind="drop", direction="to_mb", nth=2)])
        channel, to_mb, _ = make_channel(sim, faults=plan, reliable=False)
        for index in range(1, 4):
            channel.send_to_middlebox(request(index))
        sim.run()
        assert [message.body["index"] for message in to_mb] == [1, 3]
        assert channel.to_mb.dropped == 1

    def test_one_script_drives_every_plan_built_from_it(self):
        """A scripted fault is part of the script, not of one plan: two plans built from one list both fire it."""
        script = [ScriptedFault(kind="drop", direction="to_mb", nth=2)]
        for plan in (FaultPlan(1, scripted=script), FaultPlan(1, scripted=script)):
            channel, to_mb, _ = make_channel(Simulator(), faults=plan, reliable=False)
            for index in range(1, 4):
                channel.send_to_middlebox(request(index))
            channel.sim.run()
            assert [message.body["index"] for message in to_mb] == [1, 3]
            assert channel.to_mb.dropped == 1

    def test_scripted_drop_counts_payloads_not_acks(self):
        """With reliability on, 'the nth message' means the nth payload frame.

        Bidirectional traffic interleaves CHAN_ACK frames into the to_mb
        direction; the scripted index must skip them (and the drop is then
        repaired by retransmission, so everything still arrives in order).
        """
        sim = Simulator()
        plan = FaultPlan(1, scripted=[ScriptedFault(kind="drop", direction="to_mb", nth=2)])
        channel, to_mb, to_controller = make_channel(sim, faults=plan)
        for index in range(1, 4):
            channel.send_to_middlebox(request(index))
            channel.send_to_controller(Message(MessageType.EVENT, mb="mb", body={"index": index}))
        sim.run(until=1.0)
        assert channel.to_mb.dropped == 1
        assert channel.to_mb.retransmits == 1
        assert [message.body["index"] for message in to_mb] == [1, 2, 3]
        assert [message.body["index"] for message in to_controller] == [1, 2, 3]

    def test_same_seed_injects_identical_faults(self):
        outcomes = []
        for _ in range(2):
            sim = Simulator()
            plan = FaultPlan.symmetric(99, drop=0.3, duplicate=0.2, jitter=1.0, reorder=0.2)
            channel, to_mb, _ = make_channel(sim, faults=plan, reliable=False)
            for index in range(1, 21):
                channel.send_to_middlebox(request(index))
            sim.run()
            outcomes.append(
                (
                    [message.body["index"] for message in to_mb],
                    channel.to_mb.dropped,
                    channel.to_mb.duplicated,
                    channel.to_mb.reordered,
                )
            )
        assert outcomes[0] == outcomes[1]


class TestReliableDelivery:
    def test_fifo_preserved_under_reordering_and_duplicates(self):
        sim = Simulator()
        plan = FaultPlan.symmetric(7, duplicate=0.3, jitter=3.0, reorder=0.5)
        channel, to_mb, _ = make_channel(sim, faults=plan)
        for index in range(1, 31):
            channel.send_to_middlebox(request(index))
        sim.run(until=1.0)
        assert [message.body["index"] for message in to_mb] == list(range(1, 31))

    def test_drops_are_retransmitted_until_delivered_in_order(self):
        sim = Simulator()
        plan = FaultPlan.symmetric(5, drop=0.3)
        channel, to_mb, _ = make_channel(sim, faults=plan)
        for index in range(1, 31):
            channel.send_to_middlebox(request(index))
        sim.run(until=2.0)
        assert [message.body["index"] for message in to_mb] == list(range(1, 31))
        assert channel.to_mb.dropped > 0
        assert channel.to_mb.retransmits > 0

    def test_both_directions_recover_independently(self):
        sim = Simulator()
        plan = FaultPlan.symmetric(11, drop=0.25, jitter=1.0)
        channel, to_mb, to_controller = make_channel(sim, faults=plan)
        for index in range(1, 16):
            channel.send_to_middlebox(request(index))
            channel.send_to_controller(Message(MessageType.ACK, mb="mb", body={"index": index}))
        sim.run(until=2.0)
        assert [message.body["index"] for message in to_mb] == list(range(1, 16))
        assert [message.body["index"] for message in to_controller] == list(range(1, 16))

    def test_resending_one_message_object_is_two_deliveries_in_order(self):
        """The sender holds the bytes it encoded, not the caller's object:
        sending it again is the next number, and cannot renumber the entry a
        retransmission re-sends (the receiver would see the second cseq twice
        and wait for the first forever).  The caller's object stays unnumbered."""
        sim = Simulator()
        plan = FaultPlan(1, scripted=[ScriptedFault(kind="drop", direction="to_mb", nth=1)])
        channel, to_mb, _ = make_channel(sim, faults=plan)
        again = request(1)
        for message in (again, again, request(2), again):
            channel.send_to_middlebox(message)
        assert again.cseq is None
        sim.run(until=1.0)
        assert channel.to_mb.dropped == 1 and channel.to_mb.retransmits == 1
        assert [(message.body["index"], message.cseq) for message in to_mb] == [(1, 1), (1, 2), (2, 3), (1, 4)]
        assert again.cseq is None
        assert sim.pending_events == 0

    def test_a_retransmission_re_sends_the_first_attempt_s_bytes(self):
        attempts = []

        class Tapped(ControlChannel):
            def _transmit(self, direction, encoded, retry=False, ack=False):
                if not ack:
                    attempts.append((direction, encoded, retry))
                return super()._transmit(direction, encoded, retry, ack)

        sim = Simulator()
        plan = FaultPlan(1, scripted=[ScriptedFault(kind="drop", direction="to_mb", nth=1)])
        channel = Tapped(sim, "chan-test", faults=plan)
        to_mb = []
        channel.bind_middlebox(to_mb.append)
        channel.bind_controller(lambda message: None)
        channel.send_to_middlebox(request(1))
        sim.run(until=1.0)
        assert [retry for _, _, retry in attempts] == [False, True]
        assert attempts[0][1] == attempts[1][1] == request(1).encode(1)
        assert [(message.body["index"], message.cseq) for message in to_mb] == [(1, 1)]

    def test_retransmissions_stop_after_cumulative_ack(self):
        """Once everything is acked, the channel goes idle (queue drains)."""
        sim = Simulator()
        channel, to_mb, _ = make_channel(sim, faults=FaultPlan.symmetric(2, drop=0.2))
        for index in range(1, 11):
            channel.send_to_middlebox(request(index))
        sim.run(until=5.0)
        assert sim.pending_events == 0
        assert len(to_mb) == 10

    def test_middlebox_down_abandons_retransmissions(self):
        sim = Simulator()
        channel, to_mb, _ = make_channel(sim, faults=FaultPlan(1, to_mb=FaultProfile(drop=1.0)))
        channel.send_to_middlebox(request(1))
        channel.close("middlebox")
        sim.run(until=5.0)
        assert sim.pending_events == 0
        assert to_mb == []

    def test_unbind_controller_abandons_mb_side_retransmissions(self):
        sim = Simulator()
        channel, _, to_controller = make_channel(
            sim, faults=FaultPlan(1, to_controller=FaultProfile(drop=1.0))
        )
        channel.send_to_controller(Message(MessageType.EVENT, mb="mb"))
        channel.close("controller")
        sim.run(until=5.0)
        assert sim.pending_events == 0
        assert to_controller == []

    def test_chan_acks_never_reach_the_handlers(self):
        sim = Simulator()
        channel, to_mb, to_controller = make_channel(sim, reliable=True)
        for index in range(1, 4):
            channel.send_to_middlebox(request(index))
        sim.run(until=1.0)
        assert all(message.type != MessageType.CHAN_ACK for message in to_mb)
        assert all(message.type != MessageType.CHAN_ACK for message in to_controller)
        assert channel.to_controller.chan_acks > 0


class TestClose:
    """A death is one call: ``ControlChannel.close(end)`` stops the dead end.

    Nothing reaches the dead end and it sends nothing more; neither direction
    holds or re-sends anything; a frame it sent before it died still arrives
    at the live end; binding the end again opens a fresh session.
    """

    @pytest.mark.parametrize("dead", ["middlebox", "controller"])
    def test_nothing_reaches_the_dead_end_and_it_sends_nothing(self, dead):
        sim = Simulator()
        channel, to_mb, to_controller = make_channel(sim, reliable=True)
        channel.close(dead)
        channel.send_to_middlebox(request(1))
        channel.send_to_controller(request(2))
        sim.run()
        assert to_mb == [] and to_controller == []
        # Only the live end's frame went on the wire, towards the dead end, and was discarded on arrival.
        towards_dead, from_dead = (channel.to_mb, channel.to_controller)[:: 1 if dead == "middlebox" else -1]
        assert (towards_dead.messages, from_dead.messages) == (1, 0)
        assert channel.session == 1

    @pytest.mark.parametrize("dead", ["middlebox", "controller"])
    def test_neither_direction_holds_or_resends_after_a_close(self, dead):
        sim = Simulator()
        channel, _, _ = make_channel(sim, faults=FaultPlan.symmetric(1, drop=1.0))
        channel.send_to_middlebox(request(1))
        channel.send_to_controller(request(2))
        channel.close(dead)
        channel.send_to_middlebox(request(3))
        channel.send_to_controller(request(4))
        sim.run(until=5.0)
        assert sim.pending_events == 0
        assert channel.to_mb.retransmits == channel.to_controller.retransmits == 0

    def test_a_frame_sent_before_the_death_still_arrives_at_the_live_end(self):
        sim = Simulator()
        channel, to_mb, to_controller = make_channel(sim, reliable=True)
        channel.send_to_controller(request(1))
        channel.send_to_middlebox(request(2))
        channel.close("middlebox")
        sim.run()
        assert [message.body["index"] for message in to_controller] == [1]
        assert to_mb == []
        # The live end acknowledges nothing towards the dead one.
        assert channel.to_mb.chan_acks == 0

    def test_a_later_bind_opens_a_fresh_session(self):
        sim = Simulator()
        channel, _, _ = make_channel(sim, reliable=True)
        channel.send_to_middlebox(request(1))
        channel.send_to_controller(request(2))
        sim.run()
        channel.close("middlebox")
        to_mb = []
        channel.bind_middlebox(to_mb.append)
        channel.send_to_middlebox(request(3))
        sim.run()
        assert [(message.body["index"], message.cseq) for message in to_mb] == [(3, 1)]


class TestLivenessEvidence:
    """A peer is alive while its frames arrive: ``ControlChannel.heard_at``.

    A frame new to its receiver moves the sending end's ``heard_at`` on
    arrival, even while it waits above a retransmission gap; a duplicate and
    a ``CHAN_ACK`` do not, and binding the receiving end resets it.  Both
    failure detectors (the controller's liveness sweep and the federation's
    suspicion check) read nothing else.
    """

    def test_a_frame_held_above_a_gap_moves_heard_at_before_it_is_delivered(self):
        sim = Simulator()
        plan = FaultPlan(1, scripted=[ScriptedFault(kind="drop", direction="to_controller", nth=1)])
        channel, _, to_controller = make_channel(sim, faults=plan, latency=1e-3)
        channel.send_to_controller(request(1))
        arrival = channel.send_to_controller(request(2))
        sim.run(until=arrival + 1e-3)  # long before the RTO re-sends frame 1
        assert to_controller == [] and channel.to_controller.retransmits == 0
        assert channel.heard_at["to_controller"] == arrival > 0
        assert channel.heard_at["to_mb"] == 0.0

    def test_a_duplicate_and_a_chan_ack_do_not_move_heard_at(self):
        sim = Simulator()
        plan = FaultPlan(1, to_controller=FaultProfile(duplicate=1.0, jitter=2.0))
        channel, _, to_controller = make_channel(sim, faults=plan, latency=1e-3)
        arrival = channel.send_to_controller(request(1))
        sim.run(until=1.0)
        assert len(to_controller) == 1 and channel.to_controller.dedup_discards == 1
        assert channel.heard_at["to_controller"] == arrival > 0
        # The receiver's CHAN_ACK travelled to_mb: no evidence about the controller side.
        assert channel.to_mb.chan_acks == 2 and channel.to_mb.messages == 2
        assert channel.heard_at["to_mb"] == 0.0

    def test_binding_the_receiving_end_resets_heard_at(self):
        sim = Simulator()
        channel, _, _ = make_channel(sim, reliable=True)
        channel.send_to_controller(request(1))
        channel.send_to_middlebox(request(2))
        sim.run(until=0.01)
        assert 0 < channel.heard_at["to_controller"] < 0.01 and 0 < channel.heard_at["to_mb"] < 0.01
        channel.close("controller")
        channel.close("middlebox")
        sim.run(until=0.5)
        channel.bind_controller(lambda message: None)
        channel.bind_middlebox(lambda message: None)
        assert channel.heard_at == {"to_mb": 0.5, "to_controller": 0.5}

    def test_a_live_instance_whose_frames_wait_above_a_gap_is_not_declared_dead(self):
        """Heartbeats every 1 ms; the second is lost, and the RTO (8 ms) re-sends
        it only after the 4 ms liveness timeout.  Nothing is delivered for ~9 ms,
        but heartbeats 3, 4, ... keep arriving above the gap: the instance lives."""
        from repro.core import ControllerConfig, MBController
        from repro.middleboxes import DummyMiddlebox

        sim = Simulator()
        controller = MBController(sim, ControllerConfig(heartbeat_interval=1e-3, liveness_timeout=4e-3))
        plan = FaultPlan(1, scripted=[ScriptedFault(kind="drop", direction="to_controller", nth=2)])
        channel = ControlChannel(sim, "chan-mb", latency=1e-3, faults=plan)
        assert channel.retransmit_timeout > controller.config.liveness_timeout
        controller.register(DummyMiddlebox(sim, "mb"), channel=channel)
        delivered = []
        handler = channel._handlers["to_controller"]
        channel._handlers["to_controller"] = lambda message: (delivered.append(sim.now), handler(message))
        sim.run(until=0.03)
        assert controller.is_registered("mb") and controller.stats.instances_declared_dead == 0
        gaps = [later - earlier for earlier, later in zip(delivered, delivered[1:])]
        assert channel.to_controller.dropped == 1 and channel.to_controller.retransmits == 1
        assert max(gaps) > controller.config.liveness_timeout  # delivery stalled past the timeout
        controller.unregister("mb")


class TestOperationsOverFaultyChannels:
    """End-to-end: a full move over lossy channels still completes exactly-once."""

    @pytest.mark.parametrize("drop", (0.01, 0.05))
    def test_move_survives_control_message_drops(self, drop):
        from repro.core import ControllerConfig, MBController, NorthboundAPI
        from repro.middleboxes import DummyMiddlebox

        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.1))
        northbound = NorthboundAPI(controller)
        src = DummyMiddlebox(sim, "fsrc", chunk_count=50)
        dst = DummyMiddlebox(sim, "fdst")
        controller.register(
            src, channel=ControlChannel(sim, "chan-fsrc", faults=FaultPlan.symmetric(21, drop=drop, jitter=2.0))
        )
        controller.register(
            dst, channel=ControlChannel(sim, "chan-fdst", faults=FaultPlan.symmetric(22, drop=drop, jitter=2.0))
        )
        handle = northbound.move_internal("fsrc", "fdst", None)
        record = sim.run_until(handle.completed, limit=30)
        assert record.puts_acked == 100  # supporting + reporting, exactly once
        assert len(dst.support_store) == 50
        assert len(dst.report_store) == 50
        sim.run_until(handle.finalized, limit=60)
        assert len(src.support_store) == 0
