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
        """The sender tracks a stamped copy, not the caller's object: sending
        it again must not renumber the entry a retransmission re-encodes (the
        receiver would see the second cseq twice and wait for the first forever)."""
        sim = Simulator()
        plan = FaultPlan(1, scripted=[ScriptedFault(kind="drop", direction="to_mb", nth=1)])
        channel, to_mb, _ = make_channel(sim, faults=plan)
        again = request(1)
        for message in (again, request(2), again):
            channel.send_to_middlebox(message)
        sim.run(until=1.0)
        assert channel.to_mb.dropped == 1 and channel.to_mb.retransmits == 1
        assert [(message.body["index"], message.cseq) for message in to_mb] == [(1, 1), (2, 2), (1, 3)]
        assert again.cseq is None
        assert sim.pending_events == 0

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
        channel.set_middlebox_down()
        sim.run(until=5.0)
        assert sim.pending_events == 0
        assert to_mb == []

    def test_unbind_controller_abandons_mb_side_retransmissions(self):
        sim = Simulator()
        channel, _, to_controller = make_channel(
            sim, faults=FaultPlan(1, to_controller=FaultProfile(drop=1.0))
        )
        channel.send_to_controller(Message(MessageType.EVENT, mb="mb"))
        channel.unbind_controller()
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
