"""Regression tests for cross-operation event coordination.

The seed had a replay-suppression bug: when a move and a clone/merge shared
the same src->dst pair, the clone/merge flushed buffered events at its own
completion — possibly *before* the move's put for the affected flow was
ACKed — and the global (event, destination) replay dedup then suppressed the
move's later replay, so the arriving chunk silently overwrote the update.

The fix has two halves, both covered here:

* clone/merge operations only handle events whose packet updated *shared*
  state in transfer (a pure per-flow event is the concurrent move's job);
* replay dedup is sequence-token based: one ``ReplayLedger`` per destination,
  shared by every live operation targeting it, in which ACKed installs and
  replays draw tokens from one monotonic counter; a replay is re-issued
  (per-flow component only) when a chunk for the event's flow was installed
  after the event's last replay.
"""


from repro.core import ControllerConfig, FlowPattern, MBController, NorthboundAPI
from repro.core.events import Event, EventCode
from repro.core.flowspace import FlowKey
from repro.core.operations import ReplayLedger
from repro.middleboxes import DummyMiddlebox, PassiveMonitor
from repro.net import tcp_packet


def make_pair(sim, quiescence=0.2):
    controller = MBController(sim, ControllerConfig(quiescence_timeout=quiescence))
    northbound = NorthboundAPI(controller)
    src = PassiveMonitor(sim, "coord-src")
    dst = PassiveMonitor(sim, "coord-dst")
    controller.register(src)
    controller.register(dst)
    return controller, northbound, src, dst


def feed(sim, mb, count, *, spacing=0.001, flows=8, start=0.0):
    for index in range(count):
        packet = tcp_packet(
            f"10.0.0.{index % flows + 1}", "192.0.2.10", 1000 + index % flows, 80, b"payload"
        )
        sim.schedule(start + spacing * index, mb.receive, packet, 1)


class TestInterleavedMoveAndClone:
    """The ROADMAP open item: a concurrent clone flush must not suppress a
    same-destination move's replay."""

    def test_interleaved_move_clone_suppresses_no_replays(self, sim):
        controller, northbound, src, dst = make_pair(sim)
        feed(sim, src, 40, spacing=0.0)
        sim.run(until=0.05)
        packets_before = sum(rec.packets for _, rec in src.report_store.items())

        # The monitor has no shared *supporting* state, so the clone completes
        # almost immediately — in the seed this is the worst case: every event
        # the move buffers is flushed early by the clone, poisoning the dedup.
        move = northbound.move_internal("coord-src", "coord-dst", None)
        clone = northbound.clone_support("coord-src", "coord-dst")
        feed(sim, src, 40, spacing=0.0005)
        sim.run_until(move.finalized, limit=100)
        sim.run(until=sim.now + 1.0)

        # Zero suppressed replays: every re-process event the move received
        # was replayed at the destination.
        assert move.record.events_received > 0
        assert move.record.events_forwarded == move.record.events_received
        assert clone.completed.done
        # Conservation: every packet update survived the transfer (the bug
        # manifested as chunk-overwritten replays, i.e. lost updates).
        packets_after = sum(rec.packets for _, rec in dst.report_store.items())
        packets_after += sum(rec.packets for _, rec in src.report_store.items())
        assert packets_after == packets_before + 40

    def test_clone_ignores_pure_perflow_events(self, sim):
        controller, northbound, src, dst = make_pair(sim)
        feed(sim, src, 20, spacing=0.0)
        sim.run(until=0.05)
        move = northbound.move_internal("coord-src", "coord-dst", None)
        clone = northbound.clone_support("coord-src", "coord-dst")
        feed(sim, src, 20, spacing=0.0005)
        sim.run_until(move.completed, limit=100)
        sim.run(until=sim.now + 1.0)
        # The monitor's shared supporting slot is empty, so no shared transfer
        # was marked: every event is per-flow-only and none belongs to the clone.
        assert clone.record.events_received == 0
        assert clone.record.events_forwarded == 0
        assert move.record.events_forwarded == move.record.events_received

    def test_interleaved_move_merge_conserves_updates(self, sim):
        """The merge variant: dual (per-flow + shared) events replay once per
        state component, and the per-flow component is re-replayed when a
        later chunk overwrote it."""
        controller, northbound, src, dst = make_pair(sim)
        feed(sim, src, 40, spacing=0.0)
        sim.run(until=0.05)
        packets_before = sum(rec.packets for _, rec in src.report_store.items())

        move = northbound.move_internal("coord-src", "coord-dst", None)
        northbound.merge_internal("coord-src", "coord-dst")
        feed(sim, src, 40, spacing=0.0005)
        sim.run_until(move.finalized, limit=100)
        sim.run(until=sim.now + 1.0)

        assert move.record.events_forwarded == move.record.events_received
        packets_after = sum(rec.packets for _, rec in dst.report_store.items())
        packets_after += sum(rec.packets for _, rec in src.report_store.items())
        assert packets_after == packets_before + 40
        # Replays are bounded: at most one per event per state component.
        raised = src.counters.reprocess_events_raised
        assert dst.counters.reprocessed_packets <= 2 * raised


def replay(ledger, event):
    """Replay *event* as an operation does: claim it, and send when the ledger says it is due."""
    claim = ledger.claim(event)
    if claim is not None:
        ledger.sent(event.event_id, claim[0])
    return claim


class TestSequenceTokens:
    """One destination's :class:`ReplayLedger`, driven as the operations drive it."""

    EVENT = Event("s", EventCode.REPROCESS, key=FlowKey(6, "10.0.0.1", "192.0.2.10", 1000, 80), event_id=1)

    def test_a_replay_covers_the_event_without_a_new_install(self):
        ledger = ReplayLedger()
        token, shared = replay(ledger, self.EVENT)
        assert shared is None  # the first replay carries the event's own shared flag
        assert replay(ledger, self.EVENT) is None
        ledger.answered(self.EVENT.event_id, token, acked=True)
        assert replay(ledger, self.EVENT) is None

    def test_a_replay_is_reissued_after_a_state_install(self):
        ledger = ReplayLedger()
        token, _ = replay(ledger, self.EVENT)
        ledger.answered(self.EVENT.event_id, token, acked=True)  # the replay's ACK
        # A chunk for the event's flow lands at the destination afterwards:
        # it overwrote the replayed update, so the replay must be re-issued,
        # without the shared component (shared puts merge, it survived).
        ledger.installed((self.EVENT.key.bidirectional(),))
        token, shared = replay(ledger, self.EVENT)
        assert shared is False
        # ... but only once per install.
        ledger.answered(self.EVENT.event_id, token, acked=True)
        assert replay(ledger, self.EVENT) is None

    def test_a_reissue_waits_while_the_replay_is_in_flight(self):
        """An install ACKed while a replay is still on the wire was applied
        *before* that replay (one FIFO ACK channel), so it did not overwrite
        the replay and no re-issue may happen — that was a double apply."""
        ledger = ReplayLedger()
        replay(ledger, self.EVENT)
        # The replay has not ACKed yet; an install stamped now happened first.
        ledger.installed((self.EVENT.key.bidirectional(),))
        assert replay(ledger, self.EVENT) is None

    def test_the_ledger_goes_with_the_operation(self, sim):
        controller, northbound, src, dst = make_pair(sim)
        feed(sim, src, 20, spacing=0.0)
        sim.run(until=0.05)
        handle = northbound.move_internal("coord-src", "coord-dst", None)
        assert handle._operation.ledger is controller._ledgers["coord-dst"]
        feed(sim, src, 10, spacing=0.0005)
        record = sim.run_until(handle.finalized, limit=100)
        sim.run(until=sim.now + 1.0)
        assert record.events_forwarded > 0
        assert controller._ledgers == {}

    def test_the_ledger_outlives_the_first_operation_and_goes_with_the_last(self, sim):
        """A move and a merge sharing a destination share its ledger until both are done."""
        controller, northbound, src, dst = make_pair(sim)
        feed(sim, src, 20, spacing=0.0)
        sim.run(until=0.05)
        move = northbound.move_internal("coord-src", "coord-dst", None)
        merge = northbound.merge_internal("coord-src", "coord-dst")
        ledger = controller._ledgers["coord-dst"]
        assert move._operation.ledger is merge._operation.ledger is ledger
        feed(sim, src, 10, spacing=0.0005)
        sim.run_until(move.completed, limit=100)
        sim.run_until(merge.completed, limit=100)
        assert controller.abort_operation(move)  # the move finishes first, its delete cancelled
        assert controller._ledgers == {"coord-dst": ledger}
        assert ledger.replays  # the move's replays still cover their events for the merge
        sim.run_until(merge.finalized, limit=100)
        assert controller._ledgers == {}


class TestShardedDelivery:
    def test_an_exact_move_sees_no_event_of_a_flow_another_shard_owns(self, sim):
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2, num_shards=4))
        src = DummyMiddlebox(sim, "s", chunk_count=16)
        controller.register(src)
        controller.register(DummyMiddlebox(sim, "d"))
        moved = src.flow_key_for(0)
        handle = NorthboundAPI(controller).move_internal("s", "d", FlowPattern.from_flow(moved))
        operation = handle._operation
        home = controller.coordinator.shard_for_key(moved)
        assert operation.shards == [home]
        seen = []
        deliver = operation.on_event
        operation.on_event = lambda event: (seen.append(event.key), deliver(event))
        sim.run_until(handle.completed, limit=100)
        keys = [src.flow_key_for(index) for index in range(16)]
        for index in range(16):
            src.generate_reprocess_event(index)
        sim.run_until(handle.finalized, limit=100)
        owned = [key for key in keys if controller.coordinator.shard_for_key(key) is home]
        assert len(owned) < len(keys)  # some flows live on other shards
        assert seen == owned
        assert handle.record.events_received == len(owned)
