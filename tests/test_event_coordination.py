"""Regression tests for cross-operation event coordination.

The seed had a replay-suppression bug: when a move and a clone/merge shared
the same src->dst pair, the clone/merge flushed buffered events at its own
completion — possibly *before* the move's put for the affected flow was
ACKed — and the global (event, destination) replay dedup then suppressed the
move's later replay, so the arriving chunk silently overwrote the update.

The fix has two halves, both covered here:

* clone/merge operations only handle events whose packet updated *shared*
  state in transfer (a pure per-flow event is the concurrent move's job);
* the controller's replay dedup is sequence-token based: ACKed installs and
  replays draw tokens from one monotonic counter the controller keeps to
  itself, and a replay is re-issued (per-flow component only) when a chunk
  for the event's flow was installed after the event's last replay.
"""


from repro.core import ControllerConfig, MBController, NorthboundAPI
from repro.middleboxes import PassiveMonitor
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


class TestSequenceTokens:
    def test_forward_event_still_idempotent_without_new_install(self, sim):
        from repro.middleboxes import DummyMiddlebox

        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        src = DummyMiddlebox(sim, "s", chunk_count=1)
        dst = DummyMiddlebox(sim, "d")
        controller.register(src)
        controller.register(dst)
        event = src.generate_reprocess_event(0)
        event.event_id = next(controller._event_ids)  # numbered as the controller numbers what it decodes
        assert controller.forward_event("d", event) == "sent"
        assert controller.forward_event("d", event) == "covered"

    def test_forward_event_reissued_after_state_install(self, sim):
        from repro.middleboxes import DummyMiddlebox

        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        src = DummyMiddlebox(sim, "s", chunk_count=1)
        dst = DummyMiddlebox(sim, "d")
        controller.register(src)
        controller.register(dst)
        event = src.generate_reprocess_event(0)
        event.event_id = next(controller._event_ids)  # numbered as the controller numbers what it decodes
        assert controller.forward_event("d", event) == "sent"
        sim.run(until=sim.now + 1.0)  # drain the replay's ACK
        # A chunk for the event's flow lands at the destination afterwards:
        # it overwrote the replayed update, so the replay must be re-issued.
        controller.note_perflow_installed("d", [event.key.bidirectional()])
        assert controller.forward_event("d", event) == "sent"
        # ... but only once per install.
        sim.run(until=sim.now + 1.0)
        assert controller.forward_event("d", event) == "covered"

    def test_forward_event_defers_while_replay_in_flight(self, sim):
        """An install ACKed while a replay is still on the wire was applied
        *before* that replay (one FIFO ACK channel), so it did not overwrite
        the replay and no re-issue may happen — that was a double apply."""
        from repro.middleboxes import DummyMiddlebox

        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        src = DummyMiddlebox(sim, "s", chunk_count=1)
        dst = DummyMiddlebox(sim, "d")
        controller.register(src)
        controller.register(dst)
        event = src.generate_reprocess_event(0)
        event.event_id = next(controller._event_ids)  # numbered as the controller numbers what it decodes
        assert controller.forward_event("d", event) == "sent"
        # The replay has not ACKed yet; an install stamped now happened first.
        controller.note_perflow_installed("d", [event.key.bidirectional()])
        assert controller.forward_event("d", event) == "covered"

    def test_install_tokens_pruned_with_operation(self, sim):
        controller, northbound, src, dst = make_pair(sim)
        feed(sim, src, 20, spacing=0.0)
        sim.run(until=0.05)
        handle = northbound.move_internal("coord-src", "coord-dst", None)
        feed(sim, src, 10, spacing=0.0005)
        sim.run_until(handle.finalized, limit=100)
        sim.run(until=sim.now + 1.0)
        assert len(controller._forwarded_events) == 0
        assert len(controller._installed_state) == 0
