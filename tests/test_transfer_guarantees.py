"""Tests for the transfer-strategy architecture (TransferSpec, guarantees,
pipeline optimizations, per-flow holds and releases)."""

import pytest

from repro.apps import GUARANTEE_SCENARIOS, run_guarantee_scenario
from repro.core import FlowKey, TransferGuarantee, TransferSpec
from repro.core import messages
from repro.core.messages import Message, MessageType
from repro.net import tcp_packet


class TestTransferSpec:
    def test_default_is_seed_flavor(self):
        spec = TransferSpec.default()
        assert spec.guarantee is TransferGuarantee.LOSS_FREE
        assert spec.parallelism == 0
        assert spec.batch_size == 1
        assert not spec.early_release

    def test_validation(self):
        with pytest.raises(ValueError):
            TransferSpec(parallelism=-1)
        with pytest.raises(ValueError):
            TransferSpec(batch_size=0)
        with pytest.raises(ValueError):
            TransferSpec(guarantee="loss_free")  # must be the enum

    def test_parse_accepts_spec_guarantee_string_and_dict(self):
        spec = TransferSpec(batch_size=4)
        assert TransferSpec.parse(spec) is spec
        assert TransferSpec.parse(None) == TransferSpec.default()
        assert TransferSpec.parse("order_preserving").guarantee is TransferGuarantee.ORDER_PRESERVING
        parsed = TransferSpec.parse({"guarantee": "no_guarantee", "batch_size": 8})
        assert parsed.guarantee is TransferGuarantee.NO_GUARANTEE
        assert parsed.batch_size == 8
        with pytest.raises(ValueError):
            TransferSpec.parse(42)

    def test_named_scenarios_cover_all_guarantees(self):
        guarantees = {spec.guarantee for spec in GUARANTEE_SCENARIOS.values()}
        assert guarantees == set(TransferGuarantee)


class TestBatchMessages:
    def test_put_perflow_batch_roundtrip(self, flow_key):
        from repro.core.state import StateChunk, StateRole

        chunks = [
            StateChunk(key=flow_key, role=StateRole.REPORTING, blob=b"x" * 10)
            for _ in range(3)
        ]
        message = messages.put_perflow_batch("mb", chunks, hold=True)
        decoded = Message.decode(message.encode())
        assert decoded.type == MessageType.PUT_PERFLOW_BATCH
        assert decoded.body["hold"] is True
        recovered = [messages.decode_chunk(body) for body in decoded.body["chunks"]]
        assert [chunk.key for chunk in recovered] == [flow_key] * 3

    def test_transfer_release_roundtrip(self, flow_key):
        message = messages.transfer_release("mb", [flow_key])
        decoded = Message.decode(message.encode())
        assert decoded.type == MessageType.TRANSFER_RELEASE
        keys = [FlowKey.from_dict(body) for body in decoded.body["keys"]]
        assert keys == [flow_key]


class TestPipelineOptimizations:
    def test_batched_move_transfers_everything(self, sim, controller, northbound, monitor_pair):
        mon1, mon2 = monitor_pair
        handle = northbound.move_internal("mon1", "mon2", None, spec=TransferSpec.batched(8))
        record = sim.run_until(handle.completed)
        assert record.chunks_transferred == 30
        assert record.puts_acked == 30
        assert record.batches_sent >= 30 // 8
        assert len(mon2.report_store) == 30

    def test_batched_move_preserves_record_contents(self, sim, controller, northbound, monitor_pair):
        mon1, mon2 = monitor_pair
        before = {key: (rec.packets, rec.bytes) for key, rec in mon1.report_store.items()}
        handle = northbound.move_internal("mon1", "mon2", None, spec=TransferSpec.batched(8))
        sim.run_until(handle.finalized)
        after = {key: (rec.packets, rec.bytes) for key, rec in mon2.report_store.items()}
        assert before == after

    def test_sequential_move_transfers_everything(self, sim, controller, northbound, monitor_pair):
        _, mon2 = monitor_pair
        handle = northbound.move_internal("mon1", "mon2", None, spec=TransferSpec.sequential())
        record = sim.run_until(handle.completed)
        assert record.chunks_transferred == 30
        assert len(mon2.report_store) == 30

    def test_bounded_window_move_transfers_everything(self, sim, controller, northbound, monitor_pair):
        _, mon2 = monitor_pair
        handle = northbound.move_internal("mon1", "mon2", None, spec=TransferSpec.parallel(window=4))
        record = sim.run_until(handle.completed)
        assert record.chunks_transferred == 30
        assert len(mon2.report_store) == 30

    def test_spec_recorded_on_operation(self, sim, controller, northbound, monitor_pair):
        spec = TransferSpec(guarantee=TransferGuarantee.NO_GUARANTEE, batch_size=8, parallelism=2)
        handle = northbound.move_internal("mon1", "mon2", None, spec=spec)
        record = sim.run_until(handle.completed)
        assert record.guarantee == "no_guarantee"
        assert record.batch_size == 8
        assert record.parallelism == 2


class TestGuaranteeSemantics:
    def test_loss_free_loses_nothing(self):
        result = run_guarantee_scenario("loss_free")
        assert result.updates_lost == 0
        assert result.record.events_dropped == 0
        assert result.record.events_forwarded == result.record.events_received

    def test_no_guarantee_drops_in_transfer_events(self):
        result = run_guarantee_scenario("no_guarantee")
        assert result.record.events_dropped > 0
        assert result.record.events_forwarded == 0
        assert result.updates_lost > 0

    def test_order_preserving_loses_nothing_and_releases_each_flow(self):
        result = run_guarantee_scenario("order_preserving")
        assert result.updates_lost == 0
        assert result.record.releases_sent == 20  # one release per moved flow
        assert result.record.events_forwarded == result.record.events_received

    def test_order_preserving_holds_destination_packets(self):
        result = run_guarantee_scenario("order_preserving", feed_destination=True)
        dst = result.scenario.mb2
        assert result.packets_held > 0
        # Every hold was released and every queued packet processed.
        assert not dst._held_flows
        assert not dst._held_packets

    def test_order_preserving_two_role_state_leaves_no_hold_behind(self, sim, controller, northbound, dummy_pair):
        """Dummies hold supporting AND reporting chunks per flow, so a flow's
        second chunk can stream in after its first was already released; the
        reopen path must re-release it instead of blackholing the flow."""
        src, dst = dummy_pair
        spec = TransferSpec(guarantee=TransferGuarantee.ORDER_PRESERVING)
        handle = northbound.move_internal("dummy-src", "dummy-dst", None, spec=spec)
        record = sim.run_until(handle.completed, limit=100)
        assert record.chunks_transferred == 200  # 100 flows x 2 roles
        # Values of the four-collection policy this closure record replaced.
        assert record.releases_sent == 100
        assert record.events_forwarded == 0
        sim.run(until=sim.now + 0.5)
        assert not dst._held_flows
        assert not dst._held_packets

    def test_early_release_clears_source_markers_before_finalize(self, sim, controller, northbound, monitor_pair):
        mon1, _ = monitor_pair
        spec = TransferSpec(early_release=True)
        handle = northbound.move_internal("mon1", "mon2", None, spec=spec)
        record = sim.run_until(handle.completed)
        assert record.releases_sent == 30
        # Let the release ACKs drain, but stay well before the quiescence delete.
        sim.run(until=sim.now + 0.05)
        assert mon1.transferred_flow_count() == 0
        assert len(mon1.report_store) == 30  # state not deleted yet

    def test_early_release_reduces_event_volume(self):
        eager = run_guarantee_scenario(TransferSpec(early_release=True))
        plain = run_guarantee_scenario(TransferSpec())
        assert eager.record.events_received < plain.record.events_received

    def test_order_preserving_shared_transfer_records_loss_free(self, sim, controller, northbound, monitor_pair):
        """Shared-state ops have no per-flow hold: an order-preserving request
        actually runs loss-free and must be recorded as such."""
        handle = northbound.merge_internal("mon1", "mon2", spec="order_preserving")
        record = sim.run_until(handle.completed)
        assert record.guarantee == "loss_free"

    def test_stats_archive_each_operation_with_its_guarantee(self, sim, controller, northbound, monitor_pair):
        handle = northbound.move_internal(
            "mon1", "mon2", None, spec=TransferSpec(guarantee=TransferGuarantee.NO_GUARANTEE)
        )
        sim.run_until(handle.finalized)
        handle = northbound.move_internal("mon2", "mon1", None)
        sim.run_until(handle.finalized)
        guarantees = [record.guarantee for record in controller.stats.records]
        assert guarantees.count("no_guarantee") == 1
        assert guarantees.count("loss_free") == 1
        assert controller.stats.records[-1].duration > 0


class TestHoldRelease:
    def test_held_packets_queue_until_release(self, sim, monitor_pair):
        _, mon2 = monitor_pair
        packet = tcp_packet("10.9.0.1", "192.0.2.10", 4242, 80, b"payload")
        key = packet.flow_key()
        mon2.hold_flows([key])
        mon2.receive(packet, 1)
        sim.run(until=sim.now + 0.01)
        assert mon2.counters.packets_held == 1
        assert len(mon2.report_store) == 0
        mon2.release_flows([key])
        assert len(mon2.report_store) == 1
        assert not mon2._held_packets

    def test_end_transfer_does_not_lift_holds(self, sim, monitor_pair):
        """TRANSFER_END can come from an unrelated clone/merge; it must not
        release holds owned by a concurrent order-preserving move."""
        _, mon2 = monitor_pair
        packet = tcp_packet("10.9.0.2", "192.0.2.10", 4242, 80, b"payload")
        mon2.hold_flows([packet.flow_key()])
        mon2.receive(packet, 1)
        sim.run(until=sim.now + 0.01)
        mon2.end_transfer()
        assert packet.flow_key().bidirectional() in mon2._held_flows
        assert len(mon2.report_store) == 0
        mon2.release_flows([packet.flow_key()])
        assert len(mon2.report_store) == 1
