"""Tests for iterative pre-copy state transfer and its dirty tracking.

Covers the satellite checklist of the pre-copy PR: store-level versioned
dirty-key tracking, flows dirtied mid-round being resent by the next round,
round tags preventing a superseded round from overwriting newer destination
state, ``precopy`` with ``max_rounds=0`` degrading to snapshot behaviour, and
loss-free losing zero updates under sustained traffic.
"""

import pytest

from repro.apps import run_guarantee_scenario
from repro.core import (
    ControllerConfig,
    FlowKey,
    MBController,
    NorthboundAPI,
    TransferGuarantee,
    TransferMode,
    TransferSpec,
)
from repro.core.errors import SpecError
from repro.core.state import PerFlowStateStore, StateRole
from repro.middleboxes import DummyMiddlebox
from repro.net import Simulator, tcp_packet


def key_for(index: int) -> FlowKey:
    return FlowKey(6, f"10.5.0.{index + 1}", "192.0.2.10", 1000 + index, 80)


# =========================================================================================
# TransferSpec: the new mode axis
# =========================================================================================


class TestPrecopySpec:
    def test_default_spec_is_snapshot(self):
        spec = TransferSpec.default()
        assert spec.mode is TransferMode.SNAPSHOT
        assert not spec.is_precopy

    def test_precopy_constructor(self):
        spec = TransferSpec.precopy(max_rounds=2, dirty_threshold=5)
        assert spec.mode is TransferMode.PRECOPY
        assert spec.is_precopy
        assert (spec.guarantee, spec.max_rounds, spec.dirty_threshold) == (TransferGuarantee.LOSS_FREE, 2, 5)

    def test_precopy_with_zero_rounds_is_not_iterative(self):
        assert not TransferSpec.precopy(max_rounds=0).is_precopy

    def test_validation(self):
        with pytest.raises(ValueError):
            TransferSpec(mode="precopy")  # must be the enum
        with pytest.raises(ValueError):
            TransferSpec(max_rounds=-1)
        with pytest.raises(ValueError):
            TransferSpec(dirty_threshold=-1)

    def test_parse_accepts_mode_fields(self):
        parsed = TransferSpec.parse({"mode": "precopy", "max_rounds": 2, "dirty_threshold": 3})
        assert parsed.mode is TransferMode.PRECOPY
        assert parsed.max_rounds == 2
        assert parsed.dirty_threshold == 3
        with pytest.raises(SpecError):
            TransferSpec.parse({"mode": "postcopy"})


# =========================================================================================
# Store-level versioned dirty tracking
# =========================================================================================


class TestDirtyTracking:
    def test_mutations_only_tracked_while_armed(self):
        store = PerFlowStateStore()
        store.put(key_for(0), {"v": 0})
        assert store.dirty_count == 0  # not tracking yet
        store.begin_dirty_tracking()
        store.put(key_for(1), {"v": 1})
        store.get_or_create(key_for(0), dict)  # in-place mutation accessor counts
        store.remove(key_for(1))
        assert store.dirty_count == 2
        store.end_dirty_tracking()
        store.put(key_for(2), {"v": 2})
        assert store.dirty_count == 0

    def test_drain_returns_keys_in_dirtying_order_and_clears(self):
        store = PerFlowStateStore()
        for index in range(3):
            store.put(key_for(index), {"v": index})
        store.begin_dirty_tracking()
        store.get_or_create(key_for(2), dict)
        store.get_or_create(key_for(0), dict)
        drained = store.drain_dirty()
        assert drained == [key_for(2).bidirectional(), key_for(0).bidirectional()]
        assert store.dirty_count == 0
        store.get_or_create(key_for(1), dict)
        assert store.drain_dirty() == [key_for(1).bidirectional()]

    def test_plain_get_does_not_dirty(self):
        store = PerFlowStateStore()
        store.put(key_for(0), {"v": 0})
        store.begin_dirty_tracking()
        store.get(key_for(0))
        assert store.dirty_count == 0

    def test_middlebox_packet_processing_marks_dirty(self, sim):
        """The data plane dirties flows via ProcessResult.updated_flows."""
        mb = DummyMiddlebox(sim, "d-src", chunk_count=4)
        mb.support_store.begin_dirty_tracking()
        key = mb.flow_key_for(2)
        mb.receive(tcp_packet(key.nw_src, key.nw_dst, key.tp_src, key.tp_dst, b"x"), 0)
        sim.run(until=sim.now + 0.01)
        assert mb.support_store.dirty_count == 1
        assert mb.dirty_perflow_count(StateRole.SUPPORTING) == 1
        assert mb.support_store.drain_dirty() == [key.bidirectional()]

    def test_get_perflow_dirty_final_marks_transfer_and_stops_tracking(self, sim):
        mb = DummyMiddlebox(sim, "d-final", chunk_count=3)
        mb.support_store.begin_dirty_tracking()
        mb.support_store.get_or_create(mb.flow_key_for(1), dict)
        from repro.core.flowspace import FlowPattern

        chunks = list(mb.iter_perflow_dirty(StateRole.SUPPORTING, FlowPattern.wildcard(), mark_transfer=True))
        assert [chunk.key for chunk in chunks] == [mb.flow_key_for(1).bidirectional()]
        assert mb.transferred_flow_count() == 3  # every match frozen, not just the dirty one
        assert not mb.support_store.tracking_dirty


# =========================================================================================
# Round tags: superseded rounds never overwrite newer destination state
# =========================================================================================


class TestRoundSupersession:
    def seal(self, mb, index, value):
        key = mb.flow_key_for(index)
        return mb.codec.seal_perflow(key, {"index": index, "data": value}, StateRole.SUPPORTING)

    def test_stale_round_put_is_ignored(self, sim):
        dst = DummyMiddlebox(sim, "d-dst")
        key = dst.flow_key_for(0).bidirectional()
        dst.put_perflow(self.seal(dst, 0, "round2"), round=(7, 2))
        dst.put_perflow(self.seal(dst, 0, "round1"), round=(7, 1))  # stale: must not install
        assert dst.support_store.get(key)["data"] == "round2"
        assert dst.counters.stale_round_puts == 1

    def test_newer_round_and_newer_operation_supersede(self, sim):
        dst = DummyMiddlebox(sim, "d-dst2")
        key = dst.flow_key_for(0).bidirectional()
        dst.put_perflow(self.seal(dst, 0, "op7.r1"), round=(7, 1))
        dst.put_perflow(self.seal(dst, 0, "op7.r2"), round=(7, 2))
        assert dst.support_store.get(key)["data"] == "op7.r2"
        # A later operation's round 0 outranks any earlier operation's rounds.
        dst.put_perflow(self.seal(dst, 0, "op9.r0"), round=(9, 0))
        assert dst.support_store.get(key)["data"] == "op9.r0"
        assert dst.counters.stale_round_puts == 0

    def test_untagged_snapshot_put_always_installs(self, sim):
        dst = DummyMiddlebox(sim, "d-dst3")
        key = dst.flow_key_for(0).bidirectional()
        dst.put_perflow(self.seal(dst, 0, "tagged"), round=(7, 2))
        dst.put_perflow(self.seal(dst, 0, "untagged"))
        assert dst.support_store.get(key)["data"] == "untagged"

    def test_unrelated_transfer_end_does_not_kill_dirty_tracking(self, sim):
        """A clone/merge's TRANSFER_END at a pre-copy move's source must not
        wipe the move's dirty set (it belongs to the move, not the clone)."""
        src = DummyMiddlebox(sim, "d-src5", chunk_count=3)
        src.support_store.begin_dirty_tracking()
        src.support_store.get_or_create(src.flow_key_for(1), dict)
        src.end_transfer()  # whole-middlebox reset from an unrelated operation
        assert src.support_store.tracking_dirty
        assert src.support_store.dirty_count == 1

    def test_end_dirty_tracking_is_scoped(self, sim):
        """The failed-pre-copy cleanup stops tracking but leaves transfer
        markers owned by concurrent operations untouched."""
        src = DummyMiddlebox(sim, "d-src6", chunk_count=3)
        src._transferred_flows.add(src.flow_key_for(0).bidirectional())  # another op's marker
        src.support_store.begin_dirty_tracking()
        src.end_dirty_tracking()
        assert not src.support_store.tracking_dirty
        assert src.transferred_flow_count() == 1  # concurrent op's freeze survives


# =========================================================================================
# The pre-copy move: rounds, resends, freeze, equivalence, conservation
# =========================================================================================


def build_loaded_pair(chunks=60, quiescence=0.1):
    """Controller + populated dummy pair, ready for a move under packet load."""
    sim = Simulator()
    controller = MBController(sim, ControllerConfig(quiescence_timeout=quiescence))
    northbound = NorthboundAPI(controller)
    src = DummyMiddlebox(sim, "p-src", chunk_count=chunks)
    dst = DummyMiddlebox(sim, "p-dst")
    controller.register(src)
    controller.register(dst)
    return sim, controller, northbound, src, dst


def support_packet_total(*middleboxes):
    """Sum of per-flow packet counters across the given middleboxes' stores."""
    total = 0
    for mb in middleboxes:
        total += sum(rec.get("packets", 0) for _, rec in mb.support_store.items())
    return total


class TestPrecopyMove:
    def test_flows_dirtied_mid_round_are_resent(self):
        sim, controller, northbound, src, dst = build_loaded_pair()
        injected = src.drive_traffic_at_rate(2000.0, 0.05)
        handle = northbound.move_internal("p-src", "p-dst", None, spec=TransferSpec.precopy())
        record = sim.run_until(handle.finalized, limit=100)
        sim.run(until=sim.now + 0.5)
        assert record.mode == "precopy"
        assert injected > 0
        delta_rounds = [r for r in record.rounds if r["round"] > 0 and not r["final"]]
        assert delta_rounds, "traffic during the bulk round must trigger a delta round"
        assert sum(r["chunks"] for r in delta_rounds) > 0
        # Every source update survived the resends: the destination's counters
        # match what the source accumulated (conservation).
        assert support_packet_total(src, dst) == injected

    def test_round_records_measure_bytes_and_dirty_sets(self):
        sim, controller, northbound, src, dst = build_loaded_pair()
        src.drive_traffic_at_rate(2000.0, 0.05)
        handle = northbound.move_internal("p-src", "p-dst", None, spec=TransferSpec.precopy(max_rounds=2))
        record = sim.run_until(handle.finalized, limit=100)
        assert record.rounds[0]["round"] == 0
        assert record.rounds[0]["chunks"] == 120  # bulk: 60 flows x 2 roles
        assert record.rounds[0]["bytes"] > 0
        assert record.rounds[-1]["final"] is True
        assert record.precopy_rounds == len(record.rounds) - 1
        assert record.precopy_rounds <= 2 + 1  # bulk + at most max_rounds deltas
        assert record.freeze_started_at is not None
        assert record.freeze_window < record.duration
        summary = controller.stats.by_mode()
        assert summary["precopy"]["operations"] == 1
        assert controller.stats.precopy_rounds_total == record.precopy_rounds

    def test_quiet_source_freezes_after_the_bulk_round(self):
        """With no traffic the dirty set is empty: one bulk round, then freeze."""
        sim, controller, northbound, src, dst = build_loaded_pair()
        handle = northbound.move_internal("p-src", "p-dst", None, spec=TransferSpec.precopy())
        record = sim.run_until(handle.finalized, limit=100)
        assert record.precopy_rounds == 1  # just the bulk round
        assert record.rounds[-1]["final"] and record.rounds[-1]["chunks"] == 0
        assert len(dst.support_store) == 60

    def test_max_rounds_zero_matches_snapshot_behaviour(self):
        """PRECOPY with max_rounds=0 must degrade to bit-for-bit snapshot."""

        def run(spec):
            sim, controller, northbound, src, dst = build_loaded_pair()
            src.drive_traffic_at_rate(2000.0, 0.02)
            handle = northbound.move_internal("p-src", "p-dst", None, spec=spec)
            record = sim.run_until(handle.finalized, limit=100)
            sim.run(until=sim.now + 0.5)
            contents = {key: dict(rec) for key, rec in dst.support_store.items()}
            return record, contents, controller.stats

        snap_record, snap_contents, snap_stats = run(TransferSpec.default())
        pre_record, pre_contents, pre_stats = run(TransferSpec.precopy(max_rounds=0))
        assert pre_record.mode == "snapshot"
        assert pre_record.precopy_rounds == 0 and pre_record.rounds == []
        assert pre_record.chunks_transferred == snap_record.chunks_transferred
        assert pre_record.puts_acked == snap_record.puts_acked
        assert pre_record.events_received == snap_record.events_received
        assert pre_record.events_buffered == snap_record.events_buffered
        assert pre_record.events_forwarded == snap_record.events_forwarded
        assert pre_record.duration == pytest.approx(snap_record.duration, rel=1e-6)
        assert pre_record.freeze_window == pytest.approx(snap_record.freeze_window, rel=1e-6)
        assert pre_contents == snap_contents
        assert pre_stats.messages_sent == snap_stats.messages_sent
        assert pre_stats.messages_received == snap_stats.messages_received

    def test_loss_free_precopy_loses_zero_updates_under_sustained_traffic(self):
        """The scenario harness: monitors under live load, per-flow conservation."""
        result = run_guarantee_scenario(
            TransferSpec.precopy(), packets_during_move=120, packet_spacing=0.0005
        )
        assert result.record.mode == "precopy"
        assert result.updates_lost == 0

    def test_precopy_composes_with_batching_and_order_preserving(self):
        spec = TransferSpec.precopy(guarantee=TransferGuarantee.ORDER_PRESERVING, batch_size=8)
        sim, controller, northbound, src, dst = build_loaded_pair()
        src.drive_traffic_at_rate(2000.0, 0.05)
        handle = northbound.move_internal("p-src", "p-dst", None, spec=spec)
        record = sim.run_until(handle.finalized, limit=100)
        sim.run(until=sim.now + 0.5)
        assert record.mode == "precopy"
        assert record.batches_sent > 0
        # Order preservation covers *every* moved flow: the blanket hold at
        # the freeze is matched by a release per flow (clean flows included),
        # and none stay held.
        assert record.releases_sent >= 60
        assert not dst._held_flows and not dst._held_packets
        assert len(dst.support_store) == 60

    def test_precopy_shrinks_freeze_window_under_load(self):
        def run(spec):
            sim, controller, northbound, src, dst = build_loaded_pair(chunks=200)
            src.drive_traffic_at_rate(8000.0, 0.05)
            handle = northbound.move_internal("p-src", "p-dst", None, spec=spec)
            record = sim.run_until(handle.finalized, limit=100)
            return record

        snapshot = run(TransferSpec.default())
        precopy = run(TransferSpec.precopy())
        assert precopy.freeze_window * 2 <= snapshot.freeze_window

    def test_dirty_threshold_stops_iterating_early(self):
        sim, controller, northbound, src, dst = build_loaded_pair()
        src.drive_traffic_at_rate(2000.0, 0.2)
        eager = TransferSpec.precopy(max_rounds=5, dirty_threshold=10_000)
        handle = northbound.move_internal("p-src", "p-dst", None, spec=eager)
        record = sim.run_until(handle.finalized, limit=100)
        assert record.precopy_rounds == 1  # threshold satisfied right after bulk

    def test_order_preserving_holds_cover_flows_clean_at_the_freeze(self):
        """A flow with no final-round chunk must still be held and released."""
        sim, controller, northbound, src, dst = build_loaded_pair()
        spec = TransferSpec.precopy(guarantee=TransferGuarantee.ORDER_PRESERVING)
        handle = northbound.move_internal("p-src", "p-dst", None, spec=spec)
        # No traffic at all: every flow is clean at the freeze, so the only
        # hold coverage comes from the blanket TRANSFER_HOLD.
        held_max = {"count": 0}
        original = dst.hold_flows

        def tracking_hold(keys):
            original(keys)
            held_max["count"] = max(held_max["count"], len(dst._held_flows))

        dst.hold_flows = tracking_hold
        record = sim.run_until(handle.finalized, limit=100)
        sim.run(until=sim.now + 0.5)
        assert held_max["count"] == 60  # all moved flows were held at the freeze
        assert record.releases_sent == 60  # and each one released
        assert not dst._held_flows and not dst._held_packets

    def test_precopy_survives_concurrent_clone_finalizing_at_its_source(self):
        """A clone/merge from the same source finalizes (TRANSFER_END) while
        the pre-copy move is mid-round; the move's dirty tracking must survive
        and loss-free conservation must still hold."""
        sim, controller, northbound, src, dst = build_loaded_pair(quiescence=0.02)
        injected = src.drive_traffic_at_rate(2000.0, 0.1)
        clone = northbound.clone_support("p-src", "p-dst")
        move = northbound.move_internal("p-src", "p-dst", None, spec=TransferSpec.precopy())
        sim.run_until(clone.finalized, limit=100)  # clone's TRANSFER_END lands mid-move
        record = sim.run_until(move.finalized, limit=100)
        sim.run(until=sim.now + 0.5)
        assert record.mode == "precopy"
        assert support_packet_total(src, dst) == injected

    def test_concurrent_precopy_from_same_source_degrades_to_snapshot(self):
        """Two overlapping pre-copy moves would corrupt the one dirty-tracking
        context per store; the second must fall back to snapshot and nothing
        may be lost."""
        sim, controller, northbound, src, dst = build_loaded_pair()
        dst2 = DummyMiddlebox(sim, "p-dst2")
        controller.register(dst2)
        injected = src.drive_traffic_at_rate(2000.0, 0.05)
        first = northbound.move_internal("p-src", "p-dst", None, spec=TransferSpec.precopy())
        second = northbound.move_internal("p-src", "p-dst2", None, spec=TransferSpec.precopy())
        sim.run_until(first.finalized, limit=100)
        sim.run_until(second.finalized, limit=100)
        sim.run(until=sim.now + 0.5)
        assert first.record.mode == "precopy"
        assert second.record.mode == "snapshot"  # degraded, not corrupted
        assert support_packet_total(src, dst, dst2) >= injected  # no updates lost

    def test_dirty_count_is_restricted_to_the_move_pattern(self, sim):
        """Background traffic outside the pattern must not stall convergence."""
        from repro.core.flowspace import FlowPattern

        mb = DummyMiddlebox(sim, "d-pat", chunk_count=4)
        mb.support_store.begin_dirty_tracking()
        for index in range(4):
            mb.support_store.get_or_create(mb.flow_key_for(index), dict)
        narrow = FlowPattern(nw_src=mb.flow_key_for(0).nw_src, nw_dst=mb.flow_key_for(0).nw_dst)
        assert mb.dirty_perflow_count(StateRole.SUPPORTING) == 4
        assert mb.dirty_perflow_count(StateRole.SUPPORTING, narrow) < 4

    def test_install_rounds_are_pruned_with_the_state(self, sim):
        """Round tags die with the flow's entry, so the map cannot leak."""
        dst = DummyMiddlebox(sim, "d-prune")
        key = dst.flow_key_for(0)
        chunk = dst.codec.seal_perflow(key, {"index": 0, "data": "x"}, StateRole.SUPPORTING)
        dst.put_perflow(chunk, round=(3, 1))
        assert dst.support_store._install_rounds
        dst.support_store.remove(key)
        assert not dst.support_store._install_rounds

    def test_clone_with_precopy_spec_runs_as_snapshot(self, sim, controller, northbound, monitor_pair):
        handle = northbound.merge_internal("mon1", "mon2", spec=TransferSpec.precopy())
        record = sim.run_until(handle.completed)
        assert record.mode == "snapshot"

    def test_precopy_composes_with_shards_and_batched_dispatch(self):
        sim = Simulator()
        controller = MBController(
            sim, ControllerConfig(quiescence_timeout=0.1, num_shards=4, dispatch_tick=0.0)
        )
        northbound = NorthboundAPI(controller)
        src = DummyMiddlebox(sim, "s-src", chunk_count=80)
        dst = DummyMiddlebox(sim, "s-dst")
        controller.register(src)
        controller.register(dst)
        injected = src.drive_traffic_at_rate(2000.0, 0.05)
        handle = northbound.move_internal("s-src", "s-dst", None, spec=TransferSpec.precopy())
        record = sim.run_until(handle.finalized, limit=100)
        sim.run(until=sim.now + 0.5)
        assert record.mode == "precopy"
        assert len(dst.support_store) == 80
        assert support_packet_total(src, dst) == injected
        assert controller.stats.batches_dispatched > 0  # dispatch coalesced round puts

    def test_precopy_composes_with_transactions(self):
        sim, controller, northbound, src, dst = build_loaded_pair()
        src.drive_traffic_at_rate(2000.0, 0.05)
        txn = northbound.transaction()
        txn.move("p-src", "p-dst", None, spec=TransferSpec.precopy())
        handle = txn.commit()
        sim.run_until(handle.done, limit=100)
        sim.run(until=sim.now + 0.5)
        assert handle.status == "committed"
        records = [record for record in controller.stats.records if record.mode == "precopy"]
        assert len(records) == 1 and records[0].precopy_rounds >= 1
        assert len(dst.support_store) == 60
