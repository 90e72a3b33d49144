"""Integration tests for the MB controller and its northbound operations.

These exercise the full message path: northbound call -> controller -> control
channel -> southbound agent -> middlebox, and back.
"""

import pytest

from repro.core import ControllerConfig, MBController, NorthboundAPI
from repro.core.errors import OperationError, UnknownMiddleboxError
from repro.core.operations import OperationType
from repro.middleboxes import DummyMiddlebox, PassiveMonitor
from repro.net import Simulator, tcp_packet


def feed(sim, middlebox, count=20, dst="192.0.2.10", spacing=0.0005, subnet_mod=4):
    """Inject *count* packets; with subnet_mod=3 the keys match the monitor_pair fixture flows."""
    for index in range(count):
        packet = tcp_packet(f"10.0.{index % subnet_mod}.{index + 1}", dst, 1000 + index, 80, b"data")
        sim.schedule(spacing * index, middlebox.receive, packet, 1)
    sim.run(until=sim.now + spacing * count + 0.1)


class TestConfigOperations:
    def test_read_config_returns_flat_mapping(self, sim, controller, northbound, monitor_pair):
        mon1, _ = monitor_pair
        future = northbound.read_config("mon1", "*")
        values = sim.run_until(future)
        assert "Monitor.PromiscuousMode" in values

    def test_write_config_single_key(self, sim, controller, northbound, monitor_pair):
        _, mon2 = monitor_pair
        future = northbound.write_config("mon2", "Monitor.PromiscuousMode", [False])
        sim.run_until(future)
        assert mon2.config.get_scalar("Monitor.PromiscuousMode") is False

    def test_write_config_whole_tree(self, sim, controller, northbound, monitor_pair):
        mon1, mon2 = monitor_pair
        mon1.config.set("Monitor.Custom", ["x"])
        values = sim.run_until(northbound.read_config("mon1", "*"))
        sim.run_until(northbound.write_config("mon2", "*", values))
        assert mon2.config.get_scalar("Monitor.Custom") == "x"

    def test_clone_config_composition(self, sim, controller, northbound, monitor_pair):
        mon1, mon2 = monitor_pair
        mon1.config.set("Monitor.Extra", [7])
        sim.run_until(northbound.clone_config("mon1", "mon2"))
        assert mon2.config.get_scalar("Monitor.Extra") == 7

    def test_clone_config_of_one_subtree_copies_its_values(self, sim, controller, northbound, monitor_pair):
        """The read of a subtree is a flat mapping; the clone writes its values, not its key names."""
        mon1, mon2 = monitor_pair
        mon1.config.set("Monitor.Extra.Depth", [7, 8])
        cloned = sim.run_until(northbound.clone_config("mon1", "mon2", "Monitor.Extra"))
        assert cloned == {"Monitor.Extra.Depth": [7, 8]}
        assert mon2.config.export("Monitor.Extra") == {"Monitor.Extra.Depth": [7, 8]}

    def test_write_config_star_requires_mapping(self, northbound):
        with pytest.raises(TypeError):
            northbound.write_config("mon1", "*", [1, 2])

    def test_write_config_key_requires_list(self, northbound):
        with pytest.raises(TypeError):
            northbound.write_config("mon1", "K", {"K": [1]})

    def test_read_config_unknown_key_fails(self, sim, controller, northbound, monitor_pair):
        future = northbound.read_config("mon1", "No.Such.Key")
        with pytest.raises(OperationError):
            sim.run_until(future)

    def test_unknown_middlebox_rejected(self, northbound):
        with pytest.raises(UnknownMiddleboxError):
            northbound.read_config("ghost")


class TestStatsOperation:
    def test_stats_counts_matching_state(self, sim, controller, northbound, monitor_pair):
        stats = sim.run_until(northbound.stats("mon1", ["nw_dst=192.0.2.10"]))
        assert stats["perflow_reporting"] == 30
        assert stats["shared_reporting"] == 1

    def test_stats_with_narrower_pattern(self, sim, controller, northbound, monitor_pair):
        stats = sim.run_until(northbound.stats("mon1", ["nw_src=10.0.1.0/24"]))
        assert 0 < stats["perflow_reporting"] < 30


class TestMoveInternal:
    def test_move_transfers_and_deletes(self, sim, controller, northbound, monitor_pair):
        mon1, mon2 = monitor_pair
        handle = northbound.move_internal("mon1", "mon2", ["nw_dst=192.0.2.10"])
        record = sim.run_until(handle.completed)
        assert record.chunks_transferred == 30
        assert len(mon2.report_store) == 30
        # Deletion at the source only happens after the quiescence timeout.
        assert len(mon1.report_store) == 30
        sim.run_until(handle.finalized)
        assert len(mon1.report_store) == 0
        assert record.deleted_chunks == 30

    def test_move_preserves_record_contents(self, sim, controller, northbound, monitor_pair):
        mon1, mon2 = monitor_pair
        before = {key: (rec.packets, rec.bytes) for key, rec in mon1.report_store.items()}
        handle = northbound.move_internal("mon1", "mon2", None)
        sim.run_until(handle.finalized)
        after = {key: (rec.packets, rec.bytes) for key, rec in mon2.report_store.items()}
        assert before == after

    def test_move_subset_only(self, sim, controller, northbound, monitor_pair):
        mon1, mon2 = monitor_pair
        handle = northbound.move_internal("mon1", "mon2", ["nw_src=10.0.1.0/24"])
        record = sim.run_until(handle.finalized)
        assert 0 < record.chunks_transferred < 30
        assert len(mon1.report_store) == 30 - record.chunks_transferred

    def test_move_records_duration_and_type(self, sim, controller, northbound, monitor_pair):
        handle = northbound.move_internal("mon1", "mon2", None)
        record = sim.run_until(handle.completed)
        assert record.type is OperationType.MOVE
        assert record.duration is not None and record.duration > 0

    def test_move_of_empty_pattern_completes(self, sim, controller, northbound, monitor_pair):
        handle = northbound.move_internal("mon1", "mon2", ["nw_src=203.0.113.0/24"])
        record = sim.run_until(handle.completed)
        assert record.chunks_transferred == 0

    def test_move_to_unknown_middlebox_rejected(self, controller, northbound, monitor_pair):
        with pytest.raises(UnknownMiddleboxError):
            northbound.move_internal("mon1", "ghost", None)

    def test_finer_granularity_request_fails_operation(self, sim, controller, northbound):
        from repro.middleboxes import LoadBalancer

        lb1 = LoadBalancer(sim, "lb1", backends=["10.0.0.1"])
        lb2 = LoadBalancer(sim, "lb2", backends=["10.0.0.1"])
        controller.register(lb1)
        controller.register(lb2)
        handle = northbound.move_internal("lb1", "lb2", ["nw_dst=192.0.2.1"])
        with pytest.raises(OperationError):
            sim.run_until(handle.completed)

    def test_controller_archives_record(self, sim, controller, northbound, monitor_pair):
        handle = northbound.move_internal("mon1", "mon2", None)
        sim.run_until(handle.finalized)
        assert controller.stats.operations_completed == 1
        assert controller.stats.records[0].type is OperationType.MOVE


class TestMoveWithLiveTraffic:
    def test_reprocess_events_buffered_and_forwarded(self, sim, controller, northbound, monitor_pair):
        """Packets arriving during the move trigger re-process events that reach the new MB."""
        mon1, mon2 = monitor_pair
        handle = northbound.move_internal("mon1", "mon2", ["nw_dst=192.0.2.10"])
        # Keep traffic flowing (for the moved flows) while the move is in progress.
        feed(sim, mon1, count=30, spacing=0.001, subnet_mod=3)
        record = sim.run_until(handle.completed)
        sim.run(until=sim.now + 1.0)
        assert mon1.counters.reprocess_events_raised > 0
        assert record.events_received > 0
        assert record.events_forwarded > 0
        assert mon2.counters.reprocessed_packets == record.events_forwarded
        assert record.events_received == record.events_forwarded

    def test_no_packet_updates_are_lost(self, sim, controller, northbound, monitor_pair):
        """Atomicity requirement (iii): per-flow counters must account for every packet."""
        mon1, mon2 = monitor_pair
        total_before = sum(rec.packets for _, rec in mon1.report_store.items())
        handle = northbound.move_internal("mon1", "mon2", None)
        # The extra packets belong to the flows whose state is being moved.
        feed(sim, mon1, count=30, spacing=0.001, subnet_mod=3)
        sim.run_until(handle.finalized)
        sim.run(until=sim.now + 0.5)
        total_after = sum(rec.packets for _, rec in mon2.report_store.items())
        assert total_after == total_before + 30

    def test_quiescence_waits_for_events_to_stop(self, sim, controller, northbound, monitor_pair):
        mon1, _ = monitor_pair
        handle = northbound.move_internal("mon1", "mon2", None)
        # Traffic keeps arriving for a while after the move completes.
        feed(sim, mon1, count=100, spacing=0.005)
        record = sim.run_until(handle.finalized, limit=100)
        assert record.finalized_at >= record.completed_at + controller.config.quiescence_timeout


class TestCloneAndMerge:
    def _populated_monitors(self, sim, controller):
        mon1 = PassiveMonitor(sim, "m-src")
        mon2 = PassiveMonitor(sim, "m-dst")
        controller.register(mon1)
        controller.register(mon2)
        feed(sim, mon1, count=25)
        feed(sim, mon2, count=10, dst="192.0.2.99")
        return mon1, mon2

    def test_merge_adds_shared_reporting_counters(self, sim, controller, northbound):
        mon1, mon2 = self._populated_monitors(sim, controller)
        before_src = mon1.shared_report.value.total_packets
        before_dst = mon2.shared_report.value.total_packets
        handle = northbound.merge_internal("m-src", "m-dst")
        record = sim.run_until(handle.completed)
        assert mon2.shared_report.value.total_packets == before_src + before_dst
        assert record.type is OperationType.MERGE
        assert record.chunks_transferred >= 1

    def test_merge_unions_assets(self, sim, controller, northbound):
        mon1, mon2 = self._populated_monitors(sim, controller)
        handle = northbound.merge_internal("m-src", "m-dst")
        sim.run_until(handle.completed)
        assets = mon2.shared_report.value.assets
        assert "192.0.2.10" in assets and "192.0.2.99" in assets

    def test_clone_support_copies_shared_supporting_state(self, sim, controller, northbound):
        from repro.middleboxes import REDecoder

        dec1 = REDecoder(sim, "d1", cache_capacity=4096)
        dec2 = REDecoder(sim, "d2", cache_capacity=4096)
        controller.register(dec1)
        controller.register(dec2)
        dec1.cache.insert(b"cached-content" * 10)
        handle = northbound.clone_support("d1", "d2")
        record = sim.run_until(handle.completed)
        assert dec2.cache.to_payload() == dec1.cache.to_payload()
        assert record.type is OperationType.CLONE
        assert record.bytes_transferred > 0

    def test_clone_on_mb_without_shared_state_completes_empty(self, sim, controller, northbound, dummy_pair):
        handle = northbound.clone_support("dummy-src", "dummy-dst")
        record = sim.run_until(handle.completed)
        assert record.chunks_transferred == 0

    def test_end_transfer_stops_reprocess_events(self, sim, controller, northbound):
        mon1, mon2 = self._populated_monitors(sim, controller)
        handle = northbound.merge_internal("m-src", "m-dst")
        sim.run_until(handle.completed)
        sim.run_until(northbound.end_transfer("m-src"))
        raised_before = mon1.counters.reprocess_events_raised
        feed(sim, mon1, count=10)
        assert mon1.counters.reprocess_events_raised == raised_before


class TestConcurrentOperations:
    def test_simultaneous_moves_between_distinct_pairs(self, sim):
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        nb = NorthboundAPI(controller)
        pairs = []
        for index in range(4):
            src = DummyMiddlebox(sim, f"src{index}", chunk_count=50)
            dst = DummyMiddlebox(sim, f"dst{index}")
            controller.register(src)
            controller.register(dst)
            pairs.append((src, dst))
        handles = [nb.move_internal(f"src{i}", f"dst{i}", None) for i in range(4)]
        for handle in handles:
            sim.run_until(handle.completed, limit=200)
        for index, (_, dst) in enumerate(pairs):
            assert len(dst.support_store) == 50
        assert controller.stats.operations_started == 4

    def test_concurrent_moves_take_longer_each(self, sim):
        """Controller CPU contention: the average move slows down with concurrency (Figure 10b)."""

        def run(concurrency: int) -> float:
            local_sim = Simulator()
            controller = MBController(local_sim, ControllerConfig(quiescence_timeout=0.1))
            nb = NorthboundAPI(controller)
            for index in range(concurrency):
                controller.register(DummyMiddlebox(local_sim, f"s{index}", chunk_count=200))
                controller.register(DummyMiddlebox(local_sim, f"d{index}"))
            handles = [nb.move_internal(f"s{i}", f"d{i}", None) for i in range(concurrency)]
            for handle in handles:
                local_sim.run_until(handle.completed, limit=500)
            records = [handle.record for handle in handles]
            return sum(record.duration for record in records) / len(records)

        assert run(4) > run(1)
