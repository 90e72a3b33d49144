"""Shard routing edge cases for the sharded controller runtime.

Covers the three scenarios called out for the sharding tentpole:

* a wildcard pattern spanning every shard (events arrive on multiple shard
  loops and are all delivered, exactly once, to the broadcasting operation);
* cross-shard merge barrier ordering (a transaction's ``quiesce_shards``
  barrier drains the shards of two moves homed on different shards before a
  dependent merge starts);
* single-shard (N=1) equivalence with the pre-shard controller (bit-for-bit
  golden numbers captured from the seed implementation);

plus the consistent-hash ring invariants and the batched southbound
dispatcher (framing, per-channel FIFO, reply routing).
"""

from __future__ import annotations

import pytest

from repro.core import (
    ControllerConfig,
    FlowKey,
    FlowPattern,
    MBController,
    NorthboundAPI,
    ShardRing,
)
from repro.core import messages
from repro.core.messages import MessageType
from repro.middleboxes import DummyMiddlebox, PassiveMonitor
from repro.net import Simulator, tcp_packet


def build(num_shards: int, *, pairs: int = 2, chunks: int = 60, dispatch_tick=None, quiescence: float = 0.1):
    """A controller with *num_shards* shards and *pairs* dummy src/dst pairs."""
    sim = Simulator()
    controller = MBController(
        sim,
        ControllerConfig(quiescence_timeout=quiescence, num_shards=num_shards, dispatch_tick=dispatch_tick),
    )
    nb = NorthboundAPI(controller)
    boxes = []
    for index in range(pairs):
        src = DummyMiddlebox(sim, f"src-{index}", chunk_count=chunks)
        dst = DummyMiddlebox(sim, f"dst-{index}")
        controller.register(src)
        controller.register(dst)
        boxes.append((src, dst))
    return sim, controller, nb, boxes


# =========================================================================================
# Consistent-hash ring invariants
# =========================================================================================


class TestShardRing:
    def test_both_flow_directions_map_to_the_same_shard(self):
        ring = ShardRing(8)
        key = FlowKey(6, "10.0.0.1", "192.0.2.10", 12345, 80)
        assert ring.shard_for_key(key) == ring.shard_for_key(key.reversed())

    def test_placement_is_deterministic_across_ring_instances(self):
        keys = [FlowKey(6, f"10.0.{i % 7}.{i % 250 + 1}", "192.0.2.10", 1000 + i, 80) for i in range(200)]
        a, b = ShardRing(4), ShardRing(4)
        assert [a.shard_for_key(k) for k in keys] == [b.shard_for_key(k) for k in keys]

    def test_flow_space_spreads_over_every_shard(self):
        ring = ShardRing(4)
        keys = [FlowKey(6, f"10.{i % 5}.{i % 9}.{i % 250 + 1}", "192.0.2.10", 1000 + i, 80) for i in range(400)]
        owners = {ring.shard_for_key(key) for key in keys}
        assert owners == {0, 1, 2, 3}

    def test_exact_pattern_maps_to_single_shard(self):
        ring = ShardRing(4)
        key = FlowKey(6, "10.0.0.1", "192.0.2.10", 12345, 80)
        pattern = FlowPattern.from_flow(key)
        assert ring.shards_for_pattern(pattern) == (ring.shard_for_key(key),)

    def test_wildcard_and_prefix_patterns_broadcast_to_all_shards(self):
        ring = ShardRing(4)
        assert ring.shards_for_pattern(None) == (0, 1, 2, 3)
        assert ring.shards_for_pattern(FlowPattern.wildcard()) == (0, 1, 2, 3)
        prefix = FlowPattern.parse({"nw_proto": 6, "nw_src": "10.0.0.0/24", "nw_dst": "192.0.2.10", "tp_src": 1, "tp_dst": 2})
        assert ring.shards_for_pattern(prefix) == (0, 1, 2, 3)

    def test_slash32_spelling_matches_bare_host_shard(self):
        # '10.0.0.1/32' parses to the same flows as '10.0.0.1'; both spellings
        # must produce the same ring token, or an exact-pattern operation
        # would be homed/watched on a different shard than its flow's events.
        ring = ShardRing(4)
        bare = FlowPattern.parse({"nw_proto": 6, "nw_src": "10.0.0.1", "nw_dst": "10.0.0.2", "tp_src": 1, "tp_dst": 2})
        slash = FlowPattern.parse(
            {"nw_proto": 6, "nw_src": "10.0.0.1/32", "nw_dst": "10.0.0.2/32", "tp_src": 1, "tp_dst": 2}
        )
        key = FlowKey(6, "10.0.0.1", "10.0.0.2", 1, 2)
        assert ring.shards_for_pattern(slash) == ring.shards_for_pattern(bare) == (ring.shard_for_key(key),)

    def test_single_shard_owns_everything(self):
        ring = ShardRing(1)
        key = FlowKey(6, "10.0.0.1", "192.0.2.10", 12345, 80)
        assert ring.shard_for_key(key) == 0
        assert ring.shards_for_pattern(None) == (0,)

    def test_invalid_shard_counts_are_rejected(self):
        with pytest.raises(ValueError):
            ShardRing(0)
        with pytest.raises(ValueError):
            ShardRing(2, replicas=0)


# =========================================================================================
# Wildcard pattern spanning shards
# =========================================================================================


class TestWildcardSpansShards:
    def test_events_arrive_on_multiple_shards_and_are_all_delivered(self):
        sim, controller, nb, boxes = build(4, pairs=1, chunks=120)
        src, dst = boxes[0]
        handle = nb.move_internal(src.name, dst.name, None)  # wildcard: broadcast interest
        operation = handle._operation
        assert [shard.shard_id for shard in operation.shards] == [0, 1, 2, 3]
        src.generate_events_at_rate(4000.0, 0.02)
        sim.run_until(handle.completed, limit=100)
        sim.run(until=2.0)  # drain the remaining event stream + quiescence
        assert src.events_generated == 80
        record = handle.record
        assert record.events_received == 80
        assert record.events_forwarded == 80  # loss-free: every update replayed
        assert record.events_dropped == 0
        shard_events = [shard["events"] for shard in controller.shard_summary()["shards"]]
        assert sum(shard_events) == 80
        # The event keys hash across the ring: several shard loops handled them.
        assert sum(1 for count in shard_events if count > 0) >= 2

    def test_exact_pattern_operation_is_homed_on_its_flow_shard(self):
        sim, controller, nb, boxes = build(4, pairs=1, chunks=40)
        src, dst = boxes[0]
        key = src.flow_key_for(7)
        pattern = FlowPattern.from_flow(key)
        handle = nb.move_internal(src.name, dst.name, pattern)
        operation = handle._operation
        owning = controller.coordinator.ring.shard_for_key(key)
        assert operation.home_shard.shard_id == owning
        assert [shard.shard_id for shard in operation.shards] == [owning]
        sim.run_until(handle.completed, limit=100)
        assert handle.record.chunks_transferred == 2  # supporting + reporting chunk

    def test_concurrent_wildcard_moves_spread_across_home_shards(self):
        sim, controller, nb, boxes = build(4, pairs=8, chunks=30)
        handles = [nb.move_internal(src.name, dst.name, None) for src, dst in boxes]
        homes = {handle.record.home_shard for handle in handles}
        assert len(homes) == 4  # round-robin placement uses every shard
        for handle in handles:
            sim.run_until(handle.completed, limit=100)
        assert all(handle.record.puts_acked == 60 for handle in handles)


# =========================================================================================
# Cross-shard merge barrier ordering
# =========================================================================================


class TestCrossShardMergeBarrier:
    def _scenario(self):
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.1, num_shards=4))
        nb = NorthboundAPI(controller)
        monitors = [PassiveMonitor(sim, f"mon-{index}") for index in range(3)]
        for monitor in monitors:
            controller.register(monitor)
        for index in range(40):
            packet = tcp_packet(f"10.0.{index % 4}.{index + 1}", "192.0.2.10", 1000 + index, 80, b"x")
            sim.schedule(0.0002 * index, monitors[0].receive, packet, 1)
            sim.schedule(0.0002 * index, monitors[1].receive, packet.copy() if hasattr(packet, "copy") else packet, 1)
        sim.run(until=0.05)
        return sim, controller, nb, monitors

    def test_merge_starts_after_moves_on_other_shards_quiesce(self):
        sim, controller, nb, monitors = self._scenario()
        txn = nb.transaction()
        move_a = txn.move(monitors[0].name, monitors[2].name, None)
        move_b = txn.move(monitors[1].name, monitors[2].name, None, after=[])
        barrier = txn.barrier([move_a, move_b], quiesce_shards=True)
        merge = txn.merge(monitors[0].name, monitors[2].name, after=barrier)
        handle = txn.commit()
        sim.run_until(handle.done, limit=100)

        # Ordering: the merge began only after both moves completed *and* the
        # coordinator's cross-shard barrier observed their shards drained.
        assert merge.record.started_at >= barrier.record.finished_at
        assert barrier.record.finished_at >= move_a.record.finished_at
        assert barrier.record.finished_at >= move_b.record.finished_at
        assert controller.coordinator.barriers_issued >= 1
        assert handle.status == "committed"

    def test_shard_barrier_resolves_only_once_loops_drain(self):
        sim, controller, nb, boxes = build(4, pairs=4, chunks=80)
        handles = [nb.move_internal(src.name, dst.name, None) for src, dst in boxes]
        barrier = controller.coordinator.barrier()
        drained_at = sim.run_until(barrier, limit=100)
        busy_until = max(shard._cpu._free_at for shard in controller.coordinator.shards)
        assert drained_at >= busy_until - 1e-12
        for handle in handles:
            sim.run_until(handle.completed, limit=100)


# =========================================================================================
# Single-shard (N=1) equivalence with the pre-shard controller
# =========================================================================================


class TestSingleShardEquivalence:
    """Golden numbers captured from the seed (pre-shard) controller.

    The workloads below were run on the controller as it existed before the
    sharding refactor; with ``num_shards=1`` the sharded runtime must
    reproduce the same durations, message counts, and simulator event count
    bit-for-bit.
    """

    def _workload(self, concurrency, chunks, events_rate=0.0, **config):
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.1, **config))
        nb = NorthboundAPI(controller)
        pairs = []
        for index in range(concurrency):
            src = DummyMiddlebox(sim, f"src-{index}", chunk_count=chunks)
            dst = DummyMiddlebox(sim, f"dst-{index}")
            controller.register(src)
            controller.register(dst)
            pairs.append((src, dst))
        handles = [nb.move_internal(src.name, dst.name, None) for src, dst in pairs]
        if events_rate:
            for src, _ in pairs:
                src.generate_events_at_rate(events_rate, 0.05)
        for handle in handles:
            sim.run_until(handle.completed, limit=5000)
        durations = [handle.record.duration for handle in handles]
        return durations, controller.stats.messages_received, controller.stats.messages_sent, sim.executed_events

    def test_contended_workload_matches_pre_shard_golden_numbers(self):
        durations, received, sent, executed = self._workload(2, 50, events_rate=200.0)
        assert durations == [0.016581272, 0.016621272]  # 120 ns under the seed: shorter ACKs and chunks
        assert (received, sent, executed) == (412, 206, 1440)

    def test_single_move_matches_pre_shard_golden_numbers(self):
        durations, received, sent, executed = self._workload(1, 80)
        assert durations == [pytest.approx(0.013291272, abs=1e-9)]  # 120 ns under the seed: shorter ACKs and chunks
        assert (received, sent, executed) == (322, 162, 1130)

    def test_default_config_is_single_shard(self):
        config = ControllerConfig()
        assert config.num_shards == 1
        assert config.dispatch_tick is None

    def test_uncontended_move_duration_is_shard_count_invariant(self):
        baseline, *_ = self._workload(1, 80)
        for num_shards in (2, 4, 8):
            durations, *_ = self._workload(1, 80, num_shards=num_shards)
            assert durations == baseline  # sharding adds no overhead to a lone op

    def test_sharding_relieves_contention(self):
        serial, *_ = self._workload(8, 100)
        sharded, *_ = self._workload(8, 100, num_shards=4)
        assert max(sharded) < max(serial) / 2


# =========================================================================================
# Batched southbound dispatch
# =========================================================================================


class TestBatchedDispatch:
    def test_batch_frame_round_trip(self):
        chunk = _sealed_chunks(1)[0]
        chunk_msg = messages.put_perflow("mb", chunk, round=(1, 0))
        release_msg = messages.transfer_release("mb", [chunk.key])
        frame = messages.batch_message("mb", [chunk_msg, release_msg])
        inner = messages.parse(messages.Message.decode(frame.encode()))["frames"]
        assert [m.type for m in inner] == [MessageType.PUT_PERFLOW, MessageType.TRANSFER_RELEASE]
        assert inner[0].xid == chunk_msg.xid and inner[1].xid == release_msg.xid
        assert messages.parse(inner[0])["round"] == (1, 0)

    def test_same_tick_puts_coalesce_into_one_channel_message(self):
        sim, controller, nb, boxes = build(1, pairs=1, chunks=0, dispatch_tick=0.0)
        src, dst = boxes[0]
        channel = controller.channel_for(dst.name)
        before = channel.to_mb.messages
        acked = []
        for chunk in _sealed_chunks(5):
            message = messages.put_perflow(dst.name, chunk)
            controller.send(dst.name, message, on_reply=lambda reply: acked.append(reply.type))
        sim.run(until=1.0)
        assert channel.to_mb.messages == before + 1  # one BATCH frame on the wire
        assert channel.to_mb.batches == 1
        assert channel.to_mb.framed_messages == 5
        assert controller.stats.batches_dispatched == 1
        assert controller.stats.messages_coalesced == 5
        assert acked == [MessageType.ACK] * 5  # every inner xid ACKed individually

    def test_non_batchable_request_preserves_channel_fifo(self):
        sim, controller, nb, boxes = build(1, pairs=1, chunks=0, dispatch_tick=0.0)
        src, dst = boxes[0]
        channel = controller.channel_for(dst.name)
        delivered = []
        original = channel._handlers["to_mb"]
        channel.bind_middlebox(lambda message: (delivered.append(message.type), original(message)))
        controller.send(dst.name, messages.put_perflow(dst.name, _sealed_chunks(1)[0]))
        # A get issued in the same instant must not overtake the queued put:
        # the dispatcher flushes the destination's queue before a direct send.
        controller.send(dst.name, messages.get_stats(dst.name, FlowPattern.wildcard()))
        sim.run(until=1.0)
        assert delivered == [MessageType.PUT_PERFLOW, MessageType.GET_STATS]

    def test_queued_messages_for_unregistered_middlebox_are_dropped(self):
        sim, controller, nb, boxes = build(1, pairs=1, chunks=0, dispatch_tick=0.001)
        src, dst = boxes[0]
        channel = controller.channel_for(dst.name)
        before = channel.to_mb.messages
        controller.send(dst.name, messages.put_perflow(dst.name, _sealed_chunks(1)[0]))
        controller.unregister(dst.name)
        sim.run(until=1.0)
        assert channel.to_mb.messages == before  # flush found the mb gone: dropped

    def test_move_with_batched_dispatch_loses_nothing(self):
        plain = self._move(dispatch_tick=None)
        framed = self._move(dispatch_tick=0.0005)
        assert framed["puts_acked"] == plain["puts_acked"] == 120
        assert framed["events_dropped"] == 0
        assert framed["wire_messages"] < plain["wire_messages"]  # O(batches), not O(messages)
        # BATCH frames are pure framing: the middlebox counts the same number
        # of logical requests whether or not the controller coalesced the wire.
        assert framed["requests_handled"] == plain["requests_handled"]

    def _move(self, dispatch_tick):
        sim, controller, nb, boxes = build(1, pairs=1, chunks=60, dispatch_tick=dispatch_tick)
        src, dst = boxes[0]
        handle = nb.move_internal(src.name, dst.name, None)
        src.generate_events_at_rate(1000.0, 0.01)
        sim.run_until(handle.completed, limit=100)
        sim.run(until=2.0)
        record = handle.record
        return {
            "puts_acked": record.puts_acked,
            "events_dropped": record.events_dropped,
            "wire_messages": controller.channel_for(dst.name).to_mb.messages,
            "requests_handled": controller._registration(dst.name).agent.stats.requests_handled,
        }


def _sealed_chunks(count: int):
    """Properly sealed per-flow chunks, exported from a populated dummy."""
    from repro.core.state import StateRole

    exporter = DummyMiddlebox(Simulator(), "chunk-source", chunk_count=count)
    return list(exporter.iter_perflow(StateRole.SUPPORTING, FlowPattern.wildcard()))[:count]
