"""Regression tests for operation failure paths and controller book-keeping.

Covers the satellite fixes of the transfer-strategy refactor:

* a destination ERROR mid-move fails both the ``completed`` and ``finalized``
  futures and archives the operation exactly once (no double archive when the
  quiescence timer later fires);
* ``unregister`` drops the removed middlebox's reply handlers and detaches the
  channel's controller binding so late replies are discarded;
* replay-dedup tokens in ``_forwarded_events`` are pruned when an operation
  finishes instead of growing without bound;
* the request table (``_reply_handlers``) forgets a request with the reply
  that ends it, so a finished operation is collectable and a duplicated reply
  reaches its handler once;
* a standby retry whose source or standby dies before the retry starts fails
  its handle instead of hanging or raising out of the kernel.
"""

import gc
import weakref

import pytest

from repro.core import ControllerConfig, MBController, NorthboundAPI, TransferSpec, messages
from repro.core.channel import ControlChannel, FaultPlan, FaultProfile
from repro.core.errors import OperationError, StateError, TransactionAbortedError, UnknownMiddleboxError
from repro.core.flowspace import FlowPattern
from repro.core.messages import MessageType
from repro.middleboxes import DummyMiddlebox
from repro.net import tcp_packet


class FailingDestination(DummyMiddlebox):
    """Accepts the first *accept* puts, then errors on every later one."""

    def __init__(self, sim, name, *, accept=0):
        super().__init__(sim, name)
        self._accept = accept
        self.puts_seen = 0

    def put_perflow(self, chunk, *, round=None):
        self.puts_seen += 1
        if self.puts_seen > self._accept:
            raise StateError("destination import failed (simulated)")
        super().put_perflow(chunk, round=round)


@pytest.fixture
def failing_move(sim):
    """A controller with a populated source and a destination that errors mid-move."""
    controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
    northbound = NorthboundAPI(controller)
    src = DummyMiddlebox(sim, "fsrc", chunk_count=20)
    dst = FailingDestination(sim, "fdst", accept=5)
    controller.register(src)
    controller.register(dst)
    return controller, northbound, src, dst


class TestMoveFailurePaths:
    def test_destination_error_fails_both_futures(self, sim, failing_move):
        controller, northbound, _, _ = failing_move
        handle = northbound.move_internal("fsrc", "fdst", None)
        with pytest.raises(OperationError):
            sim.run_until(handle.completed, limit=100)
        assert handle.completed.done and handle.completed.exception is not None
        assert handle.finalized.done and handle.finalized.exception is not None

    def test_failed_operation_archived_exactly_once(self, sim, failing_move):
        controller, northbound, _, _ = failing_move
        handle = northbound.move_internal("fsrc", "fdst", None)
        with pytest.raises(OperationError):
            sim.run_until(handle.completed, limit=100)
        # Run far past the quiescence timeout: the timer must not finalize (and
        # re-archive) the already-failed operation.
        sim.run(until=sim.now + 10 * controller.config.quiescence_timeout)
        assert len(controller.stats.records) == 1
        assert controller.stats.operations_failed == 1
        assert controller.active_operations() == []

    def test_destination_error_with_batched_pipeline(self, sim, failing_move):
        controller, northbound, _, _ = failing_move
        handle = northbound.move_internal("fsrc", "fdst", None, spec=TransferSpec.batched(8))
        with pytest.raises(OperationError):
            sim.run_until(handle.completed, limit=100)
        sim.run(until=sim.now + 10 * controller.config.quiescence_timeout)
        assert len(controller.stats.records) == 1

    def test_failed_order_preserving_move_releases_destination_holds(self, sim, failing_move):
        from repro.core import TransferGuarantee

        controller, northbound, _, dst = failing_move
        spec = TransferSpec(guarantee=TransferGuarantee.ORDER_PRESERVING)
        released = []
        release_flows = dst.release_flows
        dst.release_flows = lambda keys: (released.append(list(keys)), release_flows(keys))
        handle = northbound.move_internal("fsrc", "fdst", None, spec=spec)
        with pytest.raises(OperationError):
            sim.run_until(handle.completed, limit=100)
        # The failure-path cleanup release must reach the destination and lift
        # every hold installed by the already-ACKed puts.
        sim.run(until=sim.now + 1.0)
        assert not dst._held_flows
        assert not dst._held_packets
        # One blanket release, in key order (not the hash-seed-dependent
        # iteration order of the pipeline's flow set).
        blanket = [keys for keys in released if len(keys) > 1]
        assert len(blanket) == 1 and len(blanket[0]) > 5
        assert blanket[0] == sorted(blanket[0])

    def test_late_replies_after_failure_do_not_resurrect_operation(self, sim, failing_move):
        controller, northbound, _, _ = failing_move
        handle = northbound.move_internal("fsrc", "fdst", None, spec=TransferSpec.sequential())
        with pytest.raises(OperationError):
            sim.run_until(handle.completed, limit=100)
        acked_at_failure = handle.record.puts_acked
        # Remaining chunk-stream replies and put ACKs arrive after the archive;
        # they must not mutate the archived record or dispatch more puts.
        sim.run(until=sim.now + 2.0)
        assert handle.record.puts_acked == acked_at_failure
        assert len(controller.stats.records) == 1

    def test_source_error_fails_once(self, sim, controller, northbound):
        from repro.middleboxes import LoadBalancer

        lb1 = LoadBalancer(sim, "lb1", backends=["10.0.0.1"])
        lb2 = LoadBalancer(sim, "lb2", backends=["10.0.0.1"])
        controller.register(lb1)
        controller.register(lb2)
        # LB state is per-destination, so a 5-tuple move pattern is finer than
        # its granularity and the source rejects the gets with ERROR.
        handle = northbound.move_internal("lb1", "lb2", ["nw_dst=192.0.2.1"])
        with pytest.raises(OperationError):
            sim.run_until(handle.completed, limit=100)
        assert handle.finalized.exception is not None
        sim.run(until=sim.now + 10 * controller.config.quiescence_timeout)
        assert len(controller.stats.records) == 1


class TestRequestTableShrinks:
    """Every reply type but ``STATE_CHUNK`` ends its request; the handler goes with it."""

    def test_empty_after_a_finalized_move_and_the_operation_is_collectable(self, sim, controller, northbound):
        controller.register(DummyMiddlebox(sim, "src", chunk_count=1000))
        controller.register(DummyMiddlebox(sim, "dst"))
        handle = northbound.move_internal("src", "dst", None)
        operation = weakref.ref(next(iter(controller._active_by_src["src"])))
        sim.run_until(handle.finalized, limit=100)
        sim.run()
        assert handle.record.chunks_transferred == 2000
        assert controller._reply_handlers == {}
        del handle
        gc.collect()
        assert operation() is None

    def test_empty_after_a_finalized_clone_and_merge(self, sim, controller, northbound, monitor_pair, ids_pair):
        handles = [northbound.merge_internal("mon1", "mon2"), northbound.clone_support("ids1", "ids2")]
        for handle in handles:
            sim.run_until(handle.finalized, limit=100)
        sim.run()
        assert controller._reply_handlers == {}

    def test_empty_after_a_failed_move(self, sim, failing_move):
        controller, northbound, _, _ = failing_move
        handle = northbound.move_internal("fsrc", "fdst", None)
        with pytest.raises(OperationError):
            sim.run_until(handle.completed, limit=100)
        sim.run()  # the replies still owed to the failed operation arrive and are forgotten too
        assert controller._reply_handlers == {}

    def test_empty_after_an_aborted_transaction(self, sim, failing_move):
        controller, northbound, _, _ = failing_move
        txn = northbound.transaction()
        txn.call(lambda: None, name="never", after=txn.move("fsrc", "fdst", None))
        handle = txn.commit()
        with pytest.raises(TransactionAbortedError):
            sim.run_until(handle.done, limit=100)
        sim.run()
        assert handle.status == "aborted" and controller._reply_handlers == {}

    def test_a_duplicated_ack_reaches_its_handler_once(self, sim, controller):
        plan = FaultPlan(1, to_controller=FaultProfile(duplicate=1.0))
        channel = ControlChannel(sim, name="chan-dup", faults=plan, reliable=False)
        controller.register(DummyMiddlebox(sim, "dup"), channel=channel)
        replies = []
        controller.send("dup", messages.set_config("dup", "Some.Key", [1]), on_reply=replies.append)
        sim.run()
        assert channel.to_controller.duplicated == 1  # the ACK crossed the wire twice
        assert [reply.type for reply in replies] == [MessageType.ACK]
        assert controller._reply_handlers == {}


class TestUnregisterCleanup:
    def test_unregister_clears_reply_handlers_and_channel_binding(self, sim, controller, northbound, monitor_pair):
        future = northbound.read_config("mon2", "*")
        assert any(name == "mon2" for name, _ in controller._reply_handlers)
        channel = controller.channel_for("mon2")
        controller.unregister("mon2")
        assert not any(name == "mon2" for name, _ in controller._reply_handlers)
        # The late reply is dropped instead of being dispatched through the
        # stale binding (and must not crash the simulation).
        sim.run(until=sim.now + 1.0)
        assert not future.done
        assert channel._handlers["to_controller"] is None

    def test_unregistered_middlebox_events_are_dropped(self, sim, controller, monitor_pair):
        mon1, _ = monitor_pair
        received_before = controller.stats.events_received
        controller.unregister("mon1")
        # The orphaned instance keeps seeing traffic for transfer-marked state.
        mon1.enable_events("test-code")
        mon1.raise_event("test-code")
        sim.run(until=sim.now + 1.0)
        assert controller.stats.events_received == received_before

    def test_unregister_mid_move_fails_the_operation(self, sim, controller, northbound):
        from repro.core.errors import UnknownMiddleboxError

        src = DummyMiddlebox(sim, "usrc", chunk_count=200)
        dst = DummyMiddlebox(sim, "udst")
        controller.register(src)
        controller.register(dst)
        handle = northbound.move_internal("usrc", "udst", None)
        sim.schedule(0.001, controller.unregister, "udst")
        with pytest.raises(UnknownMiddleboxError):
            sim.run_until(handle.completed, limit=20)
        assert handle.finalized.exception is not None
        sim.run(until=sim.now + 5.0)
        assert len(controller.stats.records) == 1
        assert controller.active_operations() == []

    def test_unregister_after_completion_still_finalizes(self, sim, controller, northbound, monitor_pair):
        """The scale-down idiom: the source is terminated once the move returned."""
        handle = northbound.move_internal("mon1", "mon2", None)
        sim.run_until(handle.completed)
        controller.unregister("mon1")
        record = sim.run_until(handle.finalized, limit=50)
        assert record.finalized_at is not None

    def test_reregistration_after_unregister_works(self, sim, controller, northbound, monitor_pair):
        from repro.middleboxes import PassiveMonitor

        controller.unregister("mon2")
        replacement = PassiveMonitor(sim, "mon2")
        controller.register(replacement)
        values = sim.run_until(northbound.read_config("mon2", "*"))
        assert "Monitor.PromiscuousMode" in values


class TestStrandedStateCleanup:
    """A destination vanishing mid-transfer must not strand holds or round tags."""

    def _precopy_pair(self, sim, controller):
        src = DummyMiddlebox(sim, "psrc", chunk_count=150)
        dst = DummyMiddlebox(sim, "pdst")
        controller.register(src)
        controller.register(dst)
        return src, dst

    def test_dst_unregister_mid_precopy_prunes_round_tags(self, sim, controller, northbound):
        from repro.core.errors import UnknownMiddleboxError

        src, dst = self._precopy_pair(sim, controller)
        spec = TransferSpec.precopy(max_rounds=3, dirty_threshold=0)
        src.drive_traffic_at_rate(5000, duration=0.05, flows=40)
        handle = northbound.move_internal("psrc", "pdst", None, spec=spec)
        # Let the bulk round install some round-tagged chunks, then kill the dst.
        sim.schedule(0.004, controller.unregister, "pdst")
        with pytest.raises(UnknownMiddleboxError):
            sim.run_until(handle.completed, limit=30)
        sim.run(until=sim.now + 1.0)
        # No orphaned (op_id, round) tags survive at the vanished destination...
        assert dst.support_store.install_round_count == 0
        assert dst.report_store.install_round_count == 0
        # ...and the source's dirty tracking was stopped by the scoped cleanup.
        assert not src.support_store.tracking_dirty
        assert not src.report_store.tracking_dirty

    def test_dst_unregister_mid_order_preserving_move_drops_holds(self, sim, controller, northbound):
        from repro.core import TransferGuarantee
        from repro.core.errors import UnknownMiddleboxError

        src, dst = self._precopy_pair(sim, controller)
        spec = TransferSpec(guarantee=TransferGuarantee.ORDER_PRESERVING)
        handle = northbound.move_internal("psrc", "pdst", None, spec=spec)
        sim.schedule(0.003, controller.unregister, "pdst")
        with pytest.raises(UnknownMiddleboxError):
            sim.run_until(handle.completed, limit=30)
        sim.run(until=sim.now + 1.0)
        # The failure-path release can no longer be delivered; the local purge
        # must have lifted every hold and dropped the queued packets.
        assert not dst._held_flows
        assert not dst._held_packets

    def test_failed_move_releases_source_transfer_markers(self, sim, failing_move):
        controller, northbound, src, _ = failing_move
        handle = northbound.move_internal("fsrc", "fdst", None)
        with pytest.raises(OperationError):
            sim.run_until(handle.completed, limit=100)
        sim.run(until=sim.now + 1.0)
        # A dead transfer must not keep the source's flows frozen: frozen
        # flows would stream re-process events to a destination that will
        # never install their state (and poison a standby retry's snapshot).
        assert src.transferred_flow_count() == 0

    def test_killed_instance_is_purged_and_operations_fail_dead(self, sim, controller, northbound):
        from repro.core.errors import InstanceDeadError

        src, dst = self._precopy_pair(sim, controller)
        handle = northbound.move_internal(
            "psrc", "pdst", None, spec=TransferSpec.precopy(max_rounds=2, dirty_threshold=0)
        )
        sim.schedule(0.004, controller.kill, "pdst")
        with pytest.raises(InstanceDeadError):
            sim.run_until(handle.completed, limit=30)
        assert controller.stats.instances_killed == 1
        assert controller.stats.instances_declared_dead == 1
        assert dst.support_store.install_round_count == 0
        assert not controller.is_registered("pdst")


class TestStandbyRetryWindow:
    """A second death between the standby-retry decision and the source's release ACK.

    Killing the destination at 1.5 ms makes the move decide to retry on the
    standby; the retry waits for the source to ACK a release of the failed
    attempt's markers (≈ 1.2 ms later).  Killing the source or the standby
    inside that window must fail the handle — not leave it pending forever
    and not raise out of the kernel.
    """

    def _window(self, sim, second):
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.05))
        boxes = {name: DummyMiddlebox(sim, name, chunk_count=20) for name in ("src", "dst", "stby")}
        for middlebox in boxes.values():
            controller.register(middlebox)
        handle = controller.move_internal("src", "dst", FlowPattern.wildcard(), standby="stby")
        sim.schedule(1.5e-3, controller.kill, "dst")
        sim.schedule(1.6e-3, controller.kill, second)
        sim.run(until=1.0)  # must not raise
        assert controller.stats.standby_retries == 1
        assert controller.stats.operations_started == 1  # the retry never started
        for future in (handle.state_installed, handle.completed, handle.finalized):
            assert future.done and isinstance(future.exception, UnknownMiddleboxError)
        return controller, boxes, handle

    def test_source_death_fails_the_handle(self, sim):
        from repro.core.errors import InstanceDeadError

        _, _, handle = self._window(sim, "src")
        assert isinstance(handle.completed.exception, InstanceDeadError)
        assert "'src' died" in str(handle.completed.exception)

    def test_standby_death_fails_the_handle_and_the_source_keeps_its_state(self, sim):
        controller, boxes, handle = self._window(sim, "stby")
        assert "'stby'" in str(handle.completed.exception)
        assert len(boxes["src"].support_store) == 20 and len(boxes["src"].report_store) == 20
        assert controller._reply_handlers == {} and controller.active_operations() == []


class TestForwardedEventPruning:
    def test_tokens_pruned_when_operation_finishes(self, sim, controller, northbound, monitor_pair):
        mon1, _ = monitor_pair
        handle = northbound.move_internal("mon1", "mon2", None)
        for index in range(20):
            packet = tcp_packet(f"10.0.{index % 3}.{index + 1}", "192.0.2.10", 1000 + index, 80, b"x")
            sim.schedule(0.001 * index, mon1.receive, packet, 1)
        record = sim.run_until(handle.finalized, limit=100)
        sim.run(until=sim.now + 1.0)
        assert record.events_forwarded > 0
        assert len(controller._forwarded_events) == 0
