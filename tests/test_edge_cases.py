"""Edge-case and failure-path tests across the framework layers."""

import pytest

from repro.core import (
    ControllerConfig,
    FlowPattern,
    MBController,
    NorthboundAPI,
    OperationError,
    StateRole,
)
from repro.core import messages
from repro.core.channel import ControlChannel
from repro.core.messages import Message, MessageType
from repro.core.southbound import ProcessingCosts
from repro.middleboxes import IDS, DummyMiddlebox, LoadBalancer, PassiveMonitor
from repro.middleboxes.monitor import EVENT_ASSET_DETECTED
from repro.net import Simulator, tcp_packet


class TestSouthboundAgentErrors:
    def _registered_monitor(self):
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        monitor = PassiveMonitor(sim, "mon")
        controller.register(monitor)
        return sim, controller, monitor

    def _collect_replies(self, sim, controller, mb_name, message):
        replies = []
        controller.send(mb_name, message, on_reply=replies.append)
        sim.run(until=sim.now + 2.0)
        return replies

    def test_unknown_message_type_yields_error(self):
        sim, controller, monitor = self._registered_monitor()
        replies = self._collect_replies(sim, controller, "mon", Message("bogus_type", mb="mon"))
        # Unsolicited error replies carry reply_to, so they only reach a registered handler.
        assert replies and replies[0].type == MessageType.ERROR

    def test_get_config_unknown_key_yields_error(self):
        sim, controller, monitor = self._registered_monitor()
        replies = self._collect_replies(sim, controller, "mon", messages.get_config("mon", "No.Such"))
        assert replies[0].type == MessageType.ERROR
        assert "No.Such" in replies[0].body["reason"]

    def test_granularity_error_propagates_as_protocol_error(self):
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        lb = LoadBalancer(sim, "lb", backends=["10.0.0.1"])
        controller.register(lb)
        lb.process_packet(tcp_packet("10.0.0.9", "198.51.100.10", 999, 80))
        replies = []
        controller.send(
            "lb",
            messages.get_perflow("lb", StateRole.SUPPORTING, FlowPattern(nw_dst="198.51.100.10")),
            on_reply=replies.append,
        )
        sim.run(until=1.0)
        assert replies and replies[0].type == MessageType.ERROR

    def test_put_with_corrupted_blob_yields_error(self):
        sim, controller, monitor = self._registered_monitor()
        other = PassiveMonitor(sim, "other")
        controller.register(other)
        monitor.process_packet(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80))
        chunk = list(monitor.iter_perflow(StateRole.REPORTING, FlowPattern.wildcard()))[0]
        chunk.blob = b"\x00" * len(chunk.blob)
        replies = self._collect_replies(sim, controller, "other", messages.put_perflow("other", chunk))
        assert replies[0].type == MessageType.ERROR

    def test_duplicate_registration_rejected(self):
        sim, controller, monitor = self._registered_monitor()
        with pytest.raises(OperationError):
            controller.register(monitor)

    def test_events_counted_by_agent(self):
        sim, controller, monitor = self._registered_monitor()
        agent = controller._registrations["mon"].agent
        monitor.enable_events(EVENT_ASSET_DETECTED)
        monitor.receive(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80), 1)
        sim.run(until=0.1)
        assert agent.stats.events_sent == 1


class TestIntrospectionThroughFullStack:
    def test_enable_disable_via_northbound(self):
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        nb = NorthboundAPI(controller)
        monitor = PassiveMonitor(sim, "mon")
        controller.register(monitor)
        seen = []
        nb.subscribe_events(seen.append)

        sim.run_until(nb.enable_events("mon", EVENT_ASSET_DETECTED))
        monitor.receive(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80), 1)
        sim.run(until=sim.now + 0.5)
        assert len(seen) == 1
        assert seen[0].code == EVENT_ASSET_DETECTED
        assert controller.stats.introspection_events == 1

        sim.run_until(nb.disable_events("mon", EVENT_ASSET_DETECTED))
        monitor.receive(tcp_packet("10.0.0.2", "192.0.2.9", 1, 443), 1)
        sim.run(until=sim.now + 0.5)
        assert len(seen) == 1

    def test_pattern_scoped_subscription_through_stack(self):
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        nb = NorthboundAPI(controller)
        monitor = PassiveMonitor(sim, "mon")
        controller.register(monitor)
        seen = []
        nb.subscribe_events(seen.append)
        sim.run_until(nb.enable_events("mon", EVENT_ASSET_DETECTED, ["nw_src=10.5.0.0/16"]))
        monitor.receive(tcp_packet("10.9.0.1", "192.0.2.1", 1, 80), 1)  # outside the pattern
        monitor.receive(tcp_packet("10.5.0.1", "192.0.2.2", 1, 80), 1)  # inside the pattern
        sim.run(until=sim.now + 0.5)
        assert len(seen) == 1
        assert seen[0].key.nw_src == "10.5.0.1"


class TestOperationFailurePaths:
    def test_move_failure_surfaces_via_handle(self):
        """A destination that rejects puts fails the operation rather than hanging."""
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        nb = NorthboundAPI(controller)
        src = PassiveMonitor(sim, "src")
        dst = IDS(sim, "dst")  # wrong type: sealed monitor chunks cannot be unsealed by an IDS
        controller.register(src)
        controller.register(dst)
        src.process_packet(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80))
        handle = nb.move_internal("src", "dst", None)
        with pytest.raises(OperationError):
            sim.run_until(handle.completed, limit=100)
        assert controller.stats.operations_failed == 1

    def test_failed_operation_is_archived(self):
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        nb = NorthboundAPI(controller)
        controller.register(PassiveMonitor(sim, "src"))
        controller.register(IDS(sim, "dst"))
        controller._registrations["src"].middlebox.process_packet(tcp_packet("10.0.0.1", "192.0.2.1", 1, 80))
        handle = nb.move_internal("src", "dst", None)
        sim.run(until=2.0)
        assert handle.completed.exception is not None
        assert len(controller.stats.records) == 1

    def test_move_between_same_type_different_costs_still_works(self):
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.1))
        nb = NorthboundAPI(controller)
        fast = PassiveMonitor(sim, "fast", costs=ProcessingCosts(get_per_chunk=50e-6))
        slow = PassiveMonitor(sim, "slow", costs=ProcessingCosts(put_per_chunk=500e-6))
        controller.register(fast)
        controller.register(slow)
        for index in range(10):
            fast.process_packet(tcp_packet(f"10.0.0.{index + 1}", "192.0.2.1", 1000 + index, 80))
        record = sim.run_until(nb.move_internal("fast", "slow", None).completed, limit=100)
        assert record.chunks_transferred == 10


class TestControllerEventDeduplication:
    def test_same_event_not_replayed_twice_for_concurrent_operations(self):
        """A move and a merge sharing a source must not double-replay packets."""
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.3))
        nb = NorthboundAPI(controller)
        src = PassiveMonitor(sim, "src")
        dst = PassiveMonitor(sim, "dst")
        controller.register(src)
        controller.register(dst)
        for index in range(40):
            src.process_packet(tcp_packet(f"10.0.0.{index % 8 + 1}", "192.0.2.1", 1000 + index % 8, 80))
        move = nb.move_internal("src", "dst", None)
        merge = nb.merge_internal("src", "dst")
        # Live traffic for the moved flows while both operations are active.
        for index in range(20):
            packet = tcp_packet(f"10.0.0.{index % 8 + 1}", "192.0.2.1", 1000 + index % 8, 80)
            sim.schedule(0.002 * index, src.receive, packet, 1)
        sim.run_until(move.completed, limit=100)
        sim.run_until(merge.completed, limit=100)
        sim.run(until=sim.now + 1.0)
        # Each raised event is replayed at most once at the destination.
        assert dst.counters.reprocessed_packets <= src.counters.reprocess_events_raised

    def test_forwarding_is_idempotent_across_operations_sharing_a_destination(self):
        """Live operations targeting one destination share its replay ledger: an event is replayed there once."""
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        nb = NorthboundAPI(controller)
        src = DummyMiddlebox(sim, "src", chunk_count=1)
        dst = DummyMiddlebox(sim, "dst")
        controller.register(src)
        controller.register(dst)
        move, merge = (handle._operation for handle in (nb.move_internal("src", "dst", None), nb.merge_internal("src", "dst")))
        assert move.ledger is merge.ledger
        event = src.generate_reprocess_event(0)
        event.event_id = next(controller._event_ids)  # numbered as the controller numbers what it decodes
        sent = controller.stats.messages_sent
        assert move._forward(event) is True
        assert merge._forward(event) is False  # covered: no second replay goes out
        assert controller.stats.messages_sent == sent + 1
        assert move.record.events_forwarded == merge.record.events_forwarded == 1


class TestChannelAndConfigOverrides:
    def test_register_with_custom_channel_parameters(self):
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        monitor = PassiveMonitor(sim, "mon")
        channel = ControlChannel(sim, "slow-chan", latency=5e-3, bandwidth=1e6)
        returned = controller.register(monitor, channel=channel)
        assert returned is channel
        future = NorthboundAPI(controller).read_config("mon", "*")
        sim.run_until(future)
        # The slow channel's latency dominates: at least two 5 ms one-way trips.
        assert sim.now >= 0.01

    def test_channel_for_lookup(self):
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        monitor = PassiveMonitor(sim, "mon")
        channel = controller.register(monitor)
        assert controller.channel_for("mon") is channel
        assert controller.middlebox_names() == ["mon"]

    def test_unregister_then_operation_raises(self):
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        nb = NorthboundAPI(controller)
        controller.register(PassiveMonitor(sim, "mon"))
        controller.unregister("mon")
        from repro.core import UnknownMiddleboxError

        with pytest.raises(UnknownMiddleboxError):
            nb.read_config("mon")

    def test_quiescence_timeout_controls_delete_timing(self):
        def finalize_delay(timeout):
            sim = Simulator()
            controller = MBController(sim, ControllerConfig(quiescence_timeout=timeout))
            nb = NorthboundAPI(controller)
            controller.register(DummyMiddlebox(sim, "s", chunk_count=5))
            controller.register(DummyMiddlebox(sim, "d"))
            handle = nb.move_internal("s", "d", None)
            record = sim.run_until(handle.finalized, limit=100)
            return record.finalized_at - record.completed_at

        assert finalize_delay(0.5) > finalize_delay(0.1)
