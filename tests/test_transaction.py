"""Tests for the transactional northbound API and its SDN support.

Covers the transaction builder (steps, composites, declarative ordering),
coordinated re-routing (route installation gated on the move's per-flow
put-ACKs rather than whole-operation completion), all-or-nothing failure
semantics (route rollback, destination-hold release, cancelled finalisation),
the atomic multi-pattern route swap, and the clone_config failure paths.
"""

import pytest

from repro.apps import build_two_instance_scenario
from repro.core import (
    ControllerConfig,
    FlowPattern,
    MBController,
    NorthboundAPI,
    StepStatus,
    TransactionAbortedError,
    TransactionError,
    TransferGuarantee,
    TransferSpec,
)
from repro.core.errors import StateError, UnknownMiddleboxError
from repro.middleboxes import DummyMiddlebox, PassiveMonitor
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


def monitor_scenario(**kwargs):
    return build_two_instance_scenario(
        mb_factory=lambda sim, name: PassiveMonitor(sim, name), mb_names=("mon1", "mon2"), **kwargs
    )


def feed(sim, mb, count, *, spacing=0.0005, flows=10):
    for index in range(count):
        packet = tcp_packet(
            f"10.1.1.{index % flows + 1}", "172.16.0.10", 1000 + index % flows, 80, b"payload"
        )
        sim.schedule(spacing * index, mb.receive, packet, 1)


@pytest.fixture
def dummy_txn(sim):
    controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
    northbound = NorthboundAPI(controller)
    src = DummyMiddlebox(sim, "t-src", chunk_count=40)
    dst = DummyMiddlebox(sim, "t-dst")
    controller.register(src)
    controller.register(dst)
    return controller, northbound, src, dst


class TestBuilder:
    def test_single_move_step_equivalent_to_primitive(self, sim, dummy_txn):
        _, northbound, _, dst = dummy_txn
        txn = northbound.transaction()
        move = txn.move("t-src", "t-dst", None)
        handle = txn.commit()
        result = sim.run_until(handle.done, limit=100)
        assert result is handle
        assert handle.status == "committed"
        assert move.handle.record.chunks_transferred == 80  # 40 flows x 2 roles
        assert len(dst.support_store) == 40

    def test_steps_run_in_declaration_order_by_default(self, sim, dummy_txn):
        _, northbound, _, _ = dummy_txn
        order = []
        txn = northbound.transaction()
        txn.call(lambda: order.append("a"), name="a")
        txn.call(lambda: order.append("b"), name="b")
        txn.call(lambda: order.append("c"), name="c")
        handle = txn.commit()
        sim.run_until(handle.done, limit=10)
        assert order == ["a", "b", "c"]

    def test_empty_transaction_commits_immediately(self, sim, dummy_txn):
        _, northbound, _, _ = dummy_txn
        handle = northbound.transaction().commit()
        assert handle.done.done and handle.status == "committed"

    def test_commit_twice_raises(self, sim, dummy_txn):
        _, northbound, _, _ = dummy_txn
        txn = northbound.transaction()
        txn.call(lambda: None)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.call(lambda: None)
        with pytest.raises(TransactionError):
            txn.barrier()  # a step added after commit would never be wired

    def test_barrier_honours_explicit_after_edge(self, sim, dummy_txn):
        _, northbound, _, _ = dummy_txn
        order = []
        txn = northbound.transaction()

        def slow_fn():
            future = sim.timeout(0.05)
            future.add_done_callback(lambda f: order.append("slow"))
            return future

        slow = txn.call(slow_fn, name="slow")
        barrier = txn.barrier([], after=slow)
        txn.call(lambda: order.append("late"), name="late", after=barrier)
        handle = txn.commit()
        sim.run_until(handle.done, limit=10)
        assert order == ["slow", "late"]

    def test_per_step_progress_and_aggregate(self, sim, dummy_txn):
        _, northbound, _, _ = dummy_txn
        txn = northbound.transaction()
        txn.stats("t-src", None)
        txn.move("t-src", "t-dst", None)
        handle = txn.commit()
        sim.run_until(handle.done, limit=100)
        assert [record.status for record in handle.steps] == [StepStatus.DONE, StepStatus.DONE]
        assert all(record.duration is not None for record in handle.steps)
        aggregate = handle.aggregate()
        assert aggregate["operations"] == 1
        assert aggregate["chunks_transferred"] == 80
        assert aggregate["steps_done"] == aggregate["steps_total"] == 2


class TestCoordinatedReroute:
    def test_reroute_starts_at_state_installed_not_completion(self, sim, dummy_txn):
        """For an order-preserving move the per-flow put-ACKs all arrive well
        before the operation completes (replays + releases still drain); the
        coordinated reroute must start in that window."""
        _, northbound, src, _ = dummy_txn
        src.generate_events_at_rate(2000.0, duration=2.0)
        routed_at = []

        def reroute():
            routed_at.append(sim.now)
            return sim.timeout(0.002)

        txn = northbound.transaction()
        move = txn.move("t-src", "t-dst", None, spec=TransferSpec(guarantee=TransferGuarantee.ORDER_PRESERVING))
        txn.reroute(apply=reroute, after=move, label="reroute(all)")
        handle = txn.commit()
        sim.run_until(handle.done, limit=100)
        assert move.handle.state_installed.done
        assert routed_at, "reroute never ran"
        assert routed_at[0] < move.handle.record.completed_at

    def test_migrate_composite_orders_patterns_sequentially(self, sim):
        scenario = monitor_scenario()
        feed(scenario.sim, scenario.mb1, 40, flows=20)
        scenario.sim.run(until=0.1)
        started = []

        def reroute(pattern):
            started.append(pattern)
            return scenario.route_via(scenario.mb2, pattern)

        patterns = [FlowPattern(nw_src="10.1.1.0/28"), FlowPattern(nw_src="10.1.1.16/28")]
        txn = scenario.northbound.transaction()
        moves = txn.migrate("mon1", "mon2", patterns, reroute=reroute, query_stats=True)
        handle = txn.commit()
        scenario.sim.run_until(handle.done, limit=100)
        assert started == patterns
        assert all(move.handle.completed.done for move in moves)
        # The second pattern's move may not start before the first is routed.
        first_route = next(r for r in handle.steps if r.name.startswith("reroute") and "10.1.1.0/28" in r.name)
        second_move = moves[1].record
        assert second_move.started_at >= first_route.detail["requested_at"]


class TestAbortAndRollback:
    def test_failing_move_cancels_pending_steps_and_releases_holds(self, sim):
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        northbound = NorthboundAPI(controller)
        src = DummyMiddlebox(sim, "f-src", chunk_count=20)
        dst = FailingDestination(sim, "f-dst", accept=5)
        controller.register(src)
        controller.register(dst)
        ran = []
        txn = northbound.transaction()
        move = txn.move("f-src", "f-dst", None, spec=TransferSpec(guarantee=TransferGuarantee.ORDER_PRESERVING))
        txn.reroute(apply=lambda: sim.timeout(0.002), after=move, label="reroute(all)")
        txn.call(lambda: ran.append("terminate"), name="terminate")
        handle = txn.commit()
        with pytest.raises(TransactionAbortedError) as excinfo:
            sim.run_until(handle.done, limit=100)
        assert excinfo.value.step == "move(f-src->f-dst)"
        sim.run(until=sim.now + 1.0)
        assert ran == []
        statuses = {record.name: record.status for record in handle.steps}
        assert statuses["terminate"] is StepStatus.CANCELLED
        assert handle.status == "aborted"
        # Order-preserving holds installed by the ACKed puts were released.
        assert not dst._held_flows
        assert not dst._held_packets

    def test_abort_rolls_back_installed_routes(self, sim):
        scenario = monitor_scenario()
        feed(scenario.sim, scenario.mb1, 30, flows=10)
        scenario.sim.run(until=0.1)
        pattern = FlowPattern(nw_src="10.1.1.0/28")
        path = [scenario.client_gw, scenario.ingress, scenario.mb2, scenario.egress, scenario.server_gw]
        routes_before = set(scenario.sdn.routes)

        def explode():
            raise StateError("post-route step failed")

        txn = scenario.northbound.transaction()
        move = txn.move("mon1", "mon2", pattern)
        txn.reroute(scenario.sdn, pattern, path, after=move, priority=500)
        txn.call(explode, name="explode")
        handle = txn.commit()
        with pytest.raises(TransactionAbortedError):
            scenario.sim.run_until(handle.done, limit=100)
        scenario.sim.run(until=scenario.sim.now + 1.0)
        # The swap's routes were removed again and its rules left no trace.
        assert set(scenario.sdn.routes) == routes_before
        reroute_record = next(r for r in handle.steps if r.name.startswith("reroute"))
        assert reroute_record.status is StepStatus.ROLLED_BACK

    def test_rebalance_reroute_failure_aborts_its_own_move(self, sim):
        """A composite step that fails on one half (the reroute) must abort
        its other half (the in-flight move): the source delete is cancelled
        and the busiest replica keeps its state."""
        scenario = monitor_scenario(quiescence_timeout=0.3)
        feed(scenario.sim, scenario.mb1, 30, flows=10)
        scenario.sim.run(until=0.1)
        state_before = len(scenario.mb1.report_store)

        def failing_routing(mb, pattern):
            future = scenario.sim.event(name="failing-route")
            scenario.sim.schedule(0.001, future.fail, StateError("route install failed"))
            return future

        txn = scenario.northbound.transaction()
        step = txn.rebalance(
            ["mon1", "mon2"], {"mon1": FlowPattern(nw_src="10.1.1.0/24")}, failing_routing
        )
        handle = txn.commit()
        with pytest.raises(TransactionAbortedError):
            scenario.sim.run_until(handle.done, limit=100)
        scenario.sim.run(until=scenario.sim.now + 2.0)
        assert step.handle is not None
        # The move was aborted with the transaction: no finalisation, and the
        # source's state survives (the delete was cancelled).
        assert step.handle.record.finalized_at is None
        assert len(scenario.mb1.report_store) == state_before

    def test_finalized_barrier_covers_a_rebalance_steps_move(self, sim):
        """A rebalance step shares the operation step's handle plumbing, so
        ``barrier(finalized=True)`` waits for its move's post-quiescence
        finalisation exactly as it does for a declared move."""
        scenario = monitor_scenario(quiescence_timeout=0.3)
        feed(scenario.sim, scenario.mb1, 30, flows=10)
        scenario.sim.run(until=0.1)
        txn = scenario.northbound.transaction()
        step = txn.rebalance(
            ["mon1", "mon2"], {"mon1": FlowPattern(nw_src="10.1.1.0/24")}, lambda mb, pattern: scenario.sim.timeout(1e-4)
        )
        txn.barrier([step], finalized=True)
        handle = txn.commit()
        scenario.sim.run_until(handle.done, limit=100)
        assert handle.status == "committed"
        assert step.handle is not None and step.handle.finalized.done
        assert step.handle.record.finalized_at is not None
        assert handle.operation_records == [step.handle.record]

    def test_pass_through_steps_keep_their_names_and_the_stats_detail(self, sim):
        scenario = monitor_scenario()
        feed(scenario.sim, scenario.mb1, 30, flows=10)
        scenario.sim.run(until=0.1)
        txn = scenario.northbound.transaction()
        txn.clone_config("mon1", "mon2")
        txn.write_config("mon2", "sample_rate", [2])
        stats = txn.stats("mon1", {"nw_src": "10.1.1.0/24"})
        txn.end_transfer("mon2")
        handle = txn.commit()
        scenario.sim.run_until(handle.done, limit=100)
        assert [record.name for record in handle.steps] == [
            "clone_config(mon1->mon2)",
            "write_config(mon2,sample_rate)",
            "stats(mon1)",
            "end_transfer(mon2)",
        ]
        assert all(record.status is StepStatus.DONE for record in handle.steps)
        assert stats.record.detail["stats"]["perflow_reporting"] > 0

    def test_abort_cancels_source_delete_of_completed_move(self, sim):
        scenario = monitor_scenario(quiescence_timeout=0.3)
        feed(scenario.sim, scenario.mb1, 30, flows=10)
        scenario.sim.run(until=0.1)
        state_before = len(scenario.mb1.report_store)
        assert state_before > 0

        def explode():
            raise StateError("late step failed")

        txn = scenario.northbound.transaction()
        txn.move("mon1", "mon2", None)
        txn.call(explode, name="explode")
        handle = txn.commit()
        with pytest.raises(TransactionAbortedError):
            scenario.sim.run_until(handle.done, limit=100)
        # Run far past the quiescence timeout: the rolled-back move must NOT
        # delete the source's state.
        scenario.sim.run(until=scenario.sim.now + 2.0)
        assert len(scenario.mb1.report_store) == state_before


class TestSwapRoutes:
    def test_swap_validates_all_paths_before_touching_switches(self, sim):
        from repro.core import NetworkError

        scenario = monitor_scenario()
        rules_before = scenario.sdn.rules_installed
        good = (FlowPattern(nw_src="10.1.1.0/28"),
                [scenario.client_gw, scenario.ingress, scenario.mb2, scenario.egress, scenario.server_gw])
        # ingress has no port toward the server gateway (all paths go through a middlebox)
        bad = (FlowPattern(nw_src="10.1.2.0/28"), [scenario.client_gw, scenario.ingress, scenario.server_gw])
        with pytest.raises(NetworkError):
            scenario.sdn.swap_routes([good, bad], priority=300)
        scenario.sim.run(until=scenario.sim.now + 0.1)
        assert scenario.sdn.rules_installed == rules_before

    def test_swap_is_make_before_break_and_rolls_back(self, sim):
        scenario = monitor_scenario()
        pattern = FlowPattern(nw_dst="172.16.0.0/16")
        old = scenario.routes[0]
        path = [scenario.client_gw, scenario.ingress, scenario.mb2, scenario.egress, scenario.server_gw]
        swap = scenario.sdn.swap_routes([(pattern, path)], priority=400, replace=[old])
        # Before install completes the replaced route is still present.
        assert old.route_id in scenario.sdn.routes
        scenario.sim.run_until(swap.installed)
        scenario.sim.run(until=scenario.sim.now + 0.1)
        assert old.route_id not in scenario.sdn.routes
        assert all(route.route_id in scenario.sdn.routes for route in swap.routes)
        # Rollback removes the new routes and restores the replaced one.
        swap.rollback()
        scenario.sim.run(until=scenario.sim.now + 0.1)
        assert all(route.route_id not in scenario.sdn.routes for route in swap.routes)
        assert any(handle.pattern == pattern and handle.path == old.path for handle in scenario.sdn.routes.values())


class TestCloneConfigFailurePaths:
    def test_clone_config_fails_future_when_destination_vanishes(self, sim):
        """The read succeeds but the write target was unregistered in between:
        the returned future must fail instead of leaking an unresolved event
        (and the error must not corrupt the read future's callback chain)."""
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        northbound = NorthboundAPI(controller)
        src = PassiveMonitor(sim, "cc-src")
        dst = PassiveMonitor(sim, "cc-dst")
        controller.register(src)
        controller.register(dst)
        future = northbound.clone_config("cc-src", "cc-dst")
        controller.unregister("cc-dst")  # vanishes while the read is in flight
        sim.run(until=sim.now + 1.0)
        assert future.done
        assert isinstance(future.exception, UnknownMiddleboxError)

    def test_clone_config_fails_future_when_source_unknown(self, sim):
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        northbound = NorthboundAPI(controller)
        controller.register(PassiveMonitor(sim, "cc-dst"))
        future = northbound.clone_config("ghost", "cc-dst")
        assert future.done
        assert isinstance(future.exception, UnknownMiddleboxError)

    def test_clone_config_read_failure_propagates(self, sim):
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
        northbound = NorthboundAPI(controller)
        src = PassiveMonitor(sim, "cc-src")
        dst = PassiveMonitor(sim, "cc-dst")
        controller.register(src)
        controller.register(dst)
        future = northbound.clone_config("cc-src", "cc-dst")
        controller.unregister("cc-src")  # its reply is discarded: read never fires
        sim.run(until=sim.now + 1.0)
        # The read can never complete; the clone future must not block a
        # transaction forever when the caller resolves it externally.
        assert not future.done  # still pending is acceptable for a dead read...
        future.fail(UnknownMiddleboxError("cc-src vanished"))  # caller cancels
        assert future.done
