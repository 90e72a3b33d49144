"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.core.errors import SimulationError, StuckFutureError
from repro.net.simulator import Simulator, all_of


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.3, order.append, "c")
        sim.schedule(0.1, order.append, "a")
        sim.schedule(0.2, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.1, order.append, 1)
        sim.schedule(0.1, order.append, 2)
        sim.run()
        assert order == [1, 2]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "late")
        sim.run(until=0.5)
        assert fired == []
        assert sim.now == 0.5
        assert sim.pending_events == 1

    def test_run_with_no_events_advances_to_until(self):
        sim = Simulator()
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_cannot_schedule_into_the_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_a_nan_time_is_refused_before_it_can_reorder_the_heap(self):
        # Once queued, a NaN entry would let an event due at 0.5 run after
        # it, and running it would set the clock to NaN.
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "at 1.0")
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), order.append, "nan")
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), order.append, "nan")
        sim.schedule(0.5, order.append, "at 0.5")
        sim.run()
        assert order == ["at 0.5", "at 1.0"]
        assert sim.now == 1.0

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(sim.now)
            sim.schedule(0.5, lambda: seen.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [1.0, 1.5]

    def test_executed_event_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.executed_events == 5


class TestFuture:
    def test_succeed_and_result(self):
        sim = Simulator()
        future = sim.event()
        future.succeed(42)
        assert future.done and future.result == 42

    def test_result_before_completion_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = sim.event().result

    def test_double_completion_rejected(self):
        sim = Simulator()
        future = sim.event()
        future.succeed(1)
        with pytest.raises(SimulationError):
            future.succeed(2)

    def test_fail_propagates_exception(self):
        sim = Simulator()
        future = sim.event()
        future.fail(ValueError("boom"))
        with pytest.raises(ValueError):
            _ = future.result

    def test_callback_after_completion_runs_immediately(self):
        sim = Simulator()
        future = sim.event()
        future.succeed("x")
        seen = []
        future.add_done_callback(lambda f: seen.append(f.result))
        assert seen == ["x"]

    def test_timeout_future(self):
        sim = Simulator()
        future = sim.timeout(2.0, result="done")
        sim.run()
        assert future.result == "done"
        assert sim.now == 2.0

    def test_all_of_collects_results_in_order(self):
        sim = Simulator()
        futures = [sim.timeout(0.3, "c"), sim.timeout(0.1, "a"), sim.timeout(0.2, "b")]
        combined = all_of(sim, futures)
        sim.run()
        assert combined.result == ["c", "a", "b"]

    def test_all_of_empty_completes_immediately(self):
        sim = Simulator()
        assert all_of(sim, []).result == []

    def test_all_of_fails_on_first_failure(self):
        sim = Simulator()
        good = sim.timeout(0.1)
        bad = sim.event()
        combined = all_of(sim, [good, bad])
        bad.fail(RuntimeError("nope"))
        sim.run()
        with pytest.raises(RuntimeError):
            _ = combined.result

    def test_run_until_returns_future_result(self):
        sim = Simulator()
        future = sim.timeout(1.5, "value")
        assert sim.run_until(future) == "value"

    def test_run_until_raises_if_queue_drains(self):
        sim = Simulator()
        pending = sim.event()
        with pytest.raises(SimulationError):
            sim.run_until(pending)


class TestStuckFutureDiagnostics:
    """run_until must diagnose *why* a future can never complete."""

    def test_queue_drain_raises_typed_error_with_diagnosis(self):
        sim = Simulator()
        stuck = sim.event(name="never-completed")
        stuck.add_done_callback(lambda f: None)
        stuck.add_done_callback(lambda f: None)
        sim.schedule(0.5, lambda: None)  # unrelated work that drains first
        with pytest.raises(StuckFutureError) as excinfo:
            sim.run_until(stuck)
        error = excinfo.value
        assert error.reason == "queue-drained"
        assert error.future_name == "never-completed"
        assert error.waiters == 2
        assert error.queue_depth == 0
        assert error.limit is None
        assert "never-completed" in str(error)
        assert "waiters=2" in str(error)

    def test_limit_exceeded_raises_typed_error_with_queue_depth(self):
        sim = Simulator()
        stuck = sim.event(name="gated")
        # Periodic work keeps the queue alive well past the limit.
        def tick():
            sim.schedule(0.1, tick)
        sim.schedule(0.1, tick)
        with pytest.raises(StuckFutureError) as excinfo:
            sim.run_until(stuck, limit=1.0)
        error = excinfo.value
        assert error.reason == "limit-exceeded"
        assert error.limit == 1.0
        assert error.queue_depth >= 1
        assert error.at <= 1.0
        assert sim.pending_events >= 1  # the limit check consumed nothing

    def test_stuck_error_is_a_simulation_error(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.run_until(sim.event())

    def test_limit_check_does_not_consume_the_boundary_event(self):
        # The over-limit event must still be pending after the raise, so a
        # caller that extends the limit and retries sees it execute.
        sim = Simulator()
        gate = sim.event(name="late")
        sim.schedule(2.0, gate.succeed, "finally")
        with pytest.raises(StuckFutureError):
            sim.run_until(gate, limit=1.0)
        assert sim.run_until(gate, limit=3.0) == "finally"


class TestSimulatedLane:
    def test_lane_serialises_submitted_work(self):
        sim = Simulator()
        lane = sim.lane("cpu")
        finishes = []
        lane.submit(0.2, lambda: finishes.append(sim.now))
        lane.submit(0.3, lambda: finishes.append(sim.now))
        sim.run()
        assert finishes == [pytest.approx(0.2), pytest.approx(0.5)]

    def test_reserve_tracks_occupancy(self):
        sim = Simulator()
        lane = sim.lane("wire")
        assert lane.reserve(0.1) == pytest.approx(0.1)
        assert lane.reserve(0.1) == pytest.approx(0.2)
        assert lane.idle_at == pytest.approx(0.2)

    def test_dispatch_at_delivers_in_order(self):
        sim = Simulator()
        lane = sim.lane("wire")
        order = []
        lane.dispatch_at(0.2, order.append, "b")
        lane.dispatch_at(0.1, order.append, "a")
        sim.run()
        assert order == ["a", "b"]


class TestProcesses:
    def test_process_with_delays(self):
        sim = Simulator()
        times = []

        def body():
            times.append(sim.now)
            yield 1.0
            times.append(sim.now)
            yield 0.5
            times.append(sim.now)
            return "finished"

        future = sim.process(body())
        sim.run()
        assert times == [0.0, 1.0, 1.5]
        assert future.result == "finished"

    def test_process_waits_on_future_and_receives_result(self):
        sim = Simulator()
        received = []

        def body():
            value = yield sim.timeout(0.5, result=99)
            received.append(value)

        sim.process(body())
        sim.run()
        assert received == [99]

    def test_process_waits_on_list_of_futures(self):
        sim = Simulator()
        results = []

        def body():
            values = yield [sim.timeout(0.2, "a"), sim.timeout(0.1, "b")]
            results.append(values)

        sim.process(body())
        sim.run()
        assert results == [["a", "b"]]

    def test_process_exception_fails_its_future(self):
        sim = Simulator()

        def body():
            yield 0.1
            raise RuntimeError("process error")

        future = sim.process(body())
        sim.run()
        with pytest.raises(RuntimeError):
            _ = future.result

    def test_failed_awaited_future_raises_inside_process(self):
        sim = Simulator()
        failing = sim.event()
        caught = []

        def body():
            try:
                yield failing
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(body())
        sim.schedule(0.1, failing.fail, ValueError("inner"))
        sim.run()
        assert caught == ["inner"]

    def test_yield_none_resumes_soon(self):
        sim = Simulator()
        steps = []

        def body():
            steps.append("first")
            yield None
            steps.append("second")

        sim.process(body())
        sim.run()
        assert steps == ["first", "second"]

    def test_unsupported_yield_value_fails_process(self):
        sim = Simulator()

        def body():
            yield "not a future"

        future = sim.process(body())
        sim.run()
        assert future.exception is not None
