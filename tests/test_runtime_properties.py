"""Property tests for the runtime scheduling contract, on both implementations.

Seeded-random interleavings of ``schedule`` / ``process`` assert the three
properties every component implicitly relies on:

1. **same-time FIFO tie-breaking** — callbacks scheduled for the same time run
   in scheduling order;
2. **every entry runs once, in heap order** — a queue entry is the bare tuple
   ``(time, seq, callback, args)``: the unique ``seq`` means the heap never
   compares a callback, and a NaN deadline, which would break the order, is
   refused on both clocks;
3. **Future single-completion** — a future completes exactly once; the second
   completion raises and does not overwrite the first.

Every test runs against the deterministic :class:`Simulator` and the
wall-clock :class:`RealtimeRuntime` through the same interface — one kernel
under two clocks, so these are also the checks that the second clock's drive
loop keeps the kernel's ordering, failure and diagnosis semantics.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.errors import SimulationError, StuckFutureError
from repro.net.simulator import Future, Simulator
from repro.runtime import RealtimeRuntime, RuntimeConfig
from repro.runtime import realtime as realtime_module

#: Far enough ahead that all scheduling happens before anything
#: fires, even on the wall clock; short enough to keep the suite fast.
HORIZON = 0.05


@pytest.fixture(params=["simulated", "realtime"])
def runtime(request):
    rt = RuntimeConfig(mode=request.param).create()
    yield rt
    if isinstance(rt, RealtimeRuntime):
        rt.close()


def drain(rt, extra: float = 0.02) -> None:
    """Drive *rt* safely past HORIZON so every armed callback has fired."""
    rt.run(until=rt.now + HORIZON + extra)


class TestInterface:
    def test_both_implementations_are_the_one_kernel(self, runtime):
        assert isinstance(runtime, Simulator)

    def test_clock_is_monotonic(self, runtime):
        before = runtime.now
        runtime.run(until=runtime.now + 0.01)
        assert runtime.now >= before

    def test_event_hands_out_the_kernels_plain_future(self, runtime):
        future = runtime.event("plain")
        assert type(future) is Future and future.sim is runtime and not future.done


class TestFifoTieBreaking:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_time_callbacks_run_in_scheduling_order(self, runtime, seed):
        rng = random.Random(seed)
        base = runtime.now + HORIZON
        buckets = [base, base + 0.01, base + 0.02]
        executed = []
        scheduled = []
        for index in range(30):
            bucket = rng.randrange(len(buckets))
            scheduled.append((bucket, index))
            runtime.schedule_at(buckets[bucket], executed.append, (bucket, index))
        drain(runtime)
        assert len(executed) == len(scheduled)
        # Across buckets: time order.  Within a bucket: scheduling order.
        assert executed == sorted(scheduled, key=lambda entry: (entry[0], scheduled.index(entry)))
        for bucket in range(len(buckets)):
            in_bucket = [index for b, index in executed if b == bucket]
            assert in_bucket == sorted(in_bucket)

    def test_zero_delay_schedules_preserve_order(self, runtime):
        executed = []
        base = runtime.now + HORIZON
        for index in range(10):
            runtime.schedule_at(base, executed.append, index)
        drain(runtime)
        assert executed == list(range(10))


class TestQueueEntries:
    """What the heap entry ``(time, seq, callback, args)`` guarantees."""

    @pytest.mark.parametrize("seed", [6, 7])
    def test_entries_sharing_a_time_order_by_sequence_never_by_callback(self, runtime, seed):
        # Functions do not support "<": if the queue's ordering ever fell
        # through to the callback, pushing the second entry for one time
        # would raise TypeError.  Two times, interleaved at random, so equal
        # times meet inside the heap with other entries between them.
        rng = random.Random(seed)
        base = runtime.now + HORIZON
        executed = []
        scheduled = []
        for index in range(24):
            bucket = rng.randrange(2)
            scheduled.append((bucket, index))
            runtime.schedule_at(base + bucket * 0.01, (lambda i=index: executed.append(i)))
        drain(runtime)
        assert executed == [index for _, index in sorted(scheduled)]

    def test_a_nan_deadline_is_refused_and_the_queue_keeps_its_order(self, runtime):
        # A NaN entry breaks the heap's order: on the simulator a later entry
        # would overtake an earlier one, and on the wall clock an entry due
        # after a NaN head would never run.
        nan = float("nan")
        with pytest.raises(SimulationError):
            runtime.schedule_at(nan, pytest.fail, "NaN entry ran")
        with pytest.raises(SimulationError):
            runtime.schedule(nan, pytest.fail, "NaN entry ran")
        executed = []
        base = runtime.now + HORIZON
        runtime.schedule_at(base + 0.001, executed.append, "later")
        runtime.schedule_at(base, executed.append, "earlier")
        drain(runtime)
        assert executed == ["earlier", "later"]
        assert not math.isnan(runtime.now)

    def test_a_negative_delay_is_refused_and_nothing_is_queued(self, runtime):
        with pytest.raises(SimulationError, match="past"):
            runtime.schedule(-0.001, pytest.fail, "negative-delay entry ran")
        assert runtime.pending_events == 0

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_every_entry_runs_exactly_once_and_counts_once(self, runtime, seed):
        rng = random.Random(seed)
        base = runtime.now + HORIZON
        executed = []
        for index in range(40):
            runtime.schedule_at(base + rng.random() * 0.02, executed.append, index)
        before = runtime.executed_events
        drain(runtime)
        assert sorted(executed) == list(range(40))
        assert runtime.executed_events == before + 40
        assert runtime.pending_events == 0

    def test_args_reach_the_callback_unchanged_and_no_handle_is_returned(self, runtime):
        calls = []
        due = runtime.now + HORIZON
        assert runtime.schedule_at(due, lambda *args: calls.append(args), "a", 2, None) is None
        assert runtime.schedule(HORIZON, lambda *args: calls.append(args)) is None
        drain(runtime)
        assert sorted(calls, key=len) == [(), ("a", 2, None)]

    def test_an_entry_a_callback_schedules_for_now_runs_after_the_peers_already_due(self, runtime):
        base = runtime.now + HORIZON
        executed = []

        def first():
            executed.append("first")
            runtime.schedule(0.0, executed.append, "scheduled-by-first")

        runtime.schedule_at(base, first)
        runtime.schedule_at(base, executed.append, "peer")
        drain(runtime)
        assert executed == ["first", "peer", "scheduled-by-first"]

    def test_pending_events_counts_what_is_queued(self, runtime):
        base = runtime.now + HORIZON
        for offset in (0.0, 0.0, 0.01):
            runtime.schedule_at(base + offset, lambda: None)
        assert runtime.pending_events == 3
        drain(runtime)
        assert runtime.pending_events == 0

    def test_run_until_leaves_what_falls_due_after_the_future_queued(self, runtime):
        gate = runtime.event("gate")
        base = runtime.now + HORIZON
        executed = []
        runtime.schedule_at(base, gate.succeed, "open")
        runtime.schedule_at(base + 0.5, executed.append, "later")
        assert runtime.run_until(gate, limit=base + 5.0) == "open"
        assert executed == [] and runtime.pending_events == 1

    def test_run_with_a_horizon_leaves_what_falls_due_after_it_queued(self, runtime):
        base = runtime.now + HORIZON
        executed = []
        runtime.schedule_at(base, executed.append, "due")
        runtime.schedule_at(base + 0.5, executed.append, "after-the-horizon")
        assert runtime.run(until=base + 0.01) >= base + 0.01
        assert executed == ["due"] and runtime.pending_events == 1


class TestFutureSingleCompletion:
    def test_second_succeed_raises_and_does_not_overwrite(self, runtime):
        future = runtime.event("once")
        future.succeed("first")
        with pytest.raises(SimulationError):
            future.succeed("second")
        assert future.result == "first"

    def test_fail_after_succeed_raises(self, runtime):
        future = runtime.event("once")
        future.succeed(1)
        with pytest.raises(SimulationError):
            future.fail(RuntimeError("late"))
        assert future.exception is None

    def test_done_callbacks_fire_exactly_once(self, runtime):
        future = runtime.event("cb")
        fired = []
        future.add_done_callback(lambda f: fired.append(f.result))
        future.succeed(42)
        with pytest.raises(SimulationError):
            future.succeed(43)
        assert fired == [42]

    def test_callback_added_after_completion_runs_immediately(self, runtime):
        future = runtime.event("late-cb")
        future.succeed("done")
        fired = []
        future.add_done_callback(lambda f: fired.append(f.result))
        assert fired == ["done"]


class TestProcesses:
    def test_process_yields_delays_and_futures(self, runtime):
        gate = runtime.event("gate")
        runtime.schedule(0.01, gate.succeed, 5)

        def worker():
            yield 0.005
            value = yield gate
            return value * 2

        future = runtime.process(worker())
        assert runtime.run_until(future, limit=runtime.now + 5.0) == 10

    def test_process_failure_propagates_once(self, runtime):
        def bomb():
            yield 0.001
            raise RuntimeError("boom")

        future = runtime.process(bomb())
        with pytest.raises(RuntimeError, match="boom"):
            runtime.run_until(future, limit=runtime.now + 5.0)
        assert future.done and future.exception is not None

    @pytest.mark.parametrize("seed", [6, 7])
    def test_random_process_interleavings_settle_deterministically(self, runtime, seed):
        rng = random.Random(seed)
        results = []

        def worker(ident, delays):
            total = 0.0
            for delay in delays:
                yield delay
                total += delay
            results.append(ident)
            return total

        futures = [
            runtime.process(worker(ident, [rng.random() * 0.004 for _ in range(3)]))
            for ident in range(6)
        ]
        for future in futures:
            runtime.run_until(future, limit=runtime.now + 5.0)
        assert sorted(results) == list(range(6))
        for future in futures:
            assert future.done and future.exception is None


class TestFailingCallback:
    def test_exception_surfaces_at_the_raising_callback(self, runtime):
        # The drive call raises *that* exception before anything later runs,
        # and the runtime stays drivable: the next call picks up the rest.
        executed = []
        base = runtime.now + HORIZON

        def bomb():
            raise RuntimeError("first")

        def second_bomb():
            executed.append("second-bomb")
            raise RuntimeError("second")

        runtime.schedule_at(base, bomb)
        runtime.schedule_at(base + 0.01, second_bomb)
        runtime.schedule_at(base + 0.02, executed.append, "later")
        with pytest.raises(RuntimeError, match="first"):
            drain(runtime)
        assert executed == []
        with pytest.raises(RuntimeError, match="second"):
            drain(runtime)
        assert executed == ["second-bomb"]
        drain(runtime)
        assert executed == ["second-bomb", "later"]


class TestStuckFutureDiagnosis:
    def test_drained_queue_raises_queue_drained(self, runtime):
        stuck = runtime.event("never-completed")
        stuck.add_done_callback(lambda f: None)
        runtime.schedule(0.005, lambda: None)  # unrelated work that drains first
        with pytest.raises(StuckFutureError) as excinfo:
            runtime.run_until(stuck, limit=runtime.now + 5.0)
        error = excinfo.value
        assert (error.reason, error.future_name, error.waiters, error.queue_depth) == (
            "queue-drained",
            "never-completed",
            1,
            0,
        )

    def test_passing_the_limit_raises_and_keeps_the_boundary_event(self, runtime):
        gate = runtime.event("late")
        start = runtime.now
        runtime.schedule_at(start + 0.2, gate.succeed, "finally")
        with pytest.raises(StuckFutureError) as excinfo:
            runtime.run_until(gate, limit=start + 0.01)
        assert excinfo.value.reason == "limit-exceeded"
        assert excinfo.value.queue_depth == 1
        assert runtime.run_until(gate, limit=start + 5.0) == "finally"


@pytest.fixture
def realtime():
    rt = RuntimeConfig(mode="realtime").create()
    yield rt
    rt.close()


class _StubClock:
    """Stands in for the wall-clock runtime's ``time`` module: ``monotonic``
    moves when ``sleep`` is called, and a sleep overshoots by 1 ms.  With a
    *tick*, every read of ``monotonic`` also moves it by that much, so a
    drive loop spinning on the clock gets somewhere."""

    def __init__(self, tick: float = 0.0) -> None:
        self.t = 0.0
        self.tick = tick
        self.sleeps = []

    def monotonic(self) -> float:
        self.t += self.tick
        return self.t

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.t += seconds + 1e-3


class TestWallClockDrive:
    """Realtime-only: what the wall clock changes about scheduling and driving."""

    def test_a_past_deadline_is_clamped_and_the_entry_keeps_its_args(self, realtime):
        # Clamped to "now", the late entry sorts after one already due at
        # start; unclamped, its earlier deadline would run it first.
        ran = []
        start = realtime.now
        realtime.schedule_at(start, ran.append, ("on-time",))
        realtime.schedule_at(start - 1.0, lambda *args: ran.append(args), "x", 1)
        realtime.run()
        assert ran == [("on-time",), ("x", 1)]

    def test_an_empty_queue_is_waited_on_only_up_to_an_explicit_horizon(self, monkeypatch):
        clock = _StubClock()
        monkeypatch.setattr(realtime_module, "time", clock)
        rt = RealtimeRuntime()
        assert rt.run() == 0.0 and clock.sleeps == []
        assert rt.run(until=0.5) >= 0.5 and len(clock.sleeps) == 1
        with pytest.raises(StuckFutureError) as excinfo:
            rt.run_until(rt.event("pending"), limit=10.0)
        assert excinfo.value.reason == "queue-drained" and len(clock.sleeps) == 1
        assert rt.close() == {"processes_leaked": 0, "timers_pending": 0}

    def test_a_closed_runtime_cannot_be_driven(self):
        rt = RuntimeConfig(mode="realtime").create()
        rt.schedule(10.0, lambda: None)
        assert rt.close() == {"processes_leaked": 0, "timers_pending": 1}
        assert rt.close() == {"processes_leaked": 0, "timers_pending": 0}
        with pytest.raises(SimulationError, match="closed"):
            rt.run(until=rt.now + 0.01)
        with pytest.raises(SimulationError, match="closed"):
            rt.run_until(rt.event("never"))

    def test_close_counts_the_timers_and_processes_still_outstanding(self, realtime):
        def finishes():
            yield 0.0
            return "done"

        def waits_forever():
            yield realtime.event("never")

        finished = realtime.process(finishes())
        realtime.process(waits_forever())
        realtime.schedule(10.0, lambda: None)
        realtime.run(until=realtime.now + 0.01)
        assert finished.result == "done"
        assert realtime.close() == {"processes_leaked": 1, "timers_pending": 1}

    def test_a_future_a_timer_completes_fires_its_callbacks_within_the_drive_call(self, realtime):
        future = realtime.event("completed-by-a-timer")
        fired = []
        future.add_done_callback(lambda f: fired.append(f.result))
        realtime.schedule(0.005, future.succeed, "from-timer")
        assert realtime.run_until(future, limit=realtime.now + 5.0) == "from-timer"
        assert fired == ["from-timer"]

    def test_a_timer_a_callback_arms_interrupts_the_wait_for_a_far_timer(self, monkeypatch):
        # The loop re-reads the queue's head after every callback: once the
        # callback at 0.01 arms a timer 50 ms out, the wait is for that timer,
        # not for the far one at 0.3, and the horizon at 0.1 still stops it.
        clock = _StubClock()
        monkeypatch.setattr(realtime_module, "time", clock)
        rt = RealtimeRuntime()
        order = []
        rt.schedule_at(0.3, order.append, "far")
        rt.schedule_at(0.01, lambda: rt.schedule(0.05, order.append, "armed"))
        assert rt.run(until=0.1) < 0.3
        assert order == ["armed"] and rt.pending_events == 1
        assert len(clock.sleeps) == 3 and max(clock.sleeps) < 0.05
        rt.close()

    def test_what_is_due_runs_even_when_a_wait_overshot_the_horizon(self, monkeypatch):
        # The sleep toward 0.1 overshoots to 0.1008; the entry at 0.1005 is
        # due by then and runs, although it lies past the horizon.
        clock = _StubClock()
        monkeypatch.setattr(realtime_module, "time", clock)
        rt = RealtimeRuntime()
        order = []
        rt.schedule_at(0.1, order.append, "at-horizon")
        rt.schedule_at(0.1005, order.append, "overshot")
        rt.schedule_at(0.2, order.append, "later")
        rt.run(until=0.1)
        assert order == ["at-horizon", "overshot"] and rt.pending_events == 1
        assert len(clock.sleeps) == 1
        rt.close()

    def test_a_wait_below_the_spin_threshold_spins_instead_of_sleeping(self, monkeypatch):
        clock = _StubClock(tick=1e-5)
        monkeypatch.setattr(realtime_module, "time", clock)
        rt = RealtimeRuntime()
        ran = []
        rt.schedule(realtime_module._SPIN_BELOW / 2, ran.append, "near")
        rt.run()
        assert ran == ["near"] and clock.sleeps == []
        rt.schedule(0.1, ran.append, "far")
        rt.run()
        assert ran == ["near", "far"] and len(clock.sleeps) == 1
        assert clock.sleeps[0] == pytest.approx(0.1 - realtime_module._SPIN_BELOW, abs=1e-4)
        rt.close()

    def test_time_scale_stretches_every_wait_and_shrinks_now(self, monkeypatch):
        clock = _StubClock()
        monkeypatch.setattr(realtime_module, "time", clock)
        rt = RealtimeRuntime(time_scale=2.0)
        rt.schedule(0.1, lambda: None)
        rt.run()
        assert clock.sleeps == [pytest.approx(0.2 - realtime_module._SPIN_BELOW)]
        assert rt.now == pytest.approx(clock.t / 2.0)
        rt.close()

    def test_a_non_positive_time_scale_is_refused(self):
        for scale in (0.0, -1.0):
            with pytest.raises(SimulationError, match="time_scale"):
                RealtimeRuntime(time_scale=scale)


class TestSimulatorDeterminismUnderTheSharedInterface:
    """The simulated path stays bit-for-bit: same program, same fingerprint."""

    def test_identical_runs_produce_identical_event_counts(self):
        def program(sim: Simulator) -> int:
            lane = sim.lane("cpu")
            order = []
            for index in range(20):
                lane.submit(1e-4, lambda i=index: order.append(i))
            sim.schedule(0.5, order.append, "tail")
            sim.run()
            assert order == [*range(20), "tail"]
            return sim.executed_events

        assert program(Simulator()) == program(Simulator())
