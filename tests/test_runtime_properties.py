"""Property tests for the runtime scheduling contract, on both implementations.

Seeded-random interleavings of ``schedule`` / ``cancel`` / ``process`` assert
the three properties every component implicitly relies on:

1. **same-time FIFO tie-breaking** — callbacks scheduled for the same time run
   in scheduling order;
2. **no callback after cancellation** — a cancelled handle's callback never
   fires, no matter when the cancel raced the schedule;
3. **Future single-completion** — a future completes exactly once; the second
   completion raises and does not overwrite the first.

Every test runs against the deterministic :class:`Simulator` and the
wall-clock :class:`RealtimeRuntime` through the same interface — one kernel
under two clocks, so these are also the checks that the second clock's drive
loop keeps the kernel's ordering, failure and diagnosis semantics.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.core.errors import SimulationError, StuckFutureError
from repro.net.simulator import Simulator
from repro.runtime import RealtimeRuntime, RuntimeConfig

#: Far enough ahead that all scheduling/cancelling happens before anything
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


class TestCancellation:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_cancelled_callbacks_never_run(self, runtime, seed):
        rng = random.Random(seed)
        base = runtime.now + HORIZON
        executed = []
        handles = {}
        for index in range(40):
            handles[index] = runtime.schedule_at(base + rng.random() * 0.02, executed.append, index)
        cancelled = set(rng.sample(sorted(handles), 15))
        for index in cancelled:
            handles[index].cancel()
        drain(runtime)
        assert set(executed) == set(handles) - cancelled

    def test_cancel_from_within_a_callback(self, runtime):
        # A callback cancelling a later-scheduled peer: the peer must not run.
        base = runtime.now + HORIZON
        executed = []
        victim = runtime.schedule_at(base + 0.02, executed.append, "victim")
        runtime.schedule_at(base, lambda: victim.cancel())
        runtime.schedule_at(base + 0.02, executed.append, "survivor")
        drain(runtime)
        assert executed == ["survivor"]

    def test_double_cancel_is_idempotent(self, runtime):
        handle = runtime.schedule(HORIZON, lambda: pytest.fail("cancelled callback ran"))
        handle.cancel()
        handle.cancel()
        drain(runtime)


class TestScheduledCallHandle:
    """What callers read from, and do with, the handle ``schedule`` returns."""

    def test_fields_stay_readable(self, runtime):
        due = runtime.now + HORIZON
        handle = runtime.schedule_at(due, print, "a", 2)
        assert (handle.time, handle.callback, handle.args, handle.cancelled) == (due, print, ("a", 2), False)
        handle.cancel()
        assert handle.cancelled and handle.time == due
        drain(runtime)

    def test_a_cancelled_entry_is_not_an_executed_event(self, runtime):
        executed = []
        kept = runtime.schedule(HORIZON, executed.append, "kept")
        dropped = runtime.schedule(HORIZON, executed.append, "dropped")
        dropped.cancel()
        before = runtime.executed_events
        drain(runtime)
        assert executed == ["kept"]
        assert runtime.executed_events == before + 1
        assert not kept.cancelled

    def test_cancel_after_the_callback_ran_is_a_no_op(self, runtime):
        executed = []
        handle = runtime.schedule(HORIZON, executed.append, "ran")
        drain(runtime)
        events = runtime.executed_events
        handle.cancel()
        handle.cancel()
        drain(runtime)
        assert executed == ["ran"]
        assert runtime.executed_events == events

    @pytest.mark.parametrize("seed", [6, 7])
    def test_entries_sharing_a_time_order_by_sequence_never_by_callback(self, runtime, seed):
        # Functions do not support "<": if the queue's ordering ever fell
        # through to the callback (or the handle), pushing the second entry
        # for one time would raise TypeError.
        rng = random.Random(seed)
        due = runtime.now + HORIZON
        executed = []
        handles = [runtime.schedule_at(due, (lambda i=i: executed.append(i))) for i in range(12)]
        for victim in rng.sample(range(12), 4):
            handles[victim].cancel()  # a cancelled entry must not disturb the order either
        drain(runtime)
        assert executed == [i for i in range(12) if not handles[i].cancelled]


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


def _from_thread(fn):
    """Run *fn* on a foreign thread a few ms from now; returns the started thread."""
    thread = threading.Thread(target=lambda: (time.sleep(0.005), fn()))
    thread.start()
    return thread


class TestThreadSafeScheduling:
    """Realtime-only: the post seam a socket reader thread would use."""

    def test_foreign_schedule_wakes_a_sleeping_drive_loop(self, realtime):
        # The owner sleeps toward a far horizon on an empty queue; the posted
        # callback must run on the owner thread now, not at the horizon.
        ran = []
        start = realtime.now
        thread = _from_thread(
            lambda: realtime.schedule(0.0, lambda: ran.append((realtime.now - start, threading.get_ident())))
        )
        realtime.run(until=start + 0.5)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(ran) == 1
        assert ran[0][0] < 0.25, f"posted callback waited for the horizon: ran at +{ran[0][0]:.3f}s"
        assert ran[0][1] == threading.get_ident()

    def test_foreign_schedule_interrupts_the_wait_for_a_far_timer(self, realtime):
        order = []
        start = realtime.now
        realtime.schedule_at(start + 0.3, order.append, "far")
        thread = _from_thread(lambda: realtime.schedule(0.0, order.append, "posted"))
        realtime.run(until=start + 0.1)
        thread.join(timeout=5.0)
        assert order == ["posted"]
        realtime.run(until=start + 0.35)
        assert order == ["posted", "far"]

    def test_foreign_cancel_before_the_deadline_prevents_the_callback(self, realtime):
        start = realtime.now
        handles = []
        poster = _from_thread(
            lambda: handles.append(realtime.schedule(0.1, lambda: pytest.fail("cancelled callback ran")))
        )
        realtime.run(until=start + 0.03)
        poster.join(timeout=5.0)
        owner_handle = realtime.schedule(0.05, lambda: pytest.fail("cancelled callback ran"))
        canceller = _from_thread(lambda: (handles[0].cancel(), owner_handle.cancel()))
        realtime.run(until=start + 0.2)
        canceller.join(timeout=5.0)
        assert not poster.is_alive() and not canceller.is_alive()
        assert realtime.close() == {"processes_leaked": 0, "timers_pending": 0}

    def test_only_the_owner_thread_may_drive(self, realtime):
        errors = []

        def drive():
            try:
                realtime.run(until=realtime.now + 0.01)
            except SimulationError as exc:
                errors.append(exc)

        thread = threading.Thread(target=drive)
        thread.start()
        thread.join(timeout=5.0)
        assert len(errors) == 1 and "owner thread" in str(errors[0])

    def test_a_closed_runtime_cannot_be_driven(self):
        rt = RuntimeConfig(mode="realtime").create()
        rt.schedule(10.0, lambda: None)
        assert rt.close() == {"processes_leaked": 0, "timers_pending": 1}
        assert rt.close() == {"processes_leaked": 0, "timers_pending": 0}
        with pytest.raises(SimulationError, match="closed"):
            rt.run(until=rt.now + 0.01)
        with pytest.raises(SimulationError, match="closed"):
            rt.run_until(rt.event("never"))


class TestThreadSafeCompletion:
    """Realtime-only: futures completed off-thread must marshal safely."""

    def test_off_thread_succeed_completes_the_future(self):
        rt = RuntimeConfig(mode="realtime").create()
        try:
            future = rt.event("cross-thread")
            fired = []
            future.add_done_callback(lambda f: fired.append(f.result))
            thread = threading.Thread(target=lambda: future.succeed("from-thread"))
            thread.start()
            assert rt.run_until(future, limit=rt.now + 5.0) == "from-thread"
            thread.join()
            rt.run(until=rt.now + 0.01)  # let the marshalled callback land
            assert fired == ["from-thread"]
        finally:
            rt.close()

    def test_a_callback_added_off_thread_to_a_done_future_runs_on_the_owner_thread(self, realtime):
        """Done-callbacks run on the owner thread, even one a foreign thread adds after completion."""
        future = realtime.event("done")
        future.succeed("owner")
        ran = []
        adder = _from_thread(lambda: future.add_done_callback(lambda f: ran.append((f.result, threading.get_ident()))))
        adder.join(timeout=5.0)
        assert not adder.is_alive() and ran == []
        realtime.run(until=realtime.now + 0.01)
        assert ran == [("owner", threading.get_ident())]

    def test_racing_completions_complete_exactly_once(self):
        rt = RuntimeConfig(mode="realtime").create()
        try:
            future = rt.event("race")
            losers = []

            def complete(value):
                try:
                    future.succeed(value)
                except SimulationError:
                    losers.append(value)

            threads = [threading.Thread(target=complete, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert future.done
            assert len(losers) == 3
            assert future.result not in losers
        finally:
            rt.close()


class TestSimulatorDeterminismUnderTheSharedInterface:
    """The simulated path stays bit-for-bit: same program, same fingerprint."""

    def test_identical_runs_produce_identical_event_counts(self):
        def program(sim: Simulator) -> int:
            lane = sim.lane("cpu")
            order = []
            for index in range(20):
                lane.submit(1e-4, lambda i=index: order.append(i))
            handle = sim.schedule(0.5, order.append, "tail")
            handle.cancel()
            sim.run()
            assert order == list(range(20))
            return sim.executed_events

        assert program(Simulator()) == program(Simulator())
