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
import threading
import time

import pytest

from repro.core.errors import SimulationError, StuckFutureError
from repro.net.simulator import Simulator
from repro.runtime import RealtimeRuntime, RuntimeConfig

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

    def test_a_foreign_entry_keeps_its_args_and_a_past_deadline_is_clamped(self, realtime):
        ran = []
        start = realtime.now
        thread = _from_thread(lambda: realtime.schedule_at(start - 1.0, lambda *args: ran.append(args), "x", 1))
        realtime.run(until=start + 0.1)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert ran == [("x", 1)]

    def test_a_foreign_thread_cannot_post_a_nan_deadline(self, realtime):
        errors = []

        def post():
            try:
                realtime.schedule_at(float("nan"), lambda: None)
            except SimulationError as exc:
                errors.append(exc)

        thread = _from_thread(post)
        thread.join(timeout=5.0)
        assert not thread.is_alive() and len(errors) == 1
        assert realtime.close() == {"processes_leaked": 0, "timers_pending": 0}

    def test_close_counts_entries_a_foreign_thread_posted_but_no_drive_took(self, realtime):
        realtime.schedule(10.0, lambda: None)
        poster = _from_thread(lambda: realtime.schedule(10.0, lambda: None))
        poster.join(timeout=5.0)
        assert not poster.is_alive()
        assert realtime.close() == {"processes_leaked": 0, "timers_pending": 2}

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
            sim.schedule(0.5, order.append, "tail")
            sim.run()
            assert order == [*range(20), "tail"]
            return sim.executed_events

        assert program(Simulator()) == program(Simulator())
