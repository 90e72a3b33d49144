"""Wall-clock runtime: the simulator's event kernel paced by the monotonic clock.

:class:`RealtimeRuntime` subclasses :class:`~repro.net.simulator.Simulator`
and inherits the kernel — the ``(time, seq)`` heap with FIFO tie-breaking,
cancellable handles, watermark lanes, generator processes, ``timeout`` /
``all_of``, the stuck-future diagnosis.  It overrides what the clock changes:

* ``now`` is scaled ``time.monotonic()``, so it moves between any two statements;
* ``schedule`` / ``schedule_at`` clamp a just-passed deadline to "now" instead
  of raising, and may be called from **any thread**: a foreign thread's entry
  is posted to the owner thread, which puts it on the heap;
* ``event`` hands out :class:`RealtimeFuture`: completion is thread-safe and
  done-callbacks always run on the owner thread;
* the drive loop behind ``run`` / ``run_until`` *waits* for the head's deadline
  instead of jumping to it — asleep while it is far, spinning on the clock
  below the OS timer's resolution — and wakes early when a foreign thread posts.

Everything executes on the thread that constructed the runtime: independent
lanes overlap in *time* (watermark arithmetic on the wall clock), not in
execution.  Timings differ from the simulator's, which is why the differential
harness (``tests/equivalence.py``) compares observable outcomes only.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from ..core.errors import SimulationError
from ..net.simulator import Future, ScheduledCall, Simulator

#: Wall seconds before a deadline at which the drive loop stops sleeping and
#: spins on the clock: a timed wait overshoots by about this much.
_SPIN_BELOW = 2e-4
#: Wall seconds an empty queue is given before the drive loop calls it
#: quiescent — in that window only a foreign thread could still post work.
_IDLE_GRACE = 5e-3


class RealtimeFuture(Future):
    """A :class:`~repro.net.simulator.Future` with thread-safe completion.

    Completion may race between threads: the state transition happens under a
    lock exactly once, and a foreign completing thread posts the done-callbacks
    to the owner thread, so they always observe runtime state from there.
    """

    def __init__(self, runtime: "RealtimeRuntime", name: str = "") -> None:
        super().__init__(runtime, name=name)
        self._lock = threading.RLock()

    def _finish(self, result: Any, exception: Optional[BaseException]) -> None:
        with self._lock:
            if self._done:
                raise SimulationError(f"future {self.name or id(self)} completed twice")
            self._done = True
            self._result = result
            self._exception = exception
            callbacks, self._callbacks = self._callbacks, []

        def fire() -> None:
            for callback in callbacks:
                callback(self)

        if self.sim._on_owner_thread():
            fire()
        else:
            self.sim.schedule(0.0, fire)

    def add_done_callback(self, callback: Callable[[Future], None]) -> None:
        """Register *callback* (thread-safe); if already done it runs at once on the owner thread, or is posted there."""
        with self._lock:
            if not self._done:
                self._callbacks.append(callback)
                return
        if self.sim._on_owner_thread():
            callback(self)
        else:
            self.sim.schedule(0.0, callback, self)


class RealtimeRuntime(Simulator):
    """The simulator's kernel on the wall clock (see the module docstring).

    Driven from the constructing thread by :meth:`run` / :meth:`run_until`,
    exactly how the simulator is driven: a callback that raises propagates out
    of the drive call at that callback, and the next drive call carries on.
    Call :meth:`close` when done; it reports what was still outstanding.
    """

    def __init__(self, *, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise SimulationError(f"time_scale must be > 0, got {time_scale}")
        super().__init__()
        self._scale = time_scale
        self._origin = time.monotonic()
        self._owner_thread = threading.get_ident()
        #: Entries scheduled by foreign threads, not yet in the heap.
        self._posted: Deque[ScheduledCall] = deque()
        self._wake = threading.Event()
        self._processes: set = set()
        self._closed = False

    @property
    def now(self) -> float:
        """Runtime seconds: scaled monotonic wall time since construction."""
        return (time.monotonic() - self._origin) / self._scale

    def _on_owner_thread(self) -> bool:
        return threading.get_ident() == self._owner_thread

    def schedule(self, delay: float, callback: Callable, *args: Any) -> ScheduledCall:
        """Run ``callback(*args)`` *delay* runtime seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._push(ScheduledCall(self.now + delay, callback, args))

    def schedule_at(self, time_: float, callback: Callable, *args: Any) -> ScheduledCall:
        """Run ``callback(*args)`` at absolute runtime time *time_*.

        A time already past is clamped to "now", not refused as the simulator
        does: the wall clock moves between computing a deadline and this call.
        """
        return self._push(ScheduledCall(max(time_, self.now), callback, args))

    def _push(self, entry: ScheduledCall) -> ScheduledCall:
        if self._on_owner_thread():
            heapq.heappush(self._queue, (entry.time, next(self._sequence), entry))
        else:
            self._posted.append(entry)
            self._wake.set()
        return entry

    def event(self, name: str = "") -> RealtimeFuture:
        """Create a pending thread-safe future bound to this runtime."""
        return RealtimeFuture(self, name=name)

    def process(self, generator: Generator, name: str = "") -> Future:
        """Spawn a generator-based process, tracked for :meth:`close`'s leak report."""
        future = super().process(generator, name=name)
        self._processes.add(future)
        future.add_done_callback(self._processes.discard)
        return future

    # -- driving ----------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute callbacks as they fall due, up to runtime time *until*.

        Without *until*, runs to quiescence: the queue is empty and stayed
        empty for the idle grace.  With periodic work armed (heartbeats),
        prefer ``run(until=...)`` exactly as with the simulator.
        """
        self._drive(None, math.inf if until is None else until)
        return self.now

    def run_until(self, future: Future, limit: float = 1e9) -> Any:
        """Drive until *future* completes; returns its result.

        Raises the simulator's :class:`~repro.core.errors.StuckFutureError`
        when it cannot: ``limit-exceeded`` once the clock reached *limit* with
        nothing due, ``queue-drained`` once the queue sat empty for the idle grace.
        """
        reason = self._drive(future, limit)
        if reason is not None:
            raise self._stuck(future, reason=reason, limit=limit if reason == "limit-exceeded" else None)
        return future.result

    def _drive(self, future: Optional[Future], horizon: float) -> Optional[str]:
        """The one drive loop: each pass runs one due callback, stops, or waits.

        *horizon* bounds the waiting, not the running: whatever is already due
        runs, however far the clock overshot; what falls due later stays queued.
        Returns ``None`` once *future* is done, else why the loop stopped:
        nothing was due and the clock had reached *horizon*, or the queue sat
        empty for the idle grace (``run(until=...)`` waits its horizon out).
        """
        if self._closed:
            raise SimulationError("runtime is closed")
        if not self._on_owner_thread():
            raise SimulationError("the realtime runtime must be driven from its owner thread")
        queue, posted = self._queue, self._posted
        idle_until: Optional[float] = None
        while future is None or not future.done:
            while posted:
                entry = posted.popleft()
                heapq.heappush(queue, (entry.time, next(self._sequence), entry))
            while queue and queue[0][2].cancelled:
                heapq.heappop(queue)
            now = self.now
            wake_at = horizon
            if queue:
                idle_until = None
                if queue[0][0] <= now:
                    entry = heapq.heappop(queue)[2]
                    self.executed_events += 1
                    entry.callback(*entry.args)
                    continue
                wake_at = min(wake_at, queue[0][0])
            elif future is not None or horizon == math.inf:
                if idle_until is None:
                    idle_until = now + _IDLE_GRACE / self._scale
                if now >= idle_until:
                    return "queue-drained"
                wake_at = min(wake_at, idle_until)
            if now >= horizon:
                return "limit-exceeded"
            asleep = (wake_at - now) * self._scale - _SPIN_BELOW
            if asleep > 0:
                self._wake.clear()
                if not posted:  # else: posted between the drain above and the clear
                    self._wake.wait(asleep)
        return None

    def close(self) -> dict:
        """Refuse further drive calls; report processes that never finished
        and timers that never fired (all zeros after a clean quiesce — the
        soak test's shutdown assertion)."""
        if self._closed:
            return {"processes_leaked": 0, "timers_pending": 0}
        self._closed = True
        pending = [entry for _, _, entry in self._queue] + list(self._posted)
        return {
            "processes_leaked": len(self._processes),
            "timers_pending": sum(1 for entry in pending if not entry.cancelled),
        }


__all__ = ["RealtimeFuture", "RealtimeRuntime"]
