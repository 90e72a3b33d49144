"""Wall-clock runtime: the simulator's event kernel paced by the monotonic clock.

:class:`RealtimeRuntime` subclasses :class:`~repro.net.simulator.Simulator`
and inherits the kernel — the heap of ``(time, seq, callback, args)`` entries
with FIFO tie-breaking, futures, watermark lanes, generator processes,
``timeout`` / ``all_of``, the stuck-future diagnosis.  It overrides what the
clock changes:

* ``now`` is scaled ``time.monotonic()``, so it moves between any two statements;
* ``schedule`` / ``schedule_at`` clamp a just-passed deadline to "now" instead
  of raising (a NaN deadline is still refused);
* the drive loop behind ``run`` / ``run_until`` *waits* for the head's deadline
  instead of jumping to it — asleep while it is far, spinning on the clock
  below the OS timer's resolution.

Like the simulator it is one thread: everything executes on the thread that
drives it, and independent lanes overlap in *time* (watermark arithmetic on
the wall clock), not in execution.  Timings differ from the simulator's, which
is why the differential harness (``tests/equivalence.py``) compares observable
outcomes only.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Callable, Generator, Optional

from ..core.errors import SimulationError
from ..net.simulator import Future, Simulator

#: Wall seconds before a deadline at which the drive loop stops sleeping and
#: spins on the clock: a timed wait overshoots by about this much.
_SPIN_BELOW = 2e-4


class RealtimeRuntime(Simulator):
    """The simulator's kernel on the wall clock (see the module docstring).

    Driven by :meth:`run` / :meth:`run_until` exactly how the simulator is
    driven: a callback that raises propagates out of the drive call at that
    callback, and the next drive call carries on.  Call :meth:`close` when
    done; it reports what was still outstanding.
    """

    def __init__(self, *, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise SimulationError(f"time_scale must be > 0, got {time_scale}")
        super().__init__()
        self._scale = time_scale
        self._origin = time.monotonic()
        self._processes: set = set()
        self._closed = False

    @property
    def now(self) -> float:
        """Runtime seconds: scaled monotonic wall time since construction."""
        return (time.monotonic() - self._origin) / self._scale

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` *delay* runtime seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past or at NaN (delay={delay})")
        heapq.heappush(self._queue, (self.now + delay, next(self._sequence), callback, args))

    def schedule_at(self, time_: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at absolute runtime time *time_*.

        A time already past is clamped to "now", not refused as the simulator
        does: the wall clock moves between computing a deadline and this call.
        A NaN time is refused — ``max`` would keep it and break heap order.
        """
        if math.isnan(time_):
            raise SimulationError(f"cannot schedule at NaN (time={time_})")
        heapq.heappush(self._queue, (max(time_, self.now), next(self._sequence), callback, args))

    def process(self, generator: Generator, name: str = "") -> Future:
        """Spawn a generator-based process, tracked for :meth:`close`'s leak report."""
        future = super().process(generator, name=name)
        self._processes.add(future)
        future.add_done_callback(self._processes.discard)
        return future

    # -- driving ----------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute callbacks as they fall due, up to runtime time *until*.

        Without *until*, runs until the queue is empty; with periodic work
        armed (heartbeats), use ``run(until=...)`` exactly as with the simulator.
        """
        self._drive(None, math.inf if until is None else until)
        return self.now

    def run_until(self, future: Future, limit: float = 1e9) -> Any:
        """Drive until *future* completes; returns its result.

        Raises the simulator's :class:`~repro.core.errors.StuckFutureError`
        when it cannot: ``limit-exceeded`` once the clock reached *limit* with
        nothing due, ``queue-drained`` at once when the queue is empty.
        """
        reason = self._drive(future, limit)
        if reason is not None:
            raise self._stuck(future, reason=reason, limit=limit if reason == "limit-exceeded" else None)
        return future.result

    def _drive(self, future: Optional[Future], horizon: float) -> Optional[str]:
        """The one drive loop: each pass runs one due callback, stops, or waits.

        *horizon* bounds the waiting, not the running: whatever is already due
        runs, however far the clock overshot; what falls due later stays queued.
        Returns ``None`` once *future* is done, else why the loop stopped: the
        queue is empty (on one thread nothing else can fill it; ``run(until=...)``
        waits its horizon out, as the simulator's clock jumps to it), or nothing
        was due and the clock had reached *horizon*.
        """
        if self._closed:
            raise SimulationError("runtime is closed")
        queue = self._queue
        while future is None or not future.done:
            now = self.now
            if queue:
                if queue[0][0] <= now:
                    _, _, callback, args = heapq.heappop(queue)
                    self.executed_events += 1
                    callback(*args)
                    continue
                wake_at = min(horizon, queue[0][0])
            elif future is not None or horizon == math.inf:
                return "queue-drained"
            else:
                wake_at = horizon
            if now >= horizon:
                return "limit-exceeded"
            asleep = (wake_at - now) * self._scale - _SPIN_BELOW
            if asleep > 0:
                time.sleep(asleep)
        return None

    def close(self) -> dict:
        """Refuse further drive calls; report processes that never finished and
        timers that never fired (all zeros after a clean quiesce)."""
        if self._closed:
            return {"processes_leaked": 0, "timers_pending": 0}
        self._closed = True
        return {"processes_leaked": len(self._processes), "timers_pending": len(self._queue)}


__all__ = ["RealtimeRuntime"]
