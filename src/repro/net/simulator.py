"""Discrete-event simulation kernel.

Every component of the reproduction — switches, links, middleboxes, the MB
controller, control applications, traffic replay — runs on a single simulated
clock provided by :class:`Simulator`.  The kernel supplies:

* time-ordered callback scheduling (:meth:`Simulator.schedule`);
* :class:`Future` — a one-shot completion token with callbacks, used for
  operation handles returned by the northbound API;
* generator-based processes (:meth:`Simulator.process`) so control
  applications can be written as straight-line sequences of steps that
  ``yield`` the futures or delays they wait on.

The simulated clock is what makes the paper's race conditions reproducible:
packets in flight when a routing update lands, re-process events racing puts,
and quiescence timers all happen at explicit simulated times.

:class:`Simulator` is also the **reference implementation of the runtime
scheduling interface** (see :mod:`repro.runtime`): every component schedules
exclusively through ``now`` / ``schedule`` / ``schedule_at`` / ``event`` /
``timeout`` / ``process`` / ``lane`` / ``run`` / ``run_until``, so the same
controller, channels, and middleboxes run unchanged on the wall-clock
:class:`~repro.runtime.RealtimeRuntime` — a subclass that keeps this kernel
and replaces only the clock and the wait.  Both run on one thread.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from ..core.errors import SimulationError, StuckFutureError


class Future:
    """A one-shot completion token tied to a simulator.

    A future is *pending* until :meth:`succeed` or :meth:`fail` is called
    exactly once; callbacks registered with :meth:`add_done_callback` run at
    the simulated time of completion.
    """

    __slots__ = ("sim", "_done", "_result", "_exception", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._done = False
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def result(self) -> Any:
        """Result of the future; raises the stored exception for failed futures."""
        if not self._done:
            raise SimulationError(f"future {self.name or id(self)} is not complete")
        if self._exception is not None:
            raise self._exception
        return self._result

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def succeed(self, result: Any = None) -> None:
        """Complete the future successfully."""
        self._finish(result, None)

    def fail(self, exception: BaseException) -> None:
        """Complete the future with an exception."""
        self._finish(None, exception)

    def _finish(self, result: Any, exception: Optional[BaseException]) -> None:
        if self._done:
            raise SimulationError(f"future {self.name or id(self)} completed twice")
        self._done = True
        self._result = result
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self, callback: Callable[["Future"], None]) -> None:
        """Register *callback*; it runs immediately if the future is already done."""
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        return f"<Future {self.name or hex(id(self))} {state}>"


def all_of(sim: "Simulator", futures: Iterable[Future]) -> Future:
    """Return a future that completes when every future in *futures* is done.

    The result is the list of individual results in input order; the first
    failure fails the combined future.
    """
    futures = list(futures)
    combined = sim.event("all_of")
    if not futures:
        combined.succeed([])
        return combined
    remaining = {"count": len(futures)}

    def on_done(_future: Future) -> None:
        if combined.done:
            return
        if _future.exception is not None:
            combined.fail(_future.exception)
            return
        remaining["count"] -= 1
        if remaining["count"] == 0:
            combined.succeed([future._result for future in futures])

    for future in futures:
        future.add_done_callback(on_done)
    return combined


class SimulatedLane:
    """A serialisation point (a CPU or a wire direction) on the simulated clock.

    A lane models one resource that handles work strictly one item at a time:
    a controller shard's CPU, or one direction of a control channel.  On the
    simulator this is plain tick arithmetic over a ``free_at`` watermark —
    exactly the pattern the seed embedded in :class:`ControllerShard` and
    :class:`ControlChannel` — so routing those components through lanes keeps
    the simulated schedule bit-for-bit identical.  The
    :class:`~repro.runtime.RealtimeRuntime` inherits this class unchanged:
    the same arithmetic on the wall clock, so independent lanes overlap in
    time while the one kernel thread executes their work.
    """

    __slots__ = ("sim", "name", "_free_at", "dispatch_at")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._free_at = 0.0
        #: ``dispatch_at(time, callback, *args)``: deliver at absolute *time*,
        #: in time order, equal times in dispatch order — which is the kernel's
        #: ``schedule_at`` itself, bound once.
        self.dispatch_at = sim.schedule_at

    def reserve(self, cost: float) -> float:
        """Claim *cost* seconds of this lane's serialised time; returns the finish time."""
        now, free_at = self.sim.now, self._free_at
        self._free_at = finish = (now if now > free_at else free_at) + cost
        return finish

    def submit(self, cost: float, work: Callable, *args: Any) -> float:
        """Run ``work(*args)`` after *cost* seconds of this lane's serialised time."""
        finish = self.reserve(cost)
        self.sim.schedule_at(finish, work, *args)
        return finish

    @property
    def idle_at(self) -> float:
        """Earliest time at which this lane's queue is (projected to be) empty."""
        return max(self.sim.now, self._free_at)


class _Process:
    """Driver for a generator-based simulation process.

    The generator may yield:

    * a ``float``/``int`` — sleep for that many simulated seconds;
    * a :class:`Future` — wait for it; the future's result is sent back in;
    * a list/tuple of futures — wait for all of them;
    * ``None`` — continue on the next scheduling round (yield to other events).
    """

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        self.sim = sim
        self.generator = generator
        self.future = sim.event(name or getattr(generator, "__name__", "process"))
        sim.schedule(0.0, self._step, None, None)

    def _step(self, value: Any, exception: Optional[BaseException]) -> None:
        try:
            if exception is not None:
                yielded = self.generator.throw(exception)
            else:
                yielded = self.generator.send(value)
        except StopIteration as stop:
            self.future.succeed(stop.value)
            return
        except BaseException as exc:  # propagate process failure to waiters
            self.future.fail(exc)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if yielded is None:
            self.sim.schedule(0.0, self._step, None, None)
        elif isinstance(yielded, (int, float)):
            self.sim.schedule(float(yielded), self._step, None, None)
        elif isinstance(yielded, Future):
            yielded.add_done_callback(self._on_future)
        elif isinstance(yielded, (list, tuple)):
            all_of(self.sim, yielded).add_done_callback(self._on_future)
        else:
            self._step(None, SimulationError(f"process yielded unsupported value {yielded!r}"))

    def _on_future(self, future: Future) -> None:
        # Resume on the simulator queue so process steps never nest inside the
        # completion of another component's callback.
        if future.exception is not None:
            self.sim.schedule(0.0, self._step, None, future.exception)
        else:
            self.sim.schedule(0.0, self._step, future._result, None)


class Simulator:
    """A deterministic discrete-event simulator."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Callable, tuple]] = []
        self._sequence = itertools.count()
        #: Number of callbacks executed so far (useful for determinism checks).
        self.executed_events = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` *delay* simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated *time*.

        The queue entry is the tuple ``(time, seq, callback, args)``: ``seq``
        is unique, so the heap orders equal times by scheduling order and
        never compares a callback.  A time in the past, or NaN, is refused.
        """
        if not time >= self._now:
            raise SimulationError(f"cannot schedule into the past or at NaN (time={time}, now={self._now})")
        heapq.heappush(self._queue, (time, next(self._sequence), callback, args))

    def lane(self, name: str = "") -> SimulatedLane:
        """A new serialisation lane (CPU / wire direction) on this clock."""
        return SimulatedLane(self, name=name)

    def event(self, name: str = "") -> Future:
        """Create a pending future bound to this simulator."""
        return Future(self, name=name)

    def timeout(self, delay: float, result: Any = None) -> Future:
        """Return a future that completes after *delay* simulated seconds."""
        future = self.event(f"timeout({delay})")
        self.schedule(delay, future.succeed, result)
        return future

    def process(self, generator: Generator, name: str = "") -> Future:
        """Spawn a generator-based process; returns a future for its return value."""
        return _Process(self, generator, name=name).future

    # -- execution -------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Process events in time order.

        With ``until`` set, execution stops once the next event would occur
        after that time (the clock is advanced to ``until``).  Without it, the
        simulator runs until the event queue is empty.  Returns the final
        simulated time.
        """
        queue, pop = self._queue, heapq.heappop
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = max(self._now, until)
                return self._now
            self._now, _, callback, args = pop(queue)
            self.executed_events += 1
            callback(*args)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_until(self, future: Future, limit: float = 1e9) -> Any:
        """Run until *future* completes (or *limit* simulated seconds elapse).

        Returns the future's result; raises if the future failed.  A run that
        cannot complete the future raises :class:`StuckFutureError` describing
        the wedge — the stuck future's name, how many done-callbacks were
        still waiting on it, and the event-queue depth — distinguishing an
        early queue drain (nothing left that could ever complete it) from a
        blown time *limit*.
        """
        queue, pop = self._queue, heapq.heappop
        while queue and not future._done:
            if queue[0][0] > limit:
                raise self._stuck(future, reason="limit-exceeded", limit=limit)
            self._now, _, callback, args = pop(queue)
            self.executed_events += 1
            callback(*args)
        if not future.done:
            raise self._stuck(future, reason="queue-drained")
        return future.result

    def _stuck(self, future: Future, *, reason: str, limit: Optional[float] = None) -> StuckFutureError:
        """Build the diagnostic error for a future ``run_until`` cannot finish."""
        name = future.name or f"0x{id(future):x}"
        waiters = len(future._callbacks)
        depth = self.pending_events
        now = self.now
        if reason == "limit-exceeded":
            detail = f"next event is past the limit t={limit}"
        else:
            detail = "the event queue drained"
        return StuckFutureError(
            f"future {name!r} stuck at t={now:.6f}: {detail} "
            f"(pending waiters={waiters}, queue depth={depth})",
            future_name=name,
            reason=reason,
            waiters=waiters,
            queue_depth=depth,
            at=now,
            limit=limit,
        )

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)
