"""The runtime scheduling interface every OpenMB component programs against.

Everything in this repository — controller shards, control channels,
southbound agents, middleboxes, traffic drivers, control applications —
schedules work exclusively through the small surface documented here.  Two
implementations exist:

* :class:`~repro.net.simulator.Simulator` — the deterministic discrete-event
  kernel.  The default, and the only runtime the golden/chaos test matrices
  run on: the same seed always produces the same callback schedule, bit for
  bit.
* :class:`~repro.runtime.realtime.RealtimeRuntime` — the same kernel under a
  second clock: ``now`` is the scaled monotonic clock, the drive loop waits for
  each deadline instead of jumping to it, and ``schedule`` / future completion
  are safe to call from other threads.  Lanes, processes and the event heap
  are the simulator's own.  This is the runtime the ``bench_wallclock_*``
  family measures real ops/sec and latency percentiles on.

The contract, precisely:

``now``
    Current runtime time in seconds (simulated time, or scaled monotonic
    wall-clock time since runtime construction).
``schedule(delay, callback, *args)`` / ``schedule_at(time, callback, *args)``
    Run a callback later; both return a handle with ``cancel()``.  Callbacks
    scheduled for the same time run in scheduling order (FIFO tie-breaking).
``event(name)`` / ``timeout(delay, result)``
    Create a pending / delay-completed :class:`~repro.net.simulator.Future`.
``process(generator, name)``
    Drive a generator that yields delays / futures / lists of futures.
``lane(name)``
    A serialisation point executing submitted work strictly one item at a
    time (``submit(cost, work)``, ``reserve(cost)``, ``dispatch_at(time,
    cb, *args)``, ``idle_at``).
``run(until)`` / ``run_until(future, limit)``
    Drive the runtime; ``run_until`` raises
    :class:`~repro.core.errors.StuckFutureError` when the future can never
    complete.
``pending_events`` / ``executed_events``
    Scheduling introspection (drive loops and determinism fingerprints).

The differential harness (:mod:`repro.testing.equivalence`) runs identical
scenarios on both implementations and asserts identical *observable*
outcomes — final state maps, per-guarantee invariants, operation outcomes —
which is the contract's enforcement mechanism: timings may differ between
runtimes, observables may not.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Generator


class Runtime(ABC):
    """Abstract base for the scheduling interface (see module docstring).

    :class:`~repro.net.simulator.Simulator` is registered as a virtual
    subclass (it predates this module and must not import it), so
    ``isinstance(sim, Runtime)`` holds for both implementations.
    """

    @property
    @abstractmethod
    def now(self) -> float:
        """Current runtime time in seconds."""

    @abstractmethod
    def schedule(self, delay: float, callback: Callable, *args: Any):
        """Run ``callback(*args)`` *delay* seconds from now; returns a cancellable handle."""

    @abstractmethod
    def schedule_at(self, time: float, callback: Callable, *args: Any):
        """Run ``callback(*args)`` at absolute *time*; returns a cancellable handle."""

    @abstractmethod
    def event(self, name: str = ""):
        """Create a pending future bound to this runtime."""

    @abstractmethod
    def timeout(self, delay: float, result: Any = None):
        """A future that completes with *result* after *delay* seconds."""

    @abstractmethod
    def process(self, generator: Generator, name: str = ""):
        """Drive a generator-based process; returns a future for its return value."""

    @abstractmethod
    def lane(self, name: str = ""):
        """A new serialisation lane (CPU / wire direction) on this runtime."""

    @abstractmethod
    def run(self, until: float | None = None) -> float:
        """Drive the runtime (to *until*, or to quiescence); returns the final time."""

    @abstractmethod
    def run_until(self, future, limit: float = 1e9) -> Any:
        """Drive the runtime until *future* completes; returns its result."""

    @property
    @abstractmethod
    def pending_events(self) -> int:
        """Scheduled-but-unexecuted work items (drive-loop quiescence probe)."""


def _register_simulator() -> None:
    """Register :class:`Simulator` as a virtual :class:`Runtime` subclass."""
    from ..net.simulator import Simulator

    Runtime.register(Simulator)


_register_simulator()

__all__ = ["Runtime"]
