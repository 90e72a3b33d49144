"""Runtime package: the scheduling interface and its two implementations.

* :class:`Runtime` — the abstract contract (see :mod:`repro.runtime.interface`).
* :class:`~repro.net.simulator.Simulator` — deterministic discrete-event
  kernel (lives in :mod:`repro.net`; registered as a virtual subclass).
* :class:`RealtimeRuntime` — that kernel paced by the monotonic wall clock.
* :class:`RuntimeConfig` / :func:`create_runtime` — the selection knob.
* :mod:`repro.runtime.arq` — sequenced reliable delivery and seeded fault
  plans, written against this interface only; control channels and link
  protection both run on it.
"""

from .config import RUNTIME_MODES, RuntimeConfig, create_runtime
from .interface import Runtime
from .realtime import RealtimeFuture, RealtimeRuntime

__all__ = [
    "RUNTIME_MODES",
    "RealtimeFuture",
    "RealtimeRuntime",
    "Runtime",
    "RuntimeConfig",
    "create_runtime",
]
