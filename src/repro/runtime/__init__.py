"""Runtime package: one event kernel under two clocks.

* :class:`~repro.net.simulator.Simulator` — deterministic discrete-event
  kernel (lives in :mod:`repro.net`); the default.
* :class:`RealtimeRuntime` — that kernel paced by the monotonic wall clock,
  on one thread like the simulator.
* :class:`RuntimeConfig` — the selection knob.
* :mod:`repro.runtime.arq` — sequenced reliable delivery and seeded fault
  plans, written against ``now`` / ``schedule`` only; control channels and
  link protection both run on it.

The scheduling contract both clocks honour is stated in ``docs/runtime.md``.
"""

from .config import RUNTIME_MODES, RuntimeConfig
from .realtime import RealtimeRuntime

__all__ = [
    "RUNTIME_MODES",
    "RealtimeRuntime",
    "RuntimeConfig",
]
