"""Runtime selection: one knob choosing deterministic simulation or wall clock.

Everything that builds a controller stack takes a scheduler object; this
module decides which implementation that object is.  The default is — and
must remain — the deterministic :class:`~repro.net.simulator.Simulator`:
golden traces, the chaos matrix, and every regression fingerprint depend on
its bit-for-bit reproducibility.  The :class:`RealtimeRuntime` is opt-in,
for benchmarks and soak tests that need real ops/sec.

    runtime = RuntimeConfig(mode="realtime", time_scale=0.5).create()
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ValidationError

#: Valid values for :attr:`RuntimeConfig.mode`.
RUNTIME_MODES = ("simulated", "realtime")


@dataclass(frozen=True)
class RuntimeConfig:
    """Declarative choice of runtime implementation.

    ``mode``
        ``"simulated"`` (default; deterministic discrete-event kernel) or
        ``"realtime"`` (the same kernel paced by the monotonic wall clock).
    ``time_scale``
        Realtime only: wall seconds per runtime second.  ``0.5`` runs
        scenarios at double speed (half the wall time), ``2.0`` at half
        speed; ignored in simulated mode, where time is free.
    """

    mode: str = "simulated"
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in RUNTIME_MODES:
            raise ValidationError(
                f"unknown runtime mode {self.mode!r}; expected one of {RUNTIME_MODES}"
            )
        if self.time_scale <= 0:
            raise ValidationError(f"time_scale must be > 0, got {self.time_scale}")

    def create(self):
        """Instantiate the configured runtime."""
        if self.mode == "simulated":
            from ..net.simulator import Simulator

            return Simulator()
        from .realtime import RealtimeRuntime

        return RealtimeRuntime(time_scale=self.time_scale)


__all__ = ["RUNTIME_MODES", "RuntimeConfig"]
