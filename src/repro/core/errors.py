"""Exception hierarchy for the OpenMB framework.

All framework-specific failures derive from :class:`OpenMBError` so callers can
catch framework errors without also swallowing programming errors.
"""

from __future__ import annotations


class OpenMBError(Exception):
    """Base class for every error raised by the OpenMB framework."""


class StateError(OpenMBError):
    """A state operation failed (missing key, malformed chunk, bad scope)."""


class GranularityError(StateError):
    """A per-flow state request used a granularity finer than the MB maintains.

    The paper (section 4.1.2) requires such requests to return an error rather
    than silently returning partial matches.
    """


class ConfigError(OpenMBError):
    """A configuration-state operation referenced an unknown hierarchical key
    or supplied values the middlebox rejects."""


class SealError(OpenMBError):
    """A sealed (encrypted) state chunk failed authentication or decoding."""


class ProtocolError(OpenMBError):
    """A southbound message could not be encoded, decoded, or dispatched."""


class ValidationError(OpenMBError, ValueError):
    """A northbound argument could not be parsed or validated.

    Derives from :class:`ValueError` as well so callers that predate the typed
    hierarchy (``except ValueError``) keep working.
    """


class PatternError(ValidationError):
    """A HeaderFieldList / :class:`~repro.core.flowspace.FlowPattern` argument
    was malformed (unknown field name, bad IP or port value)."""


class SpecError(ValidationError):
    """A :class:`~repro.core.transfer.TransferSpec` argument was malformed
    (unknown guarantee string or an uninterpretable value)."""


class OperationError(OpenMBError):
    """A northbound operation (move/clone/merge) failed or was aborted."""


class OperationAbortedError(OperationError):
    """An in-flight operation was aborted (e.g. by a failing transaction)."""


class TransactionError(OperationError):
    """A northbound transaction was misused (re-commit, unknown step reference)."""


class TransactionAbortedError(OperationError):
    """A transaction step failed; the whole transaction was rolled back.

    ``step`` names the failing step and ``cause`` carries its original error.
    """

    def __init__(self, message: str, *, step: str = "", cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.step = step
        self.cause = cause


class MiddleboxError(OpenMBError):
    """A middlebox rejected an operation or encountered an internal failure."""


class UnknownMiddleboxError(OperationError):
    """A northbound call referenced a middlebox not registered with the controller."""


class InstanceDeadError(UnknownMiddleboxError):
    """A middlebox instance crashed (or missed its liveness deadline) mid-operation.

    Derives from :class:`UnknownMiddleboxError` so every existing
    unregistered-mid-operation handler — including the standby-retry path —
    treats a crash exactly like a disappearance."""


class NetworkError(OpenMBError):
    """The SDN substrate could not satisfy a routing request."""


class SimulationError(OpenMBError):
    """The discrete-event simulator was used incorrectly."""


class StuckFutureError(SimulationError):
    """``run_until`` could not drive its future to completion.

    Raised with a diagnosis of *why* the run wedged instead of a bare
    message: which future is stuck, how many done-callbacks are waiting on
    it, how deep the event queue was, and whether the runtime stopped because
    the queue drained (nothing left that could ever complete the future) or
    because the time ``limit`` was exceeded.  The structured fields mirror
    the rendered message so harnesses can assert on them.
    """

    def __init__(
        self,
        message: str,
        *,
        future_name: str = "",
        reason: str = "queue-drained",
        waiters: int = 0,
        queue_depth: int = 0,
        at: float = 0.0,
        limit: float | None = None,
    ) -> None:
        super().__init__(message)
        #: Name of the future that never completed (``Future.name``).
        self.future_name = future_name
        #: ``"queue-drained"`` or ``"limit-exceeded"``.
        self.reason = reason
        #: Done-callbacks still registered on the stuck future.
        self.waiters = waiters
        #: Events still queued when the run gave up.
        self.queue_depth = queue_depth
        #: Runtime time at which the run gave up.
        self.at = at
        #: The time limit that was exceeded (``None`` for queue drains).
        self.limit = limit
