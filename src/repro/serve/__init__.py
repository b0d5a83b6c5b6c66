"""repro.serve: the resilient concurrent serving layer.

Fronts the compiler/runtime stack with a thread-based execution
service: bounded admission with priority lanes and load shedding,
end-to-end request deadlines, resident programs
(``Server.load`` returns a :class:`ProgramHandle` a request names)
over a single-flight compile cache, and one serving path: every
request is one call on a
:class:`repro.sched.DevicePool` (by default a pool of one), whose
plan is *try the device, else interpret* (``jit → interp``), with a
circuit breaker per device (see :func:`repro.runtime.run_resilient`).
See :mod:`repro.serve.server` for the full tour.

The building blocks (:class:`Deadline`, :class:`CircuitBreaker`,
:class:`AdmissionQueue`, :class:`CompileCache`) are importable eagerly
and dependency-free; :class:`Server` itself is loaded lazily because
it pulls in the whole compiler/runtime stack (which in turn imports
:mod:`repro.serve.deadline`).
"""

from __future__ import annotations

from .breaker import BreakerState, CircuitBreaker
from .cache import CacheStats, CompileCache
from .deadline import Deadline
from .queue import BATCH_LANE, INTERACTIVE_LANE, AdmissionQueue

__all__ = [
    "AdmissionQueue",
    "BATCH_LANE",
    "BreakerState",
    "CacheStats",
    "CircuitBreaker",
    "CompileCache",
    "Deadline",
    "INTERACTIVE_LANE",
    "ProgramHandle",
    "ResultHandle",
    "Server",
    "ServeRequest",
    "ServeResult",
]

_SERVER_SYMBOLS = (
    "ProgramHandle",
    "Server",
    "ServeRequest",
    "ServeResult",
    "ResultHandle",
)


def __getattr__(name: str):
    if name in _SERVER_SYMBOLS:
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
