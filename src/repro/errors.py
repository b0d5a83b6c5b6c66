"""The shared error taxonomy of the resilience layer.

Every failure the toolchain can produce is rooted at :class:`ReproError`
and classified by *who is at fault and what can be done about it*:

- :class:`CompilerBug` — an optimisation pass violated an internal
  invariant or produced ill-typed IR.  Carries the pass name, the
  pipeline phase and (when available) a pretty-print of the offending
  IR.  The pass guard in :mod:`repro.pipeline` catches these, rolls the
  IR back to the pre-pass state and keeps compiling.
- :class:`DeviceFault` — the (simulated) device failed a launch or
  corrupted a transfer.  ``transient`` faults are retryable; fatal ones
  are not and force the interpreter fallback.
- :class:`KernelTimeout` — a kernel exceeded its watchdog budget (the
  budget is derived from the cost model's estimate for that kernel).
  Treated as transient: the runaway condition may clear on retry.
- :class:`ArgumentError` — the *caller* misused a host API (wrong
  arity, bad option combination).  Never retried: retrying a usage
  error cannot help.
- :class:`ValidationError` — a result check failed (simulated device
  disagreed with the reference interpreter).  Unlike a bare ``assert``
  this survives ``python -O``.

The pre-existing hierarchies are grafted onto the same root:
``repro.interp.InterpError`` (dynamic semantic errors) and
``repro.checker.CheckError`` (static checking failures) both subclass
:class:`ReproError`, so ``except ReproError`` catches every
toolchain-originated failure while letting genuine Python bugs
(``TypeError`` et al.) propagate.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "CompilerBug",
    "DeviceFault",
    "DeviceOOM",
    "KernelTimeout",
    "ArgumentError",
    "ValidationError",
    "DeadlineExceeded",
    "ServiceOverloaded",
    "exit_code_for",
]


class ReproError(Exception):
    """Root of every failure originating in the repro toolchain."""


class CompilerBug(ReproError):
    """An optimisation pass broke an invariant or produced bad IR.

    Parameters
    ----------
    pass_name:
        The pass that misbehaved (``"fusion"``, ``"distribute"``, ...).
    phase:
        The pipeline phase the pass belongs to (``"simplify"``,
        ``"flatten"``, ``"memory"``, ``"backend"``, ...).
    message:
        What went wrong.
    ir:
        Optional pretty-print of the offending IR fragment.
    """

    def __init__(
        self,
        pass_name: str,
        phase: str,
        message: str,
        ir: Optional[str] = None,
    ) -> None:
        self.pass_name = pass_name
        self.phase = phase
        self.message = message
        self.ir = ir
        text = f"[{phase}/{pass_name}] {message}"
        if ir:
            text += f"\n--- offending IR ---\n{ir}"
        super().__init__(text)


class DeviceFault(ReproError):
    """A (simulated) device failure.

    ``kind`` classifies the failure surface (``"launch"`` — the kernel
    launch itself failed; ``"memory"`` — a transfer or device buffer
    was corrupted; ``"breaker"`` — a circuit breaker refused the work
    before it touched the device).  ``transient`` faults may clear on
    retry; fatal ones will not.
    """

    def __init__(
        self, kind: str, message: str, transient: bool = True
    ) -> None:
        self.kind = kind
        self.transient = transient
        flavour = "transient" if transient else "fatal"
        super().__init__(f"{flavour} {kind} fault: {message}")


class DeviceOOM(ReproError):
    """An allocation did not fit in device memory.

    Unlike a transient :class:`DeviceFault`, running out of memory is
    deterministic: retrying the same program on the same device cannot
    help, so the resilient executor falls straight back to the host
    interpreter instead of burning retries.
    """

    #: Never retryable — the same allocation will fail the same way.
    transient = False

    def __init__(
        self,
        block: str,
        requested_bytes: int,
        live_bytes: int,
        capacity_bytes: int,
    ) -> None:
        self.block = block
        self.requested_bytes = requested_bytes
        self.live_bytes = live_bytes
        self.capacity_bytes = capacity_bytes
        super().__init__(
            f"device out of memory allocating block {block!r}: "
            f"requested {requested_bytes} B with {live_bytes} B live "
            f"of {capacity_bytes} B capacity"
        )


class KernelTimeout(ReproError):
    """A kernel exceeded its watchdog budget.

    The budget is derived from the cost model's analytic estimate for
    the kernel, so a runaway kernel (one whose actual behaviour departs
    wildly from its static cost) is killed rather than wedging the
    whole device.  Timeouts are treated as transient by the resilient
    executor.
    """

    #: Retryable, like a transient :class:`DeviceFault`.
    transient = True

    def __init__(
        self, kernel: str, budget_us: float, elapsed_us: float
    ) -> None:
        self.kernel = kernel
        self.budget_us = budget_us
        self.elapsed_us = elapsed_us
        super().__init__(
            f"kernel {kernel!r} exceeded its watchdog budget: "
            f"{elapsed_us:.1f}us elapsed > {budget_us:.1f}us allowed"
        )


class ArgumentError(ReproError):
    """A host-API usage error (wrong arity, bad options).  The caller
    is at fault; retrying cannot help, so the resilient executor never
    retries these."""


class ValidationError(ReproError):
    """A result-validation failure: the compiled program's output
    disagrees with the reference interpreter."""


class DeadlineExceeded(ReproError):
    """A request ran out of its wall-clock budget.

    Deadlines propagate end-to-end: the serving layer stamps one on
    each request, the resilient executor stops retrying (and skips the
    interpreter fallback) once it expires, and the simulated device
    refuses to launch further kernels past it.  Never retryable: the
    time is gone.
    """

    transient = False

    def __init__(self, where: str, detail: str = "") -> None:
        self.where = where
        self.detail = detail
        text = f"deadline exceeded at {where}"
        if detail:
            text += f" ({detail})"
        super().__init__(text)


class ServiceOverloaded(ReproError):
    """The serving layer shed this request: the bounded admission
    queue was full (or the server was shutting down).  Load shedding is
    deliberate backpressure, not a fault — the caller should slow down
    or retry elsewhere, so this is never retried locally."""

    transient = False

    def __init__(
        self, reason: str, queue_depth: int = 0, capacity: int = 0
    ) -> None:
        self.reason = reason
        self.queue_depth = queue_depth
        self.capacity = capacity
        text = f"service overloaded: {reason}"
        if capacity:
            text += f" (queue {queue_depth}/{capacity})"
        super().__init__(text)


#: Process exit codes by failure class, most specific class first.
#: The CLI maps every toolchain failure through this table so scripts
#: and CI can branch on *why* a run failed, not just that it did.
EXIT_CODES = (
    (ArgumentError, 2),
    (CompilerBug, 3),
    (DeviceOOM, 4),
    (DeviceFault, 4),
    (KernelTimeout, 5),
    (DeadlineExceeded, 5),
    (ServiceOverloaded, 6),
)


def exit_code_for(error: BaseException) -> int:
    """The process exit code for a toolchain failure.

    ``2`` caller misuse, ``3`` compiler bug, ``4`` device fault/OOM,
    ``5`` timeout or missed deadline, ``6`` load shed, ``1`` any other
    :class:`ReproError`.
    """
    for cls, code in EXIT_CODES:
        if isinstance(error, cls):
            return code
    return 1
