"""The resilient executor: retries, watchdog budgets and graceful
degradation around the simulated GPU.

Real GPU stacks lose launches to transient driver faults, kill runaway
kernels with a watchdog, and — when the device is truly gone — fall
back to a slower but correct path.  This module implements that chain
for the simulator:

1. run the host program on the simulated device;
2. on a *transient* :class:`DeviceFault` or a :class:`KernelTimeout`,
   retry up to ``max_retries`` times with exponential backoff and
   deterministic jitter (seeded, so runs are reproducible);
3. on a fatal fault, or when the retry budget is exhausted, degrade
   gracefully: re-execute the program on the reference interpreter,
   which is slow but cannot suffer device faults.

Every execution produces a :class:`RunReport` counting attempts,
retries, faults, timeouts and fallbacks next to the usual
:class:`CostReport`; chaos tests assert on those counters.

:class:`ArgumentError` and other non-device errors are *never*
retried — retrying a usage error or a compiler bug cannot help.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .core import ast as A
from .core.values import Value
from .errors import (
    ArgumentError,
    DeadlineExceeded,
    DeviceFault,
    DeviceOOM,
    KernelTimeout,
    ReproError,
)
from .gpu.costmodel import CostReport, static_kernel_costs
from .gpu.device import DeviceProfile
from .gpu.faults import FaultPlan
from .gpu.simulator import (
    WATCHDOG_FACTOR,
    WATCHDOG_FLOOR_US,
    GpuSimulator,
)
from .interp import run_program
from .obs import PassTiming, get_logger, get_metrics, get_tracer
from .serve.deadline import Deadline

__all__ = [
    "DEFAULT_EXECUTOR",
    "EXECUTORS",
    "check_executor",
    "ExecutionPolicy",
    "RunReport",
    "run_resilient",
]

#: The execution engines: ``"sim"`` evaluates every kernel launch on
#: the scalar reference interpreter behind the simulated device (the
#: cost oracle, used for calibration); ``"jit"`` runs kernels as
#: transpiled NumPy source (:mod:`repro.vm.jit`), re-running a launch
#: on the interpreter when the transpiler refuses it or a trap fires.
#: Cost clock, heap, retry, watchdog and fault semantics are identical.
EXECUTORS = ("sim", "jit")
#: What :class:`ExecutionPolicy`, :class:`repro.pipeline.CompilerOptions`
#: (hence a :class:`repro.serve.Server`) and the CLI use when nothing
#: is asked for.
DEFAULT_EXECUTOR = "jit"


def check_executor(name: str) -> None:
    """Reject an executor name outside :data:`EXECUTORS`."""
    if name not in EXECUTORS:
        raise ArgumentError(
            f"unknown executor {name!r} (expected one of {EXECUTORS})"
        )


@dataclass(frozen=True)
class ExecutionPolicy:
    """How hard to try before giving up on the device."""

    #: Retry attempts after the first try (so ``max_retries + 1``
    #: device attempts in total).
    max_retries: int = 8
    #: First backoff, microseconds of simulated wall time.
    base_backoff_us: float = 50.0
    #: Exponential growth factor between consecutive backoffs.
    backoff_factor: float = 2.0
    #: Backoff ceiling.
    max_backoff_us: float = 5_000.0
    #: Jitter amplitude as a fraction of the backoff (deterministic,
    #: seeded from the fault plan, so runs are reproducible).
    jitter: float = 0.25
    #: When the device is hopeless, fall back to the reference
    #: interpreter instead of failing the job.
    fallback: bool = True
    #: Watchdog budget: a kernel may take this many times its analytic
    #: cost estimate before being killed...
    watchdog_factor: float = WATCHDOG_FACTOR
    #: ...with this floor so microsecond kernels aren't flaky.
    watchdog_floor_us: float = WATCHDOG_FLOOR_US
    #: Which engine computes kernel values: one of :data:`EXECUTORS`.
    executor: str = DEFAULT_EXECUTOR
    #: Cap on the *cumulative* backoff spent across all retries,
    #: microseconds (None = unlimited).  When a deadline is supplied to
    #: :func:`run_resilient` the effective cap is further clamped to
    #: the deadline's remaining budget, so retries never outlive the
    #: request.
    retry_budget_us: Optional[float] = None

    def __post_init__(self) -> None:
        check_executor(self.executor)


@dataclass
class RunReport:
    """What the resilient executor had to do to produce a result."""

    device: str
    #: Device attempts made (1 for a clean run).
    attempts: int = 0
    #: Retries after transient faults/timeouts.
    retries: int = 0
    transient_faults: int = 0
    fatal_faults: int = 0
    timeouts: int = 0
    #: 1 when the interpreter fallback produced the result.
    fallbacks: int = 0
    #: Out-of-memory aborts (deterministic: never retried).
    ooms: int = 0
    #: Total simulated backoff time spent between retries.
    backoff_us: float = 0.0
    #: Human-readable trail of what went wrong, in order.
    events: List[str] = field(default_factory=list)
    #: Identifies this execution in traces and logs; derived from the
    #: program/device/seed when not supplied, so a chaos-suite failure
    #: can be traced back to the exact :class:`FaultPlan` that caused
    #: it.
    run_id: str = ""
    #: The fault-plan / dataset seed behind this run (None = unseeded).
    seed: Optional[int] = None
    #: True when the request's deadline expired during execution (the
    #: executor stops retrying and skips the interpreter fallback).
    deadline_exceeded: bool = False
    #: Why the device path was abandoned (None for a clean device run):
    #: ``"fatal fault"``, ``"device OOM"``, ``"retries exhausted"``,
    #: ``"retry budget exhausted"`` or ``"deadline exceeded"``.
    gave_up_reason: Optional[str] = None
    #: The compile-time per-pass breakdown of the program that ran
    #: (copied from :class:`repro.pipeline.CompiledProgram`).
    pass_timings: List[PassTiming] = field(default_factory=list)

    @property
    def faults(self) -> int:
        """All observed fault events (transient + fatal + timeouts +
        out-of-memory aborts)."""
        return (
            self.transient_faults
            + self.fatal_faults
            + self.timeouts
            + self.ooms
        )

    @property
    def degraded(self) -> bool:
        """True when the result did not come from a clean device run."""
        return self.fallbacks > 0 or self.retries > 0

    def summary(self) -> str:
        prefix = f"[{self.run_id}] " if self.run_id else ""
        return (
            f"{prefix}attempts={self.attempts} retries={self.retries} "
            f"faults={self.faults} (transient={self.transient_faults}, "
            f"fatal={self.fatal_faults}, timeouts={self.timeouts}, "
            f"ooms={self.ooms}) "
            f"fallbacks={self.fallbacks} backoff={self.backoff_us:.0f}us"
        )

    def timing_breakdown(self) -> str:
        """The per-pass compile breakdown as an aligned text block."""
        if not self.pass_timings:
            return "(no pass timings recorded)"
        return "\n".join(str(t) for t in self.pass_timings)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable view (embedded in flight-recorder
        bundles next to the trace and metrics, joinable on run_id)."""
        return {
            "device": self.device,
            "attempts": self.attempts,
            "retries": self.retries,
            "transient_faults": self.transient_faults,
            "fatal_faults": self.fatal_faults,
            "timeouts": self.timeouts,
            "fallbacks": self.fallbacks,
            "ooms": self.ooms,
            "backoff_us": self.backoff_us,
            "events": list(self.events),
            "run_id": self.run_id,
            "seed": self.seed,
            "deadline_exceeded": self.deadline_exceeded,
            "gave_up_reason": self.gave_up_reason,
            "pass_timings": [str(t) for t in self.pass_timings],
        }


def _backoff_us(
    attempt: int, policy: ExecutionPolicy, rng: random.Random
) -> float:
    base = min(
        policy.base_backoff_us * policy.backoff_factor**attempt,
        policy.max_backoff_us,
    )
    jitter = policy.jitter * (2.0 * rng.random() - 1.0)
    return base * (1.0 + jitter)


def run_resilient(
    host,
    core: A.Prog,
    args: Sequence[Value],
    device: DeviceProfile,
    coalescing: bool = True,
    in_place: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    policy: Optional[ExecutionPolicy] = None,
    entry: Optional[str] = None,
    run_id: Optional[str] = None,
    seed: Optional[int] = None,
    pass_timings: Optional[List[PassTiming]] = None,
    deadline: Optional[Deadline] = None,
    trace_track: Optional[str] = None,
    metric_prefix: str = "gpu",
    heap=None,
) -> Tuple[Tuple[Value, ...], CostReport, RunReport]:
    """Execute ``host`` on the simulated device with retry, watchdog
    and interpreter-fallback semantics.

    ``core`` is the core-IR program the host program was lowered from;
    it is the graceful-degradation path (the reference interpreter
    computes the same values the simulator would have).

    ``run_id``/``seed`` identify the execution in the RunReport, the
    trace and the logs; when omitted they are derived from the fault
    plan, so a chaos failure names the exact plan that produced it.

    ``deadline`` (a :class:`repro.serve.Deadline`) bounds the whole
    execution in wall time: it is checked before every attempt and
    every kernel launch, retry backoff is clamped to its remaining
    budget, and once it expires the executor raises
    :class:`DeadlineExceeded` instead of falling back (the fallback
    would arrive too late to matter).  On failure paths the
    :class:`RunReport` is attached to the raised error as ``.report``.

    ``trace_track``/``metric_prefix``/``heap`` let a device pool give
    each device its own trace track, metric namespace (``gpu.dev0.*``)
    and persistent :class:`~repro.gpu.heap.DeviceHeap`; defaults keep
    single-device behaviour unchanged.
    """
    policy = policy or ExecutionPolicy()
    if policy.executor == "sim":
        engine_cls, base_track = GpuSimulator, "sim-gpu"
    else:
        from .vm import JitEngine

        engine_cls, base_track = JitEngine, "vm-jit"
    if trace_track is not None:
        base_track = trace_track
    if seed is None and fault_plan is not None:
        seed = fault_plan.seed
    if run_id is None:
        run_id = f"{host.name}@{device.name}"
        if seed is not None:
            run_id += f"#seed={seed}"
    report = RunReport(device.name, run_id=run_id, seed=seed)
    if pass_timings:
        report.pass_timings = list(pass_timings)
    injector = fault_plan.injector() if fault_plan is not None else None
    backoff_rng = random.Random(
        fault_plan.seed ^ 0x5DEECE66D if fault_plan is not None else 0
    )
    last_error: Optional[ReproError] = None
    tracer = get_tracer()
    metrics = get_metrics()
    logger = get_logger("runtime")
    # Static per-kernel cost predictions for the calibration layer:
    # computed once per execution (not per attempt), and only when
    # someone is observing — the uninstrumented hot path skips the
    # whole pricing walk.
    predictions = None
    if metrics.enabled or tracer.enabled:
        try:
            size_env: Dict[str, int] = {}
            for p, v in zip(host.params, args):
                value = getattr(v, "value", None)
                if value is not None and getattr(
                    getattr(v, "type", None), "is_integral", False
                ):
                    size_env[p.name] = int(value)
            # The static walk is pure in (program, sizes, device), so
            # memoise it on the host program: a serving worker replays
            # the same compiled program at the same sizes constantly
            # and must not re-price it per request.
            key = (
                tuple(sorted(size_env.items())),
                device.name,
                coalescing,
            )
            cache = host.prediction_cache
            predictions = cache.get(key)
            if predictions is None:
                if len(cache) >= 64:
                    cache.clear()
                predictions = cache[key] = static_kernel_costs(
                    host, size_env, device, coalescing=coalescing
                )
        except Exception:
            predictions = None  # an unpriceable program is not an error

    with tracer.span(
        "execute",
        "runtime",
        run_id=run_id,
        device=device.name,
        program=host.name,
        seed=seed,
        fault_plan=repr(fault_plan) if fault_plan is not None else None,
    ) as exec_span:
        for attempt in range(policy.max_retries + 1):
            if deadline is not None and deadline.expired:
                report.deadline_exceeded = True
                report.gave_up_reason = "deadline exceeded"
                report.events.append(
                    f"deadline expired before attempt {attempt + 1}"
                )
                last_error = DeadlineExceeded(
                    f"attempt {attempt + 1} of {host.name}"
                )
                tracer.instant(
                    "fault:deadline", "runtime", run_id=run_id
                )
                metrics.counter("runtime.faults", kind="deadline").inc()
                break
            report.attempts += 1
            track = (
                base_track
                if attempt == 0
                else f"{base_track} (attempt {attempt + 1})"
            )
            sim = engine_cls(
                device,
                coalescing=coalescing,
                in_place=in_place,
                injector=injector,
                watchdog_factor=policy.watchdog_factor,
                watchdog_floor_us=policy.watchdog_floor_us,
                prog=core,
                trace_track=track,
                deadline=deadline,
                predictions=predictions,
                metric_prefix=metric_prefix,
                heap=heap,
            )
            with tracer.span(
                f"attempt#{attempt + 1}", "runtime", run_id=run_id
            ) as attempt_span:
                try:
                    values, cost = sim.run(host, args)
                    attempt_span.set(outcome="ok")
                    exec_span.set(
                        attempts=report.attempts, retries=report.retries
                    )
                    return values, cost, report
                except DeadlineExceeded as e:
                    # The device watchdog hit the request's wall-clock
                    # budget mid-run: no retry can finish in time.
                    report.deadline_exceeded = True
                    report.gave_up_reason = "deadline exceeded"
                    report.events.append(str(e))
                    last_error = e
                    attempt_span.set(outcome="deadline")
                    tracer.instant(
                        "fault:deadline", "runtime", run_id=run_id
                    )
                    metrics.counter(
                        "runtime.faults", kind="deadline"
                    ).inc()
                    logger.info(
                        "deadline-exceeded", run_id=run_id, where=e.where
                    )
                    break
                except KernelTimeout as e:
                    report.timeouts += 1
                    report.events.append(str(e))
                    last_error = e
                    attempt_span.set(outcome="timeout")
                    tracer.instant(
                        "fault:timeout",
                        "runtime",
                        site=e.kernel,
                        run_id=run_id,
                    )
                    metrics.counter("runtime.faults", kind="timeout").inc()
                    logger.debug(
                        "kernel-timeout", run_id=run_id, site=e.kernel
                    )
                except DeviceOOM as e:
                    # Deterministic: the same allocation fails the same
                    # way on every retry, so go straight to fallback.
                    report.ooms += 1
                    report.events.append(str(e))
                    last_error = e
                    attempt_span.set(outcome="oom")
                    tracer.instant(
                        "fault:oom",
                        "runtime",
                        block=e.block,
                        requested_bytes=e.requested_bytes,
                        run_id=run_id,
                    )
                    metrics.counter("runtime.faults", kind="oom").inc()
                    logger.info(
                        "device-oom",
                        run_id=run_id,
                        block=e.block,
                        requested=e.requested_bytes,
                    )
                    break
                except DeviceFault as e:
                    report.events.append(str(e))
                    kind = "transient" if e.transient else "fatal"
                    attempt_span.set(outcome=f"{kind}-fault")
                    tracer.instant(
                        f"fault:{kind}", "runtime", error=str(e), run_id=run_id
                    )
                    metrics.counter("runtime.faults", kind=kind).inc()
                    logger.debug(
                        "device-fault", run_id=run_id, kind=kind, error=str(e)
                    )
                    last_error = e
                    if e.transient:
                        report.transient_faults += 1
                    else:
                        report.fatal_faults += 1
                        break  # a fatal fault will not clear: stop retrying
            if attempt < policy.max_retries:
                # The remaining backoff budget: the policy's cumulative
                # cap and (tighter) the deadline's remaining wall time.
                budget = float("inf")
                if policy.retry_budget_us is not None:
                    budget = policy.retry_budget_us - report.backoff_us
                if deadline is not None:
                    budget = min(budget, deadline.remaining_us())
                if budget <= 0.0:
                    if deadline is not None and deadline.expired:
                        # The deadline ran out between the failed
                        # attempt and the backoff: same contract as an
                        # in-run expiry — a typed DeadlineExceeded, no
                        # interpreter fallback (it would arrive late).
                        report.deadline_exceeded = True
                        report.gave_up_reason = "deadline exceeded"
                        report.events.append(
                            "deadline expired before retry "
                            f"#{report.retries + 1}"
                        )
                        tracer.instant(
                            "fault:deadline", "runtime", run_id=run_id
                        )
                        metrics.counter(
                            "runtime.faults", kind="deadline"
                        ).inc()
                    else:
                        report.gave_up_reason = "retry budget exhausted"
                        report.events.append(
                            "retry budget exhausted: stopped retrying "
                            f"after {report.backoff_us:.0f}us of backoff"
                        )
                    break
                report.retries += 1
                backoff = min(
                    _backoff_us(attempt, policy, backoff_rng), budget
                )
                report.backoff_us += backoff
                metrics.counter("runtime.retries").inc()
                metrics.counter("runtime.backoff_us").inc(backoff)
                tracer.instant(
                    "backoff", "runtime", us=backoff, run_id=run_id
                )

        exec_span.set(attempts=report.attempts, retries=report.retries)
        if (
            not report.deadline_exceeded
            and deadline is not None
            and deadline.expired
        ):
            # The deadline expired somewhere between the final device
            # attempt and here (e.g. the retry loop exhausted itself
            # right as the budget ran out): the fallback below would
            # produce an answer too late to matter, so honour the
            # deadline contract instead of falling back.
            report.deadline_exceeded = True
            report.gave_up_reason = "deadline exceeded"
            report.events.append("deadline expired after the final attempt")
        if report.gave_up_reason is None:
            if report.ooms:
                report.gave_up_reason = "device OOM"
            elif report.fatal_faults:
                report.gave_up_reason = "fatal fault"
            else:
                report.gave_up_reason = "retries exhausted"
        if report.deadline_exceeded:
            # Too late for the fallback to matter: surface the typed
            # error with the report attached.
            exec_span.set(outcome="deadline")
            error = (
                last_error
                if isinstance(last_error, DeadlineExceeded)
                else DeadlineExceeded(host.name)
            )
            error.report = report
            raise error
        if policy.fallback:
            report.fallbacks += 1
            report.events.append(
                f"falling back to the reference interpreter after: "
                f"{last_error}"
            )
            metrics.counter("runtime.fallbacks").inc()
            logger.info(
                "interpreter-fallback", run_id=run_id, after=str(last_error)
            )
            with tracer.span(
                "interpreter-fallback", "runtime", run_id=run_id
            ):
                values = run_program(
                    core, args, fname=entry or host.name, in_place=in_place
                )
            # The device never produced a result; the cost report
            # carries only the wasted backoff time.
            cost = CostReport(device.name)
            return values, cost, report

        if last_error is None:  # pragma: no cover
            raise ReproError("resilient executor made no attempts")
        last_error.report = report
        raise last_error
