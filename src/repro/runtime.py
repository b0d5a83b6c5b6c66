"""The resilient executor: retries, watchdog budgets and graceful
degradation around the simulated GPU.

Real GPU stacks lose launches to transient driver faults, kill runaway
kernels with a watchdog, and — when the device is truly gone — fall
back to a slower but correct path.  This module implements that chain
for the simulator; it is the one attempt loop of a single run, a
served request and every task of a device pool alike:

1. run the host program on the simulated device — unless the caller's
   circuit breaker (if any) refuses it, and tell the breaker exactly
   once how the device step ended;
2. on a *transient* :class:`DeviceFault` or a :class:`KernelTimeout`,
   retry up to ``max_retries`` times with exponential backoff and
   deterministic jitter (seeded, so runs are reproducible);
3. on a refusal, a fatal fault, or when the retry budget is exhausted,
   degrade gracefully (:func:`interpreter_floor`): re-execute the
   program on the reference interpreter, which is slow but cannot
   suffer device faults.

Every execution produces a :class:`RunReport` counting attempts,
retries, faults, timeouts and fallbacks next to the usual
:class:`CostReport`, and naming the evaluator that produced the values;
chaos tests assert on those.

:class:`ArgumentError` and other non-device errors are *never*
retried (retrying a usage error or a compiler bug cannot help) and
never held against the device.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
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
from .gpu.costmodel import CostReport
from .gpu.device import DeviceProfile
from .gpu.faults import FaultPlan
from .gpu.simulator import GpuSimulator, InterpRunner
from .interp import run_program
from .obs import PassTiming, get_tracer
from .serve.deadline import Deadline

__all__ = [
    "DEFAULT_EXECUTOR",
    "EXECUTORS",
    "check_executor",
    "ExecutionPolicy",
    "RunReport",
    "interpreter_floor",
    "make_engine",
    "run_resilient",
]


def _jit_runner(interp, trace_track: str):
    # Deferred: repro.vm imports the pipeline, which imports this module.
    from .vm.jit.engine import JitRunner

    return JitRunner(interp, trace_track)


#: The executors: the kernel runner each gives the program's generated
#: host function, and its trace track.  ``"sim"`` evaluates every
#: launch on the scalar reference interpreter (the bit-exact
#: reference); ``"jit"`` runs kernels as transpiled NumPy
#: (:mod:`repro.vm.jit`), re-running a launch on the interpreter when
#: the transpiler refuses it or a trap fires.  Clock, heap, watchdog and
#: faults are the engine's books
#: (:class:`~repro.gpu.simulator.DeviceAccounting`) under both.
_ENGINES = {
    "sim": (InterpRunner, "sim-gpu"),
    "jit": (_jit_runner, "vm-jit"),
}
EXECUTORS = tuple(_ENGINES)
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


def make_engine(executor: str, device: DeviceProfile, **options):
    """A :class:`GpuSimulator` with ``executor``'s kernel runner, its
    spans on the executor's track unless ``options`` name another."""
    runner, track = _ENGINES[executor]
    options.setdefault("trace_track", track)
    return GpuSimulator(device, runner=runner, **options)


@dataclass(frozen=True)
class ExecutionPolicy:
    """How hard to try before giving up on the device."""

    #: Retry attempts after the first try (so ``max_retries + 1``
    #: device attempts in total).
    max_retries: int = 8
    #: When the device is hopeless, fall back to the reference
    #: interpreter instead of failing the job.
    fallback: bool = True
    #: Which engine computes kernel values: one of :data:`EXECUTORS`.
    executor: str = DEFAULT_EXECUTOR

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
    #: ``"retry budget exhausted"``, ``"breaker open"`` or
    #: ``"deadline exceeded"``.
    gave_up_reason: Optional[str] = None
    #: The evaluator that produced the values: the policy's executor,
    #: ``"interp"`` when the interpreter floor did, None when nothing
    #: did.
    backend: Optional[str] = None
    #: The device step that was skipped or abandoned, as
    #: ``"<executor>:<why>"`` — ``"jit:open"`` (the breaker refused
    #: it) or the class of the error that ended it
    #: (``"jit:DeviceFault"``); None for a clean device run.
    abandoned: Optional[str] = None
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

    def absorb(self, other: "RunReport") -> None:
        """Fold another execution's counters and trail into this one
        (a device pool reports its shards' runs as one)."""
        for name in (
            "attempts", "retries", "transient_faults", "fatal_faults",
            "timeouts", "fallbacks", "ooms", "backoff_us",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.events.extend(other.events)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable view (embedded in flight-recorder
        bundles next to the trace and metrics, joinable on run_id)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["events"] = list(self.events)
        out["pass_timings"] = [str(t) for t in self.pass_timings]
        return out


#: How the attempt loop treats each class of device-step error:
#: ``(RunReport counter, may clear on retry, what the breaker hears
#: when it ends the step, RunReport.gave_up_reason then)``.  A fatal
#: fault will not clear; OOM is deterministic (the same allocation
#: fails the same way every time); a deadline says nothing about the
#: device, and no retry can beat it.
_FAULTS = {
    "transient": ("transient_faults", True, "failure", "retries exhausted"),
    "timeout": ("timeouts", True, "failure", "retries exhausted"),
    "fatal": ("fatal_faults", False, "failure", "fatal fault"),
    "oom": ("ooms", False, "failure", "device OOM"),
    "deadline": (None, False, "neutral", "deadline exceeded"),
}


def _fault_kind(error: ReproError) -> Optional[str]:
    """The :data:`_FAULTS` row for ``error``; None for a program error
    (identical on every evaluator: propagate it, blame nobody)."""
    if isinstance(error, DeadlineExceeded):
        return "deadline"
    if isinstance(error, KernelTimeout):
        return "timeout"
    if isinstance(error, DeviceOOM):
        return "oom"
    if isinstance(error, DeviceFault):
        return "transient" if error.transient else "fatal"
    return None


#: The retry backoff, microseconds of simulated wall time: the first
#: wait, its growth per further attempt, and its ceiling.
BASE_BACKOFF_US = 50.0
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_US = 5_000.0
#: Jitter amplitude as a fraction of the backoff (deterministic, seeded
#: from the fault plan, so runs are reproducible).
BACKOFF_JITTER = 0.25


def _backoff_us(attempt: int, rng: random.Random) -> float:
    base = min(BASE_BACKOFF_US * BACKOFF_FACTOR**attempt, MAX_BACKOFF_US)
    jitter = BACKOFF_JITTER * (2.0 * rng.random() - 1.0)
    return base * (1.0 + jitter)


def interpreter_floor(
    host,
    core: A.Prog,
    args: Sequence[Value],
    report: RunReport,
    error: ReproError,
    *,
    executor: str,
    fallback: bool,
    entry: str,
    deadline: Optional[Deadline] = None,
) -> Tuple[Tuple[Value, ...], CostReport]:
    """Where an abandoned device step ends — :func:`run_resilient`'s,
    or a :class:`repro.sched.DevicePool`'s whose every device failed
    or refused.  ``report.abandoned`` records ``error``, which ended
    the step; then ``core`` is evaluated on the reference interpreter
    (in ``host``'s in-place mode), unless ``fallback`` is off or the
    deadline is gone (a late answer is no answer): those raise the
    typed error, ``.report`` attached.
    """
    tracer = get_tracer()
    run_id = report.run_id
    if isinstance(error, DeadlineExceeded):
        report.deadline_exceeded = True
    elif deadline is not None and deadline.expired:
        # The deadline ran out somewhere between the last attempt (or
        # its backoff) and here: same contract as an in-run expiry.
        report.deadline_exceeded = True
        report.events.append("deadline expired after the final attempt")
        tracer.instant("fault:deadline", "runtime", run_id=run_id)
        error = DeadlineExceeded(entry)
    refused = isinstance(error, DeviceFault) and error.kind == "breaker"
    report.abandoned = (
        f"{executor}:{'open' if refused else type(error).__name__}"
    )
    if report.deadline_exceeded:
        report.gave_up_reason = "deadline exceeded"
    if report.deadline_exceeded or not fallback:
        error.report = report
        raise error
    report.fallbacks += 1
    report.backend = "interp"
    report.events.append(
        f"falling back to the reference interpreter after: {error}"
    )
    with tracer.span(
        "interpreter-fallback", "runtime", run_id=run_id, after=str(error)
    ):
        values = run_program(core, args, fname=entry, in_place=host.in_place)
    # The device never produced a result; the cost report carries
    # nothing (the wasted backoff time is in the run report).
    return values, CostReport(report.device)


def run_resilient(
    host,
    core: A.Prog,
    args: Sequence[Value],
    device: DeviceProfile,
    fault_plan: Optional[FaultPlan] = None,
    policy: Optional[ExecutionPolicy] = None,
    entry: Optional[str] = None,
    run_id: Optional[str] = None,
    seed: Optional[int] = None,
    pass_timings: Optional[List[PassTiming]] = None,
    deadline: Optional[Deadline] = None,
    pool_device=None,
    breaker=None,
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
    would arrive too late to matter).  It is duck-typed — ``check``,
    ``remaining_us`` and ``expired`` — and a device pool passes each
    task's checkpoint in its place, which also stops a cancelled task
    at those same points.  On failure paths the
    :class:`RunReport` is attached to the raised error as ``.report``.

    ``breaker`` (duck-typed: a :class:`repro.serve.CircuitBreaker`)
    guards the device step, and its protocol lives here and nowhere
    else: ``allow()`` before the first attempt (a refusal goes straight
    to the floor as a transient ``"breaker"``-kind :class:`DeviceFault`)
    and exactly one ``record_*`` after the last, whatever ends it —
    only device-class outcomes count against the breaker.

    ``pool_device`` (duck-typed: a :class:`repro.sched.PoolDevice`)
    gives every attempt's books that device's trace track, metric
    namespace (``gpu.dev0.*``) and persistent
    :class:`~repro.gpu.heap.DeviceHeap`.
    """
    policy = policy or ExecutionPolicy()
    executor = policy.executor
    base_track = getattr(pool_device, "trace_track", _ENGINES[executor][1])
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
    # The jitter source, built before the first backoff: a clean run
    # never draws from it.
    backoff_rng: Optional[random.Random] = None
    tracer = get_tracer()

    with tracer.span(
        "execute",
        "runtime",
        run_id=run_id,
        device=device.name,
        program=host.name,
        seed=seed,
        fault_plan=repr(fault_plan) if fault_plan is not None else None,
    ) as exec_span:
        admitted = breaker is None or breaker.allow()
        #: What the breaker hears once the device step is over: the
        #: last attempt's outcome (anything unclassified is neutral).
        verdict = "neutral"
        try:
            if not admitted:
                last_error: ReproError = DeviceFault(
                    "breaker", f"{executor} circuit open", transient=True
                )
                report.gave_up_reason = "breaker open"
                report.events.append(str(last_error))
                exec_span.set(refused=executor)
            for attempt in range(policy.max_retries + 1 if admitted else 0):
                verdict = "neutral"
                try:
                    if deadline is not None:
                        deadline.check(f"attempt {attempt + 1} of {host.name}")
                    report.attempts += 1
                    sim = make_engine(
                        executor,
                        device,
                        injector=injector,
                        prog=core,
                        trace_track=(
                            base_track
                            if attempt == 0
                            else f"{base_track} (attempt {attempt + 1})"
                        ),
                        deadline=deadline,
                        metric_prefix=getattr(
                            pool_device, "metric_prefix", "gpu"
                        ),
                        heap=getattr(pool_device, "heap", None),
                    )
                    with tracer.span(
                        f"attempt#{attempt + 1}", "runtime", run_id=run_id
                    ):
                        values, cost = sim.run(host, args)
                except ReproError as e:
                    kind = _fault_kind(e)
                    if kind is None:
                        raise
                    last_error = e
                else:
                    report.backend = executor
                    verdict = "success"
                    return values, cost, report
                counter, retryable, verdict, gave_up = _FAULTS[kind]
                if counter is not None:
                    setattr(report, counter, getattr(report, counter) + 1)
                message = str(last_error)
                report.events.append(message)
                tracer.instant(
                    f"fault:{kind}", "runtime", error=message, run_id=run_id
                )
                if not retryable or attempt == policy.max_retries:
                    report.gave_up_reason = gave_up
                    break
                # The remaining backoff budget: the deadline's
                # remaining wall time.
                budget = (
                    float("inf") if deadline is None
                    else deadline.remaining_us()
                )
                if budget <= 0.0:
                    # (The deadline has expired: the floor says so.)
                    report.gave_up_reason = "retry budget exhausted"
                    report.events.append(
                        "retry budget exhausted: stopped retrying "
                        f"after {report.backoff_us:.0f}us of backoff"
                    )
                    break
                report.retries += 1
                if backoff_rng is None:
                    backoff_rng = random.Random(
                        fault_plan.seed ^ 0x5DEECE66D
                        if fault_plan is not None else 0
                    )
                backoff = min(
                    _backoff_us(attempt, backoff_rng), budget
                )
                report.backoff_us += backoff
                tracer.instant(
                    "backoff", "runtime", us=backoff, run_id=run_id
                )
        finally:
            exec_span.set(attempts=report.attempts, retries=report.retries)
            if breaker is not None and admitted:
                if verdict == "success":
                    breaker.record_success()
                elif verdict == "failure":
                    breaker.record_failure()
                else:
                    breaker.record_neutral()
        values, cost = interpreter_floor(
            host,
            core,
            args,
            report,
            last_error,
            executor=executor,
            fallback=policy.fallback,
            entry=entry or host.name,
            deadline=deadline,
        )
        return values, cost, report
