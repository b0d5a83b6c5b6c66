"""The resilient execution service fronting the compiler and runtime.

:class:`Server` turns the single-run toolchain into a concurrent
service with one run slot per device: a :meth:`Server.call` that finds
the bounded :class:`~repro.serve.queue.AdmissionQueue` empty and a slot
free runs on its caller's thread; every other request waits there for
one of ``len(devices)`` worker threads.  The full robustness stack is
wired in:

- **admission control** — a full queue sheds the request immediately
  with a typed :class:`ServiceOverloaded`; small requests (by the cost
  model's analytic estimate) ride the interactive priority lane, and
  the sizes admission binds from the arguments are the ones the pool
  places with (a request binds its sizes once);
- **resident programs** — :meth:`Server.load` fingerprints, compiles
  and analyses a program once and returns a :class:`ProgramHandle`; a
  request names the handle, or the same program object again (an
  identity memo maps it to its handle), and pays none of the three;
- **single-flight compilation** — N concurrent loads of the same
  program compile once (:class:`~repro.serve.cache.CompileCache`,
  keyed by :func:`repro.pipeline.compile_cache_key`), and a compile
  failure is cached negatively so it cannot cause a retry storm;
- **deadlines** — each request's wall-clock budget is checked
  before every attempt (so a request that expired while it queued
  never touches a device), before every simulated kernel launch and
  before the interpreter floor (see :mod:`repro.serve.deadline`);
- **one serving path** — every request is one call on a
  :class:`repro.sched.DevicePool` (``devices``, by default one GTX
  780 Ti): *try the device, else interpret* (``request.executor or
  options.executor``, then ``interp``).  The device step is
  :func:`repro.runtime.run_resilient` — retries, and the device's
  circuit breaker, which trips on consecutive device-class failures —
  and the reference-interpreter floor cannot suffer device faults, so
  a request only fails outright on a *program* error (or its own
  deadline).  With one healthy device the request runs on the thread
  that holds its slot; with more, the pool places, shards and
  re-places (see :mod:`repro.sched`).  Fault injection is per device
  too: ``fault_plans`` is aligned with ``devices``.

A server states only its own settings: ``queue_capacity``, ``options``,
``fallback``, ``flight_recorder``, ``devices``, ``fault_plans`` and
``artifact_cache``.  The device step's settings — each device's
breaker, the retry count, the shard floor and the placer — belong to
the pool's parts (see :mod:`repro.sched.pool`), with
each part's own defaults; to change one, swap the attribute on
``server.pool`` before :meth:`Server.start`.

Results are delivered through :class:`ResultHandle` (event-based, no
executor framework), and ``Server.health()``/``repro.obs`` metrics
expose queue depth, shed counts, breaker states and per-lane latency
percentiles.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core import ast as A
from ..core.values import Value
from ..errors import (
    ArgumentError,
    DeadlineExceeded,
    ReproError,
    ServiceOverloaded,
)
from ..gpu.costmodel import request_price_us, size_env_from_args
from ..gpu.device import DeviceProfile, NVIDIA_GTX780TI
from ..gpu.faults import FaultPlan
from ..obs import Histogram, get_tracer
from ..obs.flight import FlightRecorder
from ..pipeline import (
    ArtifactCache,
    CompiledProgram,
    CompilerOptions,
    compile_cache_key,
    compile_program,
)
from ..runtime import RunReport, check_executor
from ..sched import BatchInfo, DevicePool, analyze_shardable
from .cache import CompileCache
from .deadline import Deadline
from .queue import BATCH_LANE, INTERACTIVE_LANE, AdmissionQueue

__all__ = [
    "ProgramHandle",
    "ServeRequest",
    "ServeResult",
    "ResultHandle",
    "Server",
]

#: Per-lane latency histogram bounds, microseconds: 1.5x-spaced from
#: 250us to ~32s, fine enough that bucket-interpolated percentiles
#: track the true quantiles closely (the saturation suite compares
#: loaded vs unloaded p50 through these).
_LATENCY_BUCKETS_US: Tuple[float, ...] = tuple(
    250.0 * 1.5**i for i in range(30)
)

#: Requests whose analytic cost estimate is at or below this ride the
#: interactive priority lane.
INTERACTIVE_THRESHOLD_US = 50_000.0

_request_ids = itertools.count(1)


@dataclass(frozen=True, eq=False)
class ProgramHandle:
    """A program resident in one :class:`Server`, from
    :meth:`Server.load`: fingerprinted, compiled and analysed once.  A
    request that names it pays none of the three."""

    #: The compile-cache key (the pool's affinity signal).
    key: str
    entry: str
    compiled: CompiledProgram
    #: Outermost-dimension shardability (None: not shardable).
    batch_info: Optional[BatchInfo]
    #: The issuing server's token: a handle names a program only there.
    owner: object = field(repr=False)


class _Resident:
    """The identity memo behind ``ServeRequest(prog, …)``: each live
    program object's handle, keyed on ``(id(prog), entry)``.

    The AST is frozen dataclasses over tuples, so one live object
    always has one content and its fingerprint need not be taken
    again.  An entry holds its program weakly, and the reference's
    callback removes the entry: the memo never keeps a program alive
    and never outgrows the live programs, and a hit requires ``ref()
    is prog``, so a recycled ``id`` is never served.  Failed compiles
    never get here (they keep the compile cache's negative TTL)."""

    def __init__(self) -> None:
        # Re-entrant: a collection inside ``add`` may run a callback on
        # the same thread.
        self._lock = threading.RLock()
        self._entries: Dict[
            Tuple[int, str], Tuple[weakref.ref, ProgramHandle]
        ] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, prog: A.Prog, entry: str) -> Optional[ProgramHandle]:
        held = self._entries.get((id(prog), entry))
        if held is not None and held[0]() is prog:
            return held[1]
        return None

    def add(self, prog: A.Prog, handle: ProgramHandle) -> ProgramHandle:
        """Remember ``handle`` for ``prog``; when another thread got
        there first, its handle wins and is returned."""
        key = (id(prog), handle.entry)
        entries, lock = self._entries, self._lock

        def forget(ref: weakref.ref) -> None:
            with lock:
                held = entries.get(key)
                if held is not None and held[0] is ref:
                    del entries[key]

        with lock:
            held = self.get(prog, handle.entry)
            if held is not None:
                return held
            entries[key] = (weakref.ref(prog, forget), handle)
            return handle


@dataclass
class ServeRequest:
    """One unit of client work: a program, its arguments, a budget."""

    #: A handle from the serving :class:`Server`'s ``load``, or a
    #: program, which the server loads on its first request and finds
    #: by identity afterwards.
    program: Union[ProgramHandle, A.Prog]
    args: Sequence[Value]
    entry: str = "main"
    #: Wall-clock budget for the whole request (None = no deadline).
    deadline_ms: Optional[float] = None
    #: The executor to try before the interpreter floor: one of
    #: :data:`repro.runtime.EXECUTORS` (None = the server's default
    #: executor).
    executor: Optional[str] = None
    request_id: str = ""

    def __post_init__(self) -> None:
        if self.executor is not None:
            check_executor(self.executor)
        if not self.request_id:
            self.request_id = f"req-{next(_request_ids)}"


@dataclass
class ServeResult:
    """What came back: values on success, a typed error otherwise."""

    request_id: str
    #: ``"ok"``, ``"shed"``, ``"deadline"`` or ``"error"``.
    status: str
    values: Optional[Tuple[Value, ...]] = None
    error: Optional[BaseException] = None
    lane: str = BATCH_LANE
    #: Submit-to-completion wall time.
    latency_s: float = 0.0
    #: The attempt loop's report (None for a request that never got
    #: there, or that a program error ended).
    run_report: Optional[RunReport] = None
    #: The device pool's placement decision (None for a request that
    #: never reached the pool, or that ended in an error).
    placement: Optional[Dict[str, Any]] = None
    #: Which evaluator produced the values (``"jit"``, ``"sim"``,
    #: ``"interp"``; None when nothing did), and the device step that
    #: was skipped (``["jit:open"]``) or abandoned
    #: (``["jit:DeviceFault"]``) on the way, empty on a clean run —
    #: both read off ``run_report``, never tracked separately.
    backend: Optional[str] = field(init=False, default=None)
    degraded_from: List[str] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        report = self.run_report
        if report is not None:
            self.backend = report.backend
            if report.abandoned is not None:
                self.degraded_from = [report.abandoned]

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def raise_for_status(self) -> "ServeResult":
        if self.error is not None:
            raise self.error
        return self


class ResultHandle:
    """A waitable slot for one request's :class:`ServeResult`."""

    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        self._event = threading.Event()
        self._result: Optional[ServeResult] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        if not self._event.wait(timeout=timeout):
            raise TimeoutError(
                f"{self.request_id}: no result within {timeout}s"
            )
        assert self._result is not None
        return self._result

    def _complete(self, result: ServeResult) -> None:
        self._result = result
        self._event.set()


@dataclass
class _Work:
    """A request after admission: resident, classified, deadlined."""

    request: ServeRequest
    handle: ResultHandle
    program: ProgramHandle
    #: The request's size variables, bound once at admission: the lane
    #: price and the pool's placement both read them.
    size_env: Dict[str, int]
    deadline: Optional[Deadline]
    lane: str
    submitted_at: float
    #: Whether the program was already compiled when the request
    #: arrived (recorded into the request's flight record).
    cache_hit: bool = False
    #: ``"caller"`` for a call run on its own thread, else ``"worker"``.
    ran_on: str = "worker"


class Server:
    """A thread-based execution service over the simulated devices.

    Use as a context manager (``with Server() as s: ...``) or call
    :meth:`start`/:meth:`stop` explicitly.  ``submit`` never blocks on
    *execution*: it returns a :class:`ResultHandle` immediately,
    already completed with :class:`ServiceOverloaded` if the request
    was shed.  It may, however, block for the duration of one compile
    on the first request for a program (single-flight: concurrent
    misses for the same key wait on one build) — :meth:`load` it at
    deploy time to keep the submit path non-blocking.
    """

    def __init__(
        self,
        queue_capacity: int = 16,
        options: Optional[CompilerOptions] = None,
        #: Whether a request the device cannot serve ends on the
        #: reference interpreter (the default) or as the typed device
        #: error — :attr:`repro.runtime.ExecutionPolicy.fallback`.
        fallback: bool = True,
        #: Optional :class:`repro.obs.FlightRecorder`: when set, every
        #: request is captured into a per-request trace/metrics record
        #: and terminal device errors (or SLO-breaching latencies)
        #: auto-dump a ``flightrec-<run_id>.json`` bundle.
        flight_recorder: Optional[FlightRecorder] = None,
        #: The simulated devices requests run on (one pool, possibly
        #: heterogeneous, one server worker each); admission prices
        #: lanes on the first.
        devices: Sequence[DeviceProfile] = (NVIDIA_GTX780TI,),
        #: One fault plan per device, aligned with ``devices`` (None:
        #: every device runs fault-free).
        fault_plans: Optional[Sequence[Optional[FaultPlan]]] = None,
        #: Optional persistent stage-artifact cache
        #: (:class:`repro.pipeline.ArtifactCache`): cache-miss compiles
        #: resume from on-disk artifacts, and a restarted server warms
        #: up from the previous process's compiles instead of starting
        #: cold.
        artifact_cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.options = options or CompilerOptions()
        self.fallback = fallback
        self.queue = AdmissionQueue(queue_capacity, slots=len(devices))
        self.cache = CompileCache()
        #: The in-memory CompileCache sits in front of this persistent
        #: layer: single-flight misses compile *through* the artifact
        #: cache, so identical programs cost one disk load per process.
        self.artifact_cache = artifact_cache
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._started = False
        self._lock = threading.Lock()
        self.flight_recorder = flight_recorder
        #: Per-lane latency distributions; :meth:`health` derives its
        #: percentiles from these via :meth:`Histogram.percentile`, the
        #: same quantile implementation the flight recorder's SLO
        #: trigger uses.
        self._latencies: Dict[str, Histogram] = {
            INTERACTIVE_LANE: Histogram(_LATENCY_BUCKETS_US),
            BATCH_LANE: Histogram(_LATENCY_BUCKETS_US),
        }
        self._counts: Dict[str, int] = {
            "admitted": 0,
            "shed": 0,
            "completed": 0,
            "deadline_exceeded": 0,
            "errors": 0,
        }
        #: Breakers, retries, sharding and placement are the pool's own
        #: settings: swap ``pool``'s attribute before :meth:`start`.
        self.pool = DevicePool(devices, fault_plans=fault_plans)
        #: Every handle this server issues carries this token.
        self._token = object()
        self._resident = _Resident()

    @property
    def default_executor(self) -> str:
        """The executor of a request that asks for none."""
        return self.options.executor

    @property
    def ladder(self) -> Tuple[str, ...]:
        """The plan of a request that asks for nothing."""
        return (self.default_executor,) + (
            ("interp",) if self.fallback else ()
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Server":
        with self._lock:
            if self._started:
                return self
            self._started = True
        for i in range(len(self.pool.devices)):
            t = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{i}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)
        self.pool.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop admitting, fail everything still queued with
        :class:`ServiceOverloaded`, join the workers and inline calls."""
        self._stopping.set()
        self.queue.close()
        for item in self.queue.drain():
            self._complete_shed(item.handle, "server shutting down")
        for t in self._threads:
            t.join(timeout=timeout)
        stuck = [t.name for t in self._threads if t.is_alive()]
        if stuck or not self.queue.wait_idle(timeout):  # pragma: no cover
            raise RuntimeError(f"requests failed to finish: {stuck}")
        self._threads.clear()
        self.pool.stop(timeout=timeout)

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- the client surface -------------------------------------------------

    def load(self, program: A.Prog, entry: str = "main") -> ProgramHandle:
        """Make a program resident (e.g. at deploy time): fingerprint
        it, compile it through the single-flight cache and analyse its
        shardability, once.  Requests naming the handle — or this same
        program object — pay none of that.  Raises the (possibly
        negatively cached) compile error."""
        return self._resolve(program, entry)[0]

    def warm(self, program: A.Prog, entry: str = "main") -> str:
        """``load(program, entry).key``: the call the frozen end-to-end
        harness (``benchmarks/e2e/``) makes.  New code calls :meth:`load`."""
        return self.load(program, entry).key

    def _resolve(
        self, program: Union[ProgramHandle, A.Prog], entry: str
    ) -> Tuple[ProgramHandle, bool]:
        """The resident handle for ``program`` at ``entry``, and
        whether it was compiled before this call.  Only a program this
        server has not seen (as this object) is fingerprinted; finding
        it resident counts as a compile-cache hit."""
        if isinstance(program, ProgramHandle):
            if program.owner is not self._token:
                raise ArgumentError(
                    "the program handle was loaded by another server"
                )
            if program.entry != entry:
                raise ArgumentError(
                    f"the program handle is loaded for entry point "
                    f"{program.entry!r}, not {entry!r}"
                )
            self.cache.note_hit()
            return program, True
        handle = self._resident.get(program, entry)
        if handle is not None:
            self.cache.note_hit()
            return handle, True
        key = compile_cache_key(program, self.options, entry)
        cache_hit = self.cache.peek(key) is not None
        compiled = self.cache.get_or_compile(
            key,
            lambda: compile_program(
                program, self.options, entry,
                artifact_cache=self.artifact_cache,
            ),
        )
        # The analysis runs on the *pre-compilation* program
        # (compilation restructures it but preserves the
        # row-independence the analysis proves).
        handle = ProgramHandle(
            key, entry, compiled, analyze_shardable(program, entry),
            self._token,
        )
        return self._resident.add(program, handle), cache_hit

    def submit(self, request: ServeRequest) -> ResultHandle:
        """Admit (or shed) one request.

        Never blocks on execution; may block for one (single-flight,
        cached) compile on a program's first request.  Shed checks run
        *before* the compile, so an overloaded or stopping server does
        not burn caller time building a program it is about to refuse.
        """
        return self._admit(request, inline=False)[0]

    def call(
        self, request: ServeRequest, timeout: Optional[float] = None
    ) -> ServeResult:
        """Admit and wait, or run the request on this thread if the
        started server's queue is empty and a device slot is free.
        ``timeout`` bounds the wait, never a run (``deadline_ms`` does):
        an inline run past it raises :class:`TimeoutError` after all."""
        handle, work = self._admit(request, inline=True)
        if work is None or work.ran_on == "worker":
            return handle.result(timeout=timeout)
        t0 = time.monotonic()
        self._run(work)  # never raises: it has the workers' backstop
        self.queue.release()
        result = handle.result()
        if isinstance(result.error, (KeyboardInterrupt, SystemExit)):
            raise result.error  # the caller's own, not the request's
        if timeout is not None and time.monotonic() - t0 > timeout:
            raise TimeoutError(f"{handle.request_id}: ran past {timeout}s")
        return result

    def _admit(
        self, request: ServeRequest, inline: bool
    ) -> Tuple[ResultHandle, Optional[_Work]]:
        """Admit or shed ``request``: its handle, and the admitted work
        (``ran_on == "caller"`` if ``inline`` claimed it a slot)."""
        handle = ResultHandle(request.request_id)
        submitted_at = time.monotonic()
        if self._stopping.is_set():
            self._complete_shed(handle, "server shutting down")
            return handle, None
        if len(self.queue) >= self.queue.capacity:
            # Already saturated: refuse before paying the compile cost.
            # (The post-compile offer() below still re-checks, so a
            # queue that fills *during* the compile sheds too.)
            self._complete_shed(handle, "admission queue full")
            return handle, None
        deadline = (
            Deadline.after_ms(request.deadline_ms)
            if request.deadline_ms is not None
            else None
        )
        try:
            program, cache_hit = self._resolve(request.program, request.entry)
        except ReproError as e:
            # A (possibly negatively cached) compile failure, or a
            # handle this server did not issue for this entry point:
            # the request is unservable, typed error straight back.
            self._finish(
                handle,
                ServeResult(
                    request.request_id, "error", error=e, lane=BATCH_LANE,
                    latency_s=time.monotonic() - submitted_at,
                ),
            )
            return handle, None
        size_env = size_env_from_args(program.compiled.host, request.args)
        lane = self._classify(program.compiled, size_env)
        work = _Work(
            request, handle, program, size_env, deadline, lane, submitted_at,
            cache_hit=cache_hit,
        )
        if inline and self._started and self.queue.claim():
            work.ran_on = "caller"
        elif not self.queue.offer(work, lane):
            self._complete_shed(handle, "admission queue full", lane)
            return handle, None
        with self._lock:
            self._counts["admitted"] += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "admitted", "serve", track="serve",
                run_id=request.request_id, lane=lane,
                queue_depth=len(self.queue),
            )
        return handle, work

    # -- admission ----------------------------------------------------------

    def _classify(
        self, compiled: CompiledProgram, size_env: Dict[str, int]
    ) -> str:
        """Priority lane from the cost model: price the program at the
        request's actual sizes on the first device; cheap requests go
        interactive.  (An unpriceable program is not an error — it just
        doesn't get priority treatment.)"""
        est = request_price_us(
            compiled.host, size_env, self.pool.devices[0].profile
        )
        if est is not None and est <= INTERACTIVE_THRESHOLD_US:
            return INTERACTIVE_LANE
        return BATCH_LANE

    # -- completion bookkeeping ---------------------------------------------

    def _complete_shed(
        self, handle: ResultHandle, reason: str, lane: str = BATCH_LANE
    ) -> None:
        with self._lock:
            self._counts["shed"] += 1
        if self.flight_recorder is not None:
            self.flight_recorder.note_shed(handle.request_id)
        get_tracer().instant(
            "shed", "serve", track="serve",
            run_id=handle.request_id, reason=reason,
        )
        error = ServiceOverloaded(
            reason, queue_depth=len(self.queue), capacity=self.queue.capacity
        )
        handle._complete(
            ServeResult(handle.request_id, "shed", error=error, lane=lane)
        )

    def _finish(self, handle: ResultHandle, result: ServeResult) -> None:
        with self._lock:
            if result.status == "ok":
                self._counts["completed"] += 1
            elif result.status == "deadline":
                self._counts["deadline_exceeded"] += 1
            else:
                self._counts["errors"] += 1
        latency_us = result.latency_s * 1e6
        self._latencies[result.lane].observe(latency_us)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "finished", "serve", track="serve",
                run_id=result.request_id, lane=result.lane,
                status=result.status, backend=result.backend or "none",
                latency_us=latency_us, queue_depth=len(self.queue),
            )
        handle._complete(result)

    # -- the workers --------------------------------------------------------

    def _worker_loop(self) -> None:
        # Blocks until work arrives and a slot is free; None once stop()
        # has closed the queue and drained it.
        work = self.queue.take()
        while work is not None:
            self._run(work)
            # Hold nothing while waiting for the next request: the
            # finished one's program and arguments are the client's to
            # free (and a collected program leaves the resident memo).
            del work
            work = self.queue.take(release=True)  # frees the slot it held

    def _run(self, work: _Work) -> None:
        try:
            self._process(work)
        except BaseException as e:  # pragma: no cover - backstop
            # No thread, worker or caller, dies with a request in hand.
            self._finish(work.handle, ServeResult(
                work.request.request_id, "error", error=e, lane=work.lane,
                latency_s=time.monotonic() - work.submitted_at,
            ))

    def _process(self, work: _Work) -> None:
        request, handle = work.request, work.handle
        recorder = self.flight_recorder
        if recorder is None:
            self._finish(handle, self._traced_execute(work))
            return
        # Everything inside the capture window — the request span, the
        # executor's attempt spans, the simulator's kernel launches —
        # lands in the request's private record (and is mirrored to the
        # global tracer).  _finish runs inside the window so its
        # ``finished`` instant is part of the record too.
        queue_wait_us = (time.monotonic() - work.submitted_at) * 1e6
        with recorder.capture(
            request.request_id, program=work.program.compiled.host.name
        ) as record:
            result = self._traced_execute(work)
            self._finish(handle, result)
            recorder.finish(
                record,
                status="ok" if result.ok else "error",
                latency_us=result.latency_s * 1e6,
                error=result.error,
                run_report=result.run_report and result.run_report.to_dict(),
                lane=result.lane,
                backend=result.backend or "",
                rungs=[d.split(":", 1)[0] for d in result.degraded_from]
                + ([result.backend] if result.backend else []),
                queue_wait_us=queue_wait_us,
                cache_hit=work.cache_hit,
                placement=result.placement,
            )

    def _traced_execute(self, work: _Work) -> ServeResult:
        """Execute under the request span, stamping the result and
        its latency."""
        request = work.request
        tracer = get_tracer()
        queued_s = time.monotonic() - work.submitted_at
        with tracer.span(
            f"request:{request.request_id}",
            "serve",
            track="serve",
            run_id=request.request_id,
            lane=work.lane,
            queued_ms=queued_s * 1e3,
            cache_hit=work.cache_hit,
            ran_on=work.ran_on,
        ) as span:
            result = self._execute(work)
            result.latency_s = time.monotonic() - work.submitted_at
            span.set(
                status=result.status,
                backend=result.backend,
                degraded_from=",".join(result.degraded_from) or None,
            )
        return result

    def _execute(self, work: _Work) -> ServeResult:
        """One call into the device pool, and the answer read off its
        report."""
        request, program = work.request, work.program
        compiled = program.compiled
        executor = request.executor or self.default_executor
        try:
            values, _cost, report, placement = self.pool.run(
                compiled.host, compiled.core, request.args,
                executor=executor,
                entry=request.entry,
                run_id=request.request_id,
                deadline=work.deadline,
                batch_info=program.batch_info,
                key=program.key,
                pass_timings=compiled.pass_timings,
                fallback=self.fallback,
                size_env=work.size_env,
            )
        except ReproError as e:
            # A deadline, a program error (identical on every
            # evaluator), or — with the floor off — the device error.
            return ServeResult(
                request.request_id,
                "deadline" if isinstance(e, DeadlineExceeded) else "error",
                error=e, lane=work.lane,
                run_report=getattr(e, "report", None),
            )
        return ServeResult(
            request.request_id, "ok", values=tuple(values), lane=work.lane,
            run_report=report, placement=placement,
        )

    # -- health / stats -----------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """A point-in-time JSON-serialisable view of the service."""
        with self._lock:
            counts = dict(self._counts)
        lanes = {}
        for lane, hist in self._latencies.items():
            lanes[lane] = {
                "count": hist.count,
                "p50_ms": hist.percentile(50.0) / 1e3,
                "p95_ms": hist.percentile(95.0) / 1e3,
                "p99_ms": hist.percentile(99.0) / 1e3,
            }
        pool = self.pool.stats()
        out = {
            "workers": sum(1 for t in self._threads if t.is_alive()),
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.capacity,
            "queue_depths": self.queue.depths(),
            # The pool's: one breaker per device, whatever the executor.
            "breakers": {
                f"dev{d['id']}": d["breaker"] for d in pool["devices"]
            },
            "compile_cache": self.cache.stats.snapshot(),
            "lanes": lanes,
            "pool": pool,
            **counts,
        }
        if self.artifact_cache is not None:
            out["artifact_cache"] = self.artifact_cache.stats.snapshot()
        if self.flight_recorder is not None:
            out["flight_recorder"] = self.flight_recorder.stats()
        return out
