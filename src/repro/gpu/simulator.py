"""Execution of host programs on the simulated device.

An engine is three parts, composed rather than inherited: the device's
books (:class:`DeviceAccounting`: cost clock, heap, watchdog, fault
injector, deadline, trace track and metric prefix, with one method per
host-statement kind), a kernel runner that computes each launch's
values (:class:`InterpRunner`, the reference interpreter, for ``sim``;
:class:`repro.vm.jit.engine.JitRunner` for ``jit``), and the host walk
(:class:`GpuSimulator`), which binds names, follows control flow and
calls the other two.  Simulated time, heap statistics and the
fault-injection draw order are the books' alone, so they are identical
under either runner.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from ..core import ast as A
from ..core.values import ArrayValue, ScalarValue, Value, scalar
from ..core.prim import I32
from ..interp.interpreter import Interpreter
from ..backend.kernel_ir import (
    AllocStmt,
    Count,
    FreeStmt,
    HostEval,
    HostIfStmt,
    HostLoopStmt,
    HostProgram,
    LaunchStmt,
    ManifestStmt,
)
from ..core.types import Array
from ..errors import ArgumentError, CompilerBug, KernelTimeout
from ..obs import get_metrics, get_tracer
from .costmodel import (
    CostReport, KernelCost, host_stmt_us, kernel_cost, loop_copy_us,
    manifest_price, memo_insert, size_env_from_args,
)
from .device import DeviceProfile
from .faults import FaultInjector
from .heap import DeviceHeap

__all__ = ["DeviceAccounting", "GpuSimulator", "InterpRunner"]

#: The watchdog budget: a kernel may take this many times its analytic
#: cost estimate, plus a floor so microsecond kernels aren't flaky,
#: before being killed.
WATCHDOG_FACTOR = 8.0
WATCHDOG_FLOOR_US = 100.0


def _size_of(v: Optional[Value]) -> Optional[int]:
    """The value as a size variable (an integral scalar), else None."""
    if isinstance(v, ScalarValue) and v.type.is_integral:
        return int(v.value)
    return None


def _sizes_for(count: Count, env: Mapping[str, Value]) -> Dict[str, int]:
    """The size variables ``count`` names, as ``env`` binds them —
    all that ``count.evaluate`` reads of a size environment."""
    out: Dict[str, int] = {}
    for _, dims in count.terms:
        for d in dims:
            size = _size_of(env.get(d))
            if size is not None:
                out[d] = size
    return out


class DeviceAccounting:
    """The books of one simulated device, one run at a time.

    ``injector`` (a :class:`FaultInjector`) may fail a launch or make a
    kernel run away; the watchdog kills a kernel whose simulated time
    exceeds :data:`WATCHDOG_FACTOR` times the cost model's estimate
    plus :data:`WATCHDOG_FLOOR_US` (:class:`KernelTimeout`).
    ``deadline`` (a :class:`repro.serve.Deadline`, duck-typed) is
    checked before every launch.  ``heap`` is a pooled device's
    persistent :class:`DeviceHeap`, else one of the device's capacity;
    :meth:`begin` ``reset_run()``s it either way.  Spans land on
    ``trace_track`` (one per retry attempt), metrics under
    ``metric_prefix`` (``gpu.dev{id}`` on a pooled device).
    """

    def __init__(
        self,
        device: DeviceProfile,
        coalescing: bool = True,
        *,
        injector: Optional[FaultInjector] = None,
        deadline=None,
        trace_track: str = "sim-gpu",
        metric_prefix: str = "gpu",
        heap: Optional[DeviceHeap] = None,
    ) -> None:
        self.device = device
        self.coalescing = coalescing
        self.injector = injector
        self.deadline = deadline
        self.trace_track = trace_track
        self.metric_prefix = metric_prefix
        self.heap = (
            heap if heap is not None else DeviceHeap(device.memory_bytes)
        )
        # Resolved metric instruments per kernel kind, keyed by the
        # registry they came from: launches re-use the same instruments
        # run after run, and re-rendering label keys on every launch is
        # measurable on the serving hot path.
        self._instrument_cache: Optional[Tuple[Any, Dict[str, Any]]] = None

    def begin(self, hp: HostProgram, size_env: Mapping[str, int]) -> None:
        """Open the books for one run of ``hp``: a fresh clock, the
        heap reset, the parameter blocks charged at ``size_env``."""
        #: The running program's clock.
        self.report = CostReport(self.device.name)
        self.heap.reset_run()
        for p in hp.params:
            block = hp.blocks.get(p.name)
            if block is not None and isinstance(p.type, Array):
                self.heap.alloc(block.name, block.size_bytes(size_env))
        self._launch_costs: Dict[tuple, KernelCost] = (
            hp.launch_costs.setdefault((self.device, self.coalescing), {})
        )

    def finish(self) -> CostReport:
        """Close the books: the run's heap statistics onto the clock
        (and the metrics registry); returns the run's report."""
        report = self.report
        stats = self.heap.stats
        report.mem_peak_bytes = stats.peak_bytes
        report.mem_alloc_count = stats.alloc_count
        report.mem_reuse_count = stats.reuse_count
        metrics = get_metrics()
        if metrics.enabled:
            pfx = self.metric_prefix
            metrics.gauge(f"{pfx}.mem.peak_bytes").set(stats.peak_bytes)
            metrics.counter(f"{pfx}.mem.allocs").inc(stats.alloc_count)
            metrics.counter(f"{pfx}.mem.frees").inc(stats.free_count)
            metrics.counter(f"{pfx}.mem.reuses").inc(stats.reuse_count)
            metrics.counter(f"{pfx}.mem.alloc_bytes").inc(
                stats.total_alloc_bytes
            )
        return report

    def launch(self, kernel, env: Mapping[str, Value], run) -> tuple:
        """One kernel launch, its values computed by ``run(kernel,
        env)``: deadline check, fault draw, values, price, watchdog
        draw, then the span and metrics — in that order."""
        if self.deadline is not None:
            self.deadline.check(f"launch of {kernel.name}")
        if self.injector is not None:
            self.injector.before_launch(kernel.name)
        values = run(kernel, env)
        cost = self.price(kernel, env)
        consumed = self._watchdog(kernel.name, cost.time_us)
        report = self.report
        # The simulated-clock cursor: everything accrued so far.
        sim_ts = report.total_us
        report.kernel_costs.append(cost)
        self._observe_launch(cost, sim_ts, consumed)
        return values

    def alloc(self, s: AllocStmt, env: Mapping[str, Value]) -> None:
        size = s.block.size_bytes(_sizes_for(s.block.elems, env))
        self.heap.alloc(
            s.block.name, size, reuse_of=s.reuse_of, recycle=s.recycle,
        )
        self._observe_mem()

    def free(self, s: FreeStmt) -> None:
        self.heap.free(s.block)
        self._observe_mem()

    def manifest(self, s: ManifestStmt, env: Mapping[str, Value]) -> None:
        """A layout change: priced as a transposing copy, on the trace
        as a ``manifest`` span."""
        bytes_moved, manifest_us = manifest_price(
            s, _sizes_for(s.elems, env), self.device
        )
        report = self.report
        sim_ts = report.total_us
        report.manifest_us += manifest_us
        tracer = get_tracer()
        if tracer.enabled:
            tracer.complete(
                f"manifest:{s.dst}",
                "manifest",
                ts_us=sim_ts,
                dur_us=manifest_us,
                track=self.trace_track,
                bytes_moved=bytes_moved,
            )
        metrics = get_metrics()
        if metrics.enabled:
            pfx = self.metric_prefix
            metrics.counter(f"{pfx}.manifests").inc()
            metrics.counter(f"{pfx}.manifest_bytes").inc(bytes_moved)

    def host_eval(self, s: HostEval) -> None:
        self.report.host_us += host_stmt_us(s.binding.exp, self.device)

    def loop_copies(self, s: HostLoopStmt, env) -> List[float]:
        """What each iteration of ``s`` pays to copy its double-buffered
        state, priced once per loop: ``env`` is not rebound while the
        loop runs, so neither are the sizes the copied shapes name."""
        return loop_copy_us(
            s, lambda count: _sizes_for(count, env), self.device
        )

    def loop_copy(self, copies_us: Sequence[float]) -> None:
        """Charge one iteration's copies (one addition each: float
        addition does not re-associate)."""
        report = self.report
        for us in copies_us:
            report.copy_us += us

    def price(self, kernel, env: Mapping[str, Value]) -> KernelCost:
        """``kernel_cost`` of one launch.  The price is a pure function
        of the kernel, the size variables it names, the device and
        ``coalescing``, and a host loop or a served request replays the
        same launch every time, so it is computed once per key (shared
        through the host program, bounded and evicted like its other
        two price memos: ``costmodel.memo_insert``)."""
        names = kernel.size_names
        sizes = tuple(_size_of(env.get(n)) for n in names)
        memo = self._launch_costs
        key = (kernel.name, sizes)
        cost = memo.get(key)
        if cost is None:
            cost = kernel_cost(
                kernel,
                {n: v for n, v in zip(names, sizes) if v is not None},
                self.device,
                coalescing=self.coalescing,
            )
            memo_insert(memo, key, cost)
        return cost

    def _watchdog(self, site: str, cost_us: float) -> float:
        """Kill a runaway kernel: its (possibly fault-inflated)
        simulated time must stay within a budget derived from the cost
        model's own estimate.  Returns the fraction of the watchdog
        budget the kernel consumed (for the observability layer)."""
        slowdown = (
            self.injector.slowdown(site)
            if self.injector is not None
            else 1.0
        )
        elapsed = cost_us * slowdown
        budget = WATCHDOG_FACTOR * cost_us + WATCHDOG_FLOOR_US
        if elapsed > budget:
            raise KernelTimeout(site, budget, elapsed)
        return elapsed / budget if budget > 0 else 0.0

    def _observe_mem(self) -> None:
        """Sample the heap onto the Chrome-trace memory counter track
        (one counter event per alloc/free, at the simulated clock)."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter(
                f"{self.metric_prefix}.mem.live_bytes",
                float(self.heap.live_bytes),
                ts_us=self.report.total_us,
                track=self.trace_track,
            )

    def _observe_launch(
        self, cost, sim_ts: float, watchdog_consumed: float
    ) -> None:
        """Record one kernel launch on the trace (a span on this
        device's simulated-time track) and in the metrics registry.
        With observability off this costs two guard checks."""
        tracer = get_tracer()
        cycles = cost.cycles(self.device)
        if tracer.enabled:
            tracer.complete(
                f"kernel:{cost.name}",
                "kernel",
                ts_us=sim_ts,
                dur_us=cost.time_us,
                track=self.trace_track,
                kind=cost.kind,
                launches=cost.launches,
                threads=cost.threads,
                cycles=cycles,
                mem_us=cost.mem_us,
                compute_us=cost.compute_us,
                bytes_effective=cost.bytes_effective,
                bytes_raw=cost.bytes_raw,
                flops=cost.flops,
                occupancy=cost.occupancy,
                watchdog_consumed=watchdog_consumed,
                heap_live_bytes=self.heap.live_bytes,
            )
        metrics = get_metrics()
        if metrics.enabled:
            counters, histograms = self._launch_instruments(metrics, cost.kind)
            for counter, v in zip(counters, (
                cost.launches, cost.time_us, cycles, cost.bytes_effective,
                cost.bytes_raw, cost.flops,
            )):
                counter.inc(v)
            for histogram, v in zip(histograms, (
                cost.time_us, cost.occupancy, watchdog_consumed,
            )):
                histogram.observe(v)

    def _launch_instruments(self, metrics, kind: str):
        """``(counters, histograms)`` of a kernel kind, in the order
        ``_observe_launch`` feeds them, resolved once per (registry,
        kind) and reused on every later launch."""
        cache = self._instrument_cache
        if cache is None or cache[0] is not metrics:
            cache = self._instrument_cache = (metrics, {})
        inst = cache[1].get(kind)
        if inst is None:
            pfx = self.metric_prefix
            inst = cache[1][kind] = (
                [metrics.counter(f"{pfx}.launches", kind=kind)] + [
                    metrics.counter(f"{pfx}.{name}") for name in (
                        "sim_time_us", "cycles", "bytes_effective",
                        "bytes_raw", "flops",
                    )
                ],
                [
                    metrics.histogram(f"{pfx}.kernel_time_us"),
                    metrics.histogram(
                        f"{pfx}.occupancy",
                        buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
                    ),
                    metrics.histogram(
                        f"{pfx}.watchdog_consumed",
                        buckets=(0.05, 0.125, 0.25, 0.5, 0.75, 1.0),
                    ),
                ],
            )
        return inst


class InterpRunner:
    """The ``sim`` kernel runner: every launch on the scalar reference
    interpreter.  A runner is built as ``runner(interp, trace_track)``;
    the walk calls ``start(hp)`` once per run, ``run(kernel, env)`` per
    launch."""

    def __init__(self, interp: Interpreter, trace_track: str) -> None:
        self._interp = interp

    def start(self, hp: HostProgram) -> None:
        pass

    def run(self, kernel, env: Mapping[str, Value]) -> Tuple[Value, ...]:
        return self._interp.eval_exp(kernel.exp, env)


class GpuSimulator:
    """Executes a :class:`HostProgram`, producing both the result
    values and a :class:`CostReport` of simulated device time.

    The walk only binds names and follows control flow.  Every price,
    heap charge, fault draw and span is a call on :attr:`accounting`
    (``books`` are its options), and every launch's values come from
    ``runner`` (``repro.runtime.make_engine`` picks it per executor).
    """

    def __init__(
        self,
        device: DeviceProfile,
        coalescing: bool = True,
        in_place: bool = True,
        prog: Optional[A.Prog] = None,
        runner: Callable[[Interpreter, str], Any] = InterpRunner,
        **books,
    ) -> None:
        self.accounting = DeviceAccounting(device, coalescing, **books)
        # Kernels normally contain no function calls (inlining runs
        # first), but when the pass guard rolls inlining back the
        # remaining calls must still resolve.
        self._interp = Interpreter(
            prog if prog is not None else A.Prog(()), in_place=in_place
        )
        self._atom = self._interp._atom
        self.runner = runner(self._interp, self.accounting.trace_track)

    def run(
        self, hp: HostProgram, args: Sequence[Value]
    ) -> Tuple[Tuple[Value, ...], CostReport]:
        if len(args) != len(hp.params):
            raise ArgumentError(
                f"{hp.name}: expected {len(hp.params)} arguments, "
                f"got {len(args)}"
            )
        self.runner.start(hp)
        env: Dict[str, Value] = {}
        for p, arg in zip(hp.params, args):
            if isinstance(arg, ArrayValue):
                arg = arg.copy()
            self._interp.bind_param(env, p, arg)
        acct = self.accounting
        acct.begin(hp, size_env_from_args(hp, args))
        self._exec_stmts(hp.stmts, env)
        results = tuple(self._atom(env, a) for a in hp.result)
        return results, acct.finish()

    # -- the walk ------------------------------------------------------------

    def _exec_stmts(self, stmts: Sequence, env: Dict[str, Value]) -> None:
        acct = self.accounting
        run_kernel = self.runner.run
        bind = self._interp.bind_param
        for s in stmts:
            if isinstance(s, LaunchStmt):
                kernel = s.kernel
                if s.elide_copy is not None and s.elide_copy in env:
                    # The memory planner proved the source dies here:
                    # the copy is a no-op and the result aliases it.
                    src_val = env[s.elide_copy]
                    for p in kernel.pat:
                        bind(env, p, src_val)
                    continue
                values = acct.launch(kernel, env, run_kernel)
                for p, v in zip(kernel.pat, values):
                    bind(env, p, v)
            elif isinstance(s, HostEval):
                values = self._interp.eval_exp(s.binding.exp, env)
                for p, v in zip(s.binding.pat, values):
                    bind(env, p, v)
                acct.host_eval(s)
            elif isinstance(s, ManifestStmt):
                # Layout change only; the logical value is unchanged.
                if s.src != s.dst and s.src in env:
                    env[s.dst] = env[s.src]
                acct.manifest(s, env)
            elif isinstance(s, AllocStmt):
                acct.alloc(s, env)
            elif isinstance(s, FreeStmt):
                acct.free(s)
            elif isinstance(s, HostLoopStmt):
                self._exec_loop(s, env)
            elif isinstance(s, HostIfStmt):
                cond = self._atom(env, s.cond)
                body, result = (
                    (s.then_body, s.then_result)
                    if cond.value
                    else (s.else_body, s.else_result)
                )
                inner_env = dict(env)
                self._exec_stmts(body, inner_env)
                for p, a in zip(s.pat, result):
                    bind(env, p, self._atom(inner_env, a))
            else:  # pragma: no cover
                raise CompilerBug(
                    "simulate", "execute", f"unknown host statement {s!r}"
                )

    def _exec_loop(self, s: HostLoopStmt, env: Dict[str, Value]) -> None:
        state: List[Value] = [self._atom(env, a) for _, a in s.merge]
        params = [p for p, _ in s.merge]
        acct = self.accounting
        copies_us = acct.loop_copies(s, env)

        def iterate(extra: Dict[str, Value]) -> None:
            inner: Dict[str, Value] = dict(env)
            inner.update(extra)
            for p, v in zip(params, state):
                self._interp.bind_param(inner, p, v)
            self._exec_stmts(s.body, inner)
            state[:] = [self._atom(inner, a) for a in s.body_result]
            acct.loop_copy(copies_us)

        if isinstance(s.form, A.ForLoop):
            for i in range(int(self._atom(env, s.form.bound).value)):
                iterate({s.form.ivar: scalar(i, I32)})
        else:
            cond_index = next(
                k for k, p in enumerate(params) if p.name == s.form.cond
            )
            while state[cond_index].value:
                iterate({})
        for p, v in zip(s.pat, state):
            self._interp.bind_param(env, p, v)
