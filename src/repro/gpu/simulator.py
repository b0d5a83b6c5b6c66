"""Functional execution of host programs on the simulated device.

Kernels are executed through the reference interpreter (each kernel
carries the core-IR expression it was lowered from), so simulation
results are bit-identical to direct interpretation; alongside, the
simulator accrues the cost model's time for every statement executed,
with occupancy and traffic computed from the *actual* runtime sizes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import ast as A
from ..core.values import ArrayValue, ScalarValue, Value, scalar
from ..core.prim import I32
from ..interp.interpreter import Interpreter, InterpError
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
    manifest_price, memo_insert,
)
from .device import DeviceProfile
from .faults import FaultInjector
from .heap import DeviceHeap

__all__ = ["GpuSimulator"]

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


class GpuSimulator:
    """Executes a :class:`HostProgram`, producing both the result
    values and a :class:`CostReport` of simulated device time.

    ``injector`` (a :class:`repro.gpu.faults.FaultInjector`) makes the
    device unreliable: launches may raise :class:`DeviceFault`s and
    kernels may run away.  Every launch is watched: its simulated time
    budget is :data:`WATCHDOG_FACTOR` times the cost model's estimate
    for that kernel plus :data:`WATCHDOG_FLOOR_US`, and exceeding it
    raises :class:`KernelTimeout` instead of wedging the device.

    ``deadline`` (a :class:`repro.serve.Deadline`, duck-typed) is an
    externally supplied wall-clock watchdog on the *whole run*: it is
    checked before every kernel launch, and once expired the simulator
    raises :class:`repro.errors.DeadlineExceeded` instead of starting
    more work — the serving layer's per-request budget propagated all
    the way down to the device.
    """

    def __init__(
        self,
        device: DeviceProfile,
        coalescing: bool = True,
        in_place: bool = True,
        injector: Optional[FaultInjector] = None,
        prog: Optional[A.Prog] = None,
        trace_track: str = "sim-gpu",
        deadline=None,
        metric_prefix: str = "gpu",
        heap: Optional[DeviceHeap] = None,
    ) -> None:
        self.device = device
        self.coalescing = coalescing
        self.injector = injector
        #: Optional per-request wall-clock budget (``.expired`` /
        #: ``.check()``), consulted before every kernel launch.
        self.deadline = deadline
        #: Chrome-trace track this simulator's kernel spans land on;
        #: the resilient executor gives each retry attempt its own.
        self.trace_track = trace_track
        # Resolved metric instruments per kernel kind, keyed by the
        # registry they came from: launches re-use the same instruments
        # run after run, and re-rendering label keys on every launch is
        # measurable on the serving hot path.
        self._instrument_cache: Optional[Tuple[Any, Dict[str, Any]]] = None
        # Kernels normally contain no function calls (inlining runs
        # first), but when the pass guard rolls inlining back the
        # remaining calls must still resolve.
        self._interp = Interpreter(
            prog if prog is not None else A.Prog(()), in_place=in_place
        )
        #: Prefix for this engine's metric names: a pooled device gets
        #: its own ``gpu.dev{id}.*`` namespace, standalone runs keep
        #: the plain ``gpu.*`` names.
        self.metric_prefix = metric_prefix
        #: When a persistent heap is supplied (a pooled device's), it
        #: is reset-per-run rather than replaced, so its lifetime stats
        #: accumulate across requests.
        self._external_heap = heap
        self.heap = (
            heap if heap is not None else DeviceHeap(device.memory_bytes)
        )
        #: The running program's launch-price memo (set by ``run``).
        self._launch_costs: Dict[tuple, KernelCost] = {}

    def run(
        self, hp: HostProgram, args: Sequence[Value]
    ) -> Tuple[Tuple[Value, ...], CostReport]:
        if len(args) != len(hp.params):
            raise ArgumentError(
                f"{hp.name}: expected {len(hp.params)} arguments, "
                f"got {len(args)}"
            )
        env: Dict[str, Value] = {}
        for p, arg in zip(hp.params, args):
            if isinstance(arg, ArrayValue):
                arg = arg.copy()
            self._interp.bind_param(env, p, arg)
        report = CostReport(self.device.name)
        # Fresh per-run byte accounting against the device capacity:
        # a persistent pool heap is reset (accumulating lifetime
        # stats), a standalone heap is simply replaced.
        if self._external_heap is not None:
            self.heap = self._external_heap
            self.heap.reset_run()
        else:
            self.heap = DeviceHeap(self.device.memory_bytes)
        size_env = self._size_env(env)
        for p in hp.params:
            block = hp.blocks.get(p.name)
            if block is not None and isinstance(p.type, Array):
                self.heap.alloc(block.name, block.size_bytes(size_env))
        self._launch_costs = hp.launch_costs.setdefault(
            (self.device, self.coalescing), {}
        )
        self._exec_stmts(hp.stmts, env, report)
        results = tuple(self._atom(env, a) for a in hp.result)
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
        return results, report

    # -- execution ----------------------------------------------------------

    def _eval_kernel(
        self, kernel, env: Dict[str, Value]
    ) -> Tuple[Value, ...]:
        """Compute the values a kernel launch produces.

        The base simulator hands the kernel's core-IR expression to the
        scalar reference interpreter; execution engines with a faster
        substrate (``repro.vm.JitEngine``) override this hook and
        must produce the same values."""
        return self._interp.eval_exp(kernel.exp, env)

    def _atom(self, env: Dict[str, Value], a: A.Atom) -> Value:
        if isinstance(a, A.Const):
            return scalar(a.value, a.type)
        try:
            return env[a.name]
        except KeyError:
            raise InterpError(f"unbound variable {a.name}") from None

    def _size_env(self, env: Mapping[str, Value]) -> Dict[str, int]:
        """Every size variable ``env`` binds: built once per run, for
        the parameter blocks; statements read ``_sizes_for`` theirs."""
        out: Dict[str, int] = {}
        for k, v in env.items():
            size = _size_of(v)
            if size is not None:
                out[k] = size
        return out

    def _launch_cost(self, kernel, env: Mapping[str, Value]) -> KernelCost:
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

    def _exec_stmts(
        self,
        stmts: Sequence,
        env: Dict[str, Value],
        report: CostReport,
    ) -> None:
        for s in stmts:
            if isinstance(s, LaunchStmt):
                kernel = s.kernel
                if s.elide_copy is not None and s.elide_copy in env:
                    # The memory planner proved the source dies here:
                    # the copy is a no-op and the result aliases it.
                    src_val = env[s.elide_copy]
                    for p in kernel.pat:
                        self._interp.bind_param(env, p, src_val)
                    continue
                if self.deadline is not None:
                    self.deadline.check(f"launch of {kernel.name}")
                if self.injector is not None:
                    self.injector.before_launch(kernel.name)
                values = self._eval_kernel(kernel, env)
                cost = self._launch_cost(kernel, env)
                consumed = self._watchdog(kernel.name, cost.time_us)
                for p, v in zip(kernel.pat, values):
                    self._interp.bind_param(env, p, v)
                # The simulated-clock cursor: everything accrued so far.
                sim_ts = report.total_us
                report.kernel_costs.append(cost)
                self._observe_launch(cost, sim_ts, consumed)
            elif isinstance(s, HostEval):
                values = self._interp.eval_exp(s.binding.exp, env)
                for p, v in zip(s.binding.pat, values):
                    self._interp.bind_param(env, p, v)
                report.host_us += host_stmt_us(s.binding.exp, self.device)
            elif isinstance(s, ManifestStmt):
                # Layout change only; the logical value is unchanged.
                if s.src != s.dst and s.src in env:
                    env[s.dst] = env[s.src]
                bytes_moved, manifest_us = manifest_price(
                    s, _sizes_for(s.elems, env), self.device
                )
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
            elif isinstance(s, AllocStmt):
                size = s.block.size_bytes(_sizes_for(s.block.elems, env))
                self.heap.alloc(
                    s.block.name, size,
                    reuse_of=s.reuse_of, recycle=s.recycle,
                )
                self._observe_mem(report)
            elif isinstance(s, FreeStmt):
                self.heap.free(s.block)
                self._observe_mem(report)
            elif isinstance(s, HostLoopStmt):
                self._exec_loop(s, env, report)
            elif isinstance(s, HostIfStmt):
                cond = self._atom(env, s.cond)
                body, result = (
                    (s.then_body, s.then_result)
                    if cond.value
                    else (s.else_body, s.else_result)
                )
                inner_env = dict(env)
                self._exec_stmts(body, inner_env, report)
                for p, a in zip(s.pat, result):
                    self._interp.bind_param(
                        env, p, self._atom(inner_env, a)
                    )
            else:  # pragma: no cover
                raise CompilerBug(
                    "simulate", "execute", f"unknown host statement {s!r}"
                )

    def _observe_mem(self, report: CostReport) -> None:
        """Sample the heap onto the Chrome-trace memory counter track
        (one counter event per alloc/free, at the simulated clock)."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter(
                f"{self.metric_prefix}.mem.live_bytes",
                float(self.heap.live_bytes),
                ts_us=report.total_us,
                track=self.trace_track,
            )

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

    def _observe_launch(
        self, cost, sim_ts: float, watchdog_consumed: float
    ) -> None:
        """Record one kernel launch on the trace (a span on this
        simulator's simulated-time track) and in the metrics registry.
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
            inst = self._launch_instruments(metrics, cost)
            inst["launches"].inc(cost.launches)
            inst["sim_time_us"].inc(cost.time_us)
            inst["cycles"].inc(cycles)
            inst["bytes_effective"].inc(cost.bytes_effective)
            inst["bytes_raw"].inc(cost.bytes_raw)
            inst["flops"].inc(cost.flops)
            inst["kernel_time_us"].observe(cost.time_us)
            inst["occupancy"].observe(cost.occupancy)
            inst["watchdog_consumed"].observe(watchdog_consumed)

    def _launch_instruments(self, metrics, cost) -> Dict[str, Any]:
        """The instrument bundle of ``cost``'s kernel kind, resolved
        once per (registry, kind) and reused on every later launch."""
        cache = self._instrument_cache
        if cache is None or cache[0] is not metrics:
            cache = (metrics, {})
            self._instrument_cache = cache
        inst = cache[1].get(cost.kind)
        if inst is None:
            pfx = self.metric_prefix
            inst = cache[1][cost.kind] = {
                "launches": metrics.counter(
                    f"{pfx}.launches", kind=cost.kind
                ),
                "sim_time_us": metrics.counter(f"{pfx}.sim_time_us"),
                "cycles": metrics.counter(f"{pfx}.cycles"),
                "bytes_effective": metrics.counter(
                    f"{pfx}.bytes_effective"
                ),
                "bytes_raw": metrics.counter(f"{pfx}.bytes_raw"),
                "flops": metrics.counter(f"{pfx}.flops"),
                "kernel_time_us": metrics.histogram(
                    f"{pfx}.kernel_time_us"
                ),
                "occupancy": metrics.histogram(
                    f"{pfx}.occupancy",
                    buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
                ),
                "watchdog_consumed": metrics.histogram(
                    f"{pfx}.watchdog_consumed",
                    buckets=(0.05, 0.125, 0.25, 0.5, 0.75, 1.0),
                ),
            }
        return inst

    def _exec_loop(
        self,
        s: HostLoopStmt,
        env: Dict[str, Value],
        report: CostReport,
    ) -> None:
        state: List[Value] = [self._atom(env, a) for _, a in s.merge]
        params = [p for p, _ in s.merge]
        # ``env`` is not rebound while the loop runs, so neither are
        # the sizes the copied arrays' shapes name.
        copies_us = loop_copy_us(
            s, lambda count: _sizes_for(count, env), self.device
        )

        def iterate(extra: Dict[str, Value]) -> None:
            inner: Dict[str, Value] = dict(env)
            inner.update(extra)
            for p, v in zip(params, state):
                self._interp.bind_param(inner, p, v)
            self._exec_stmts(s.body, inner, report)
            results = [self._atom(inner, a) for a in s.body_result]
            state[:] = results
            for us in copies_us:
                report.copy_us += us

        if isinstance(s.form, A.ForLoop):
            bound = self._atom(env, s.form.bound)
            for i in range(int(bound.value)):
                iterate({s.form.ivar: scalar(i, I32)})
        else:
            cond_index = next(
                k for k, p in enumerate(params) if p.name == s.form.cond
            )
            while True:
                cond = state[cond_index]
                if not cond.value:
                    break
                iterate({})
        for p, v in zip(s.pat, state):
            self._interp.bind_param(env, p, v)
