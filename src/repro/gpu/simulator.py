"""Execution of host programs on the simulated device.

An engine is three parts, composed rather than inherited: the device's
books (:class:`DeviceAccounting`: cost clock, heap, watchdog, fault
injector, deadline, trace track and metric prefix, with one method per
host-statement kind), a kernel runner that provides one callable per
launch site (:class:`InterpRunner`, the reference interpreter, for
``sim``; :class:`repro.vm.jit.engine.JitRunner` for ``jit``), and the
program's generated host function (:mod:`repro.vm.jit.codegen.host`),
which :class:`GpuSimulator` calls with the other two.  The function
binds names as raw values, follows control flow and calls the books
once per host statement with the sizes that statement names; this
module also holds the few helpers it calls.  Simulated time, heap
statistics and the fault-injection draw order are the books' alone,
so they are identical under either runner.
"""

from __future__ import annotations

from functools import partial
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from ..core import ast as A
from ..core.values import ArrayValue, ScalarValue, Value
from ..core.prim import I32
from ..interp.interpreter import Interpreter, InterpError
from ..backend.kernel_ir import (
    AllocStmt,
    FreeStmt,
    HostEval,
    HostLoopStmt,
    HostProgram,
    ManifestStmt,
)
from ..core.types import Array
from ..errors import ArgumentError, KernelTimeout
from ..obs import get_tracer
from .costmodel import (
    CostReport, KernelCost, host_stmt_us, kernel_cost, loop_copy_us,
    manifest_price, memo_insert,
)
from .device import DeviceProfile
from .faults import FaultInjector
from .heap import DeviceHeap

__all__ = [
    "DeviceAccounting",
    "GpuSimulator",
    "InterpRunner",
    "check_argument",
    "host_function",
    "interp_launch",
    "raw_values",
    "reject",
    "unbound",
]

#: The watchdog budget: a kernel may take this many times its analytic
#: cost estimate, plus a floor so microsecond kernels aren't flaky,
#: before being killed.
WATCHDOG_FACTOR = 8.0
WATCHDOG_FLOOR_US = 100.0


class DeviceAccounting:
    """The books of one simulated device, one run at a time.

    ``injector`` (a :class:`FaultInjector`) may fail a launch or make a
    kernel run away; the watchdog kills a kernel whose simulated time
    exceeds :data:`WATCHDOG_FACTOR` times the cost model's estimate
    plus :data:`WATCHDOG_FLOOR_US` (:class:`KernelTimeout`).
    ``deadline`` (a :class:`repro.serve.Deadline`, duck-typed: a pool
    task's checkpoint also stops a cancelled task here) is checked
    before every launch.  ``heap`` is a pooled device's
    persistent :class:`DeviceHeap`, else one of the device's capacity;
    :meth:`begin` ``reset_run()``s it either way.  Spans land on
    ``trace_track`` (one per retry attempt) and carry ``metric_prefix``
    (``gpu.dev{id}`` on a pooled device) as the ``namespace`` their
    metrics fold under.
    """

    def __init__(
        self,
        device: DeviceProfile,
        *,
        injector: Optional[FaultInjector] = None,
        deadline=None,
        trace_track: str = "sim-gpu",
        metric_prefix: str = "gpu",
        heap: Optional[DeviceHeap] = None,
    ) -> None:
        self.device = device
        self.injector = injector
        self.deadline = deadline
        self.trace_track = trace_track
        self.metric_prefix = metric_prefix
        self.heap = (
            heap if heap is not None else DeviceHeap(device.memory_bytes)
        )
        #: The kernel runner computing launches' values (set by
        #: :class:`GpuSimulator`); its ``computed_by`` is each kernel
        #: span's ``runner``.
        self.runner: Any = None

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
            hp.launch_costs.setdefault(self.device, {})
        )

    def finish(self) -> CostReport:
        """Close the books: the run's heap statistics onto the clock
        (and the trace, as a ``heap`` instant); returns the run's
        report."""
        report = self.report
        stats = self.heap.stats
        report.mem_peak_bytes = stats.peak_bytes
        report.mem_alloc_count = stats.alloc_count
        report.mem_reuse_count = stats.reuse_count
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "heap",
                "mem",
                track=self.trace_track,
                namespace=self.metric_prefix,
                peak_bytes=stats.peak_bytes,
                allocs=stats.alloc_count,
                frees=stats.free_count,
                reuses=stats.reuse_count,
                alloc_bytes=stats.total_alloc_bytes,
            )
        return report

    def launch(
        self, kernel, sizes: Tuple[Optional[int], ...], run, *args
    ) -> tuple:
        """One kernel launch at ``sizes`` (the value of each of
        ``kernel.size_names``, None where no integer is bound), its
        values computed by ``run(*args)``: deadline check, fault draw,
        values, price, watchdog draw, then the span — in that order."""
        if self.deadline is not None:
            self.deadline.check(f"launch of {kernel.name}")
        if self.injector is not None:
            self.injector.before_launch(kernel.name)
        values = run(*args)
        cost = self.price(kernel, sizes)
        report = self.report
        # The simulated-clock cursor: everything accrued so far.
        sim_ts = report.total_us
        try:
            consumed = self._watchdog(kernel.name, cost.time_us)
        except KernelTimeout as e:
            # The launch ran and was killed: on the trace with its
            # error, on no report.
            self._observe_launch(
                cost, sim_ts, e.elapsed_us / e.budget_us, error=str(e)
            )
            raise
        report.kernel_costs.append(cost)
        self._observe_launch(cost, sim_ts, consumed)
        return values

    def alloc(self, s: AllocStmt, sizes: Mapping[str, int]) -> None:
        size = s.block.size_bytes(sizes)
        self.heap.alloc(
            s.block.name, size, reuse_of=s.reuse_of, recycle=s.recycle,
        )
        self._observe_mem()

    def free(self, s: FreeStmt) -> None:
        self.heap.free(s.block)
        self._observe_mem()

    def manifest(self, s: ManifestStmt, sizes: Mapping[str, int]) -> None:
        """A layout change: priced as a transposing copy, on the trace
        as a ``manifest`` span."""
        bytes_moved, manifest_us = manifest_price(s, sizes, self.device)
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
                namespace=self.metric_prefix,
                bytes_moved=bytes_moved,
            )

    def host_eval(self, s: HostEval) -> None:
        self.report.host_us += host_stmt_us(s.binding.exp, self.device)

    def loop_copies(
        self, s: HostLoopStmt, sizes: Mapping[str, int]
    ) -> List[float]:
        """What each iteration of ``s`` pays to copy its double-buffered
        state, priced once per loop at the sizes ahead of it: the loop
        does not rebind them."""
        return loop_copy_us(s, sizes, self.device)

    def loop_copy(self, copies_us: Sequence[float]) -> None:
        """Charge one iteration's copies (one addition each: float
        addition does not re-associate)."""
        report = self.report
        for us in copies_us:
            report.copy_us += us

    def price(
        self, kernel, sizes: Tuple[Optional[int], ...]
    ) -> KernelCost:
        """``kernel_cost`` of one launch at ``sizes`` (aligned with
        ``kernel.size_names``).  The price is a pure function of the
        kernel (layouts included), the size variables it names and the
        device, and a host loop or a served request replays the same
        launch every time, so it is computed once per key (shared
        through the host program, bounded and evicted like its other
        two price memos: ``costmodel.memo_insert``)."""
        memo = self._launch_costs
        key = (kernel.name, sizes)
        cost = memo.get(key)
        if cost is None:
            cost = kernel_cost(
                kernel,
                {
                    n: v for n, v in zip(kernel.size_names, sizes)
                    if v is not None
                },
                self.device,
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
        self, cost, sim_ts: float, watchdog_consumed: float, **outcome
    ) -> None:
        """Record one kernel launch on the trace: a span on this
        device's simulated-time track (``outcome`` is the ``error`` of
        one the watchdog killed).  With tracing off this costs one
        guard check."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.complete(
                f"kernel:{cost.name}",
                "kernel",
                ts_us=sim_ts,
                dur_us=cost.time_us,
                track=self.trace_track,
                namespace=self.metric_prefix,
                runner=self.runner.computed_by,
                kind=cost.kind,
                launches=cost.launches,
                threads=cost.threads,
                cycles=cost.cycles(self.device),
                mem_us=cost.mem_us,
                compute_us=cost.compute_us,
                bytes_effective=cost.bytes_effective,
                bytes_raw=cost.bytes_raw,
                flops=cost.flops,
                occupancy=cost.occupancy,
                watchdog_consumed=watchdog_consumed,
                heap_live_bytes=self.heap.live_bytes,
                **outcome,
            )


# -- what the generated host function calls ---------------------------------


def check_argument(hp: HostProgram, k: int, value) -> None:
    """Raise the :class:`ArgumentError` of an argument that is not a
    value of its parameter's declared type: a scalar for an array (or
    the reverse), another primitive type, or an array whose data is not
    of its element type's dtype.  The generated prologue calls this
    where its identity test fails; an equal type passes."""
    p = hp.params[k]
    t = p.type
    if isinstance(t, Array):
        ok = (
            isinstance(value, ArrayValue)
            and value.elem == t.elem
            and value.data.dtype == t.elem.to_dtype()
        )
    else:
        ok = isinstance(value, ScalarValue) and value.type == t.t
    if ok:
        return
    if isinstance(value, ArrayValue):
        got = f"an array of {value.elem} holding {value.data.dtype} data"
    elif isinstance(value, ScalarValue):
        got = f"a scalar of {value.type}"
    else:
        got = f"a {type(value).__name__}"
    raise ArgumentError(
        f"{hp.name}: argument {k + 1} ({p.name}) must be {t}, got {got}"
    )


def reject(interp: Interpreter, p: A.Param, raw, sizes) -> None:
    """A binding whose inline check failed, handed to the interpreter's
    own ``bind_param`` with the size variables bound ahead of it: it
    raises the error the walk over the same statements would."""
    value = (
        ArrayValue(raw, p.type.elem) if isinstance(raw, np.ndarray)
        else ScalarValue(raw, I32)  # fails as a scalar; its type is not read
    )
    env = {d: ScalarValue(v, I32) for d, v in sizes.items()}
    interp.bind_param(env, p, value)


def raw_values(values: Sequence[Value]) -> tuple:
    """Interpreter values as the raw values the host function holds."""
    return tuple(
        v.data if isinstance(v, ArrayValue) else v.value for v in values
    )


def unbound(name: str):
    """What reading a name no statement bound raises: the
    interpreter's error."""
    raise InterpError(f"unbound variable {name}")


def interp_launch(interp: Interpreter, site, *raws) -> tuple:
    """One launch on the reference interpreter: the launch signature's
    raw values, wrapped at their declared types, are its environment."""
    env = {
        name: ScalarValue(raw, prim) if scalar else ArrayValue(raw, prim)
        for (name, scalar, prim), raw in zip(site.params, raws)
    }
    return raw_values(interp.eval_exp(site.kernel.exp, env))


def host_function(hp: HostProgram):
    """The generated function of ``hp``, from its jit cache (where its
    kernels' sources are too)."""
    cache = hp.jit_cache
    if cache is None:
        from ..vm.jit.engine import jit_cache_for  # it imports this module

        cache = jit_cache_for(hp)
    return cache.host()


class InterpRunner:
    """The ``sim`` kernel runner: every launch on the scalar reference
    interpreter.  A runner is built as ``runner(interp, trace_track)``;
    ``start(hp)`` returns, once per run, one callable per launch site
    of the host function, taking the site's raw arguments and returning
    the kernel's raw values."""

    computed_by = "interp"

    def __init__(self, interp: Interpreter, trace_track: str) -> None:
        self._interp = interp

    def start(self, hp: HostProgram) -> tuple:
        interp = self._interp
        return tuple(
            partial(interp_launch, interp, site)
            for site in host_function(hp).sites
        )


class GpuSimulator:
    """Executes a :class:`HostProgram`, producing both the result
    values and a :class:`CostReport` of simulated device time.

    The program runs as its generated host function
    (:mod:`repro.vm.jit.codegen.host`), which binds names and follows
    control flow.  Every price, heap charge, fault draw and span is a
    call on :attr:`accounting` (``books`` are its options), and every
    launch's values come from ``runner`` (``repro.runtime.make_engine``
    picks it per executor).
    """

    def __init__(
        self,
        device: DeviceProfile,
        prog: Optional[A.Prog] = None,
        runner: Callable[[Interpreter, str], Any] = InterpRunner,
        **books,
    ) -> None:
        self.accounting = DeviceAccounting(device, **books)
        # Kernels normally contain no function calls (inlining runs
        # first), but when the pass guard rolls inlining back the
        # remaining calls must still resolve.
        self._interp = Interpreter(prog if prog is not None else A.Prog(()))
        self.runner = self.accounting.runner = runner(
            self._interp, self.accounting.trace_track
        )

    def run(
        self, hp: HostProgram, args: Sequence[Value]
    ) -> Tuple[Tuple[Value, ...], CostReport]:
        if len(args) != len(hp.params):
            raise ArgumentError(
                f"{hp.name}: expected {len(hp.params)} arguments, "
                f"got {len(args)}"
            )
        self._interp.in_place = hp.in_place
        launchers = self.runner.start(hp)
        return host_function(hp).fn(
            self.accounting, launchers, self._interp, args
        )
