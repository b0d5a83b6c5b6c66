"""The analytic kernel cost model.

Each kernel is timed with a roofline formula::

    time = launch_overhead + max(memory_time, compute_time) / occupancy

where memory time is the effective DRAM traffic (coalesced bytes at
full bandwidth; uncoalesced/gathered bytes multiplied by the device
penalty; invariant broadcasts amortised over a warp; tiled arrays
amortised over a work group plus local-memory traffic) and compute
time is the flop count at the device's achievable throughput.
Host-side statements, manifestation (transposition) and double-buffer
copies are costed directly.

Costs are *closed-form in the program's size variables* (symbolic
`Count` polynomials), so a host program can be priced at the paper's
full dataset sizes without executing it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import ast as A
from ..core.types import Array
from ..core.values import ArrayValue, ScalarValue, Value
from ..memory.index_fn import IndexFn
from ..backend.kernel_ir import (
    AccessInfo,
    AllocStmt,
    Count,
    FreeStmt,
    HostEval,
    HostIfStmt,
    HostLoopStmt,
    HostProgram,
    Kernel,
    LaunchStmt,
    ManifestStmt,
)
from .device import DeviceProfile

__all__ = [
    "KernelCost",
    "CostReport",
    "kernel_cost",
    "size_env_from_args",
    "estimate_program",
    "request_price_us",
]

_HOST_EVAL_US = 0.3


@dataclass(frozen=True)
class KernelCost:
    """One launch's price.  Frozen: the simulator hands the same
    instance to every report that replays a memoised launch."""

    name: str
    kind: str
    launches: float
    time_us: float
    mem_us: float
    compute_us: float
    bytes_effective: float
    bytes_raw: float
    flops: float
    #: Fraction of device throughput this kernel's thread count earns
    #: (recorded for observability; 0.0 in legacy constructions).
    occupancy: float = 0.0
    #: Thread count the kernel was priced at.
    threads: float = 0.0

    def cycles(self, device: "DeviceProfile") -> float:
        """Simulated core-clock cycles: time × clock (µs × MHz)."""
        return self.time_us * device.clock_mhz


@dataclass
class CostReport:
    device: str
    kernel_costs: List[KernelCost] = field(default_factory=list)
    host_us: float = 0.0
    manifest_us: float = 0.0
    copy_us: float = 0.0
    #: Peak device-memory footprint (bytes) and allocation accounting;
    #: filled from the :class:`repro.gpu.heap.DeviceHeap` by the
    #: simulator, or statically by :func:`estimate_program`.
    mem_peak_bytes: int = 0
    mem_alloc_count: int = 0
    mem_reuse_count: int = 0

    @property
    def mem_peak_mb(self) -> float:
        return self.mem_peak_bytes / (1024.0**2)

    @property
    def total_us(self) -> float:
        return (
            sum(k.time_us for k in self.kernel_costs)
            + self.host_us
            + self.manifest_us
            + self.copy_us
        )

    @property
    def total_ms(self) -> float:
        return self.total_us / 1000.0

    @property
    def launches(self) -> float:
        return sum(k.launches for k in self.kernel_costs)

    def scaled(self, factor: float) -> "CostReport":
        report = CostReport(self.device)
        report.kernel_costs = [
            KernelCost(
                k.name,
                k.kind,
                k.launches * factor,
                k.time_us * factor,
                k.mem_us * factor,
                k.compute_us * factor,
                k.bytes_effective * factor,
                k.bytes_raw * factor,
                k.flops * factor,
                k.occupancy,
                k.threads,
            )
            for k in self.kernel_costs
        ]
        report.host_us = self.host_us * factor
        report.manifest_us = self.manifest_us * factor
        report.copy_us = self.copy_us * factor
        # Footprint is a high-water mark, not a rate: repeating the
        # work does not change the peak.
        report.mem_peak_bytes = self.mem_peak_bytes
        report.mem_alloc_count = self.mem_alloc_count
        report.mem_reuse_count = self.mem_reuse_count
        return report

    def merge(self, other: "CostReport") -> None:
        self.kernel_costs.extend(other.kernel_costs)
        self.host_us += other.host_us
        self.manifest_us += other.manifest_us
        self.copy_us += other.copy_us
        self.mem_peak_bytes = max(
            self.mem_peak_bytes, other.mem_peak_bytes
        )
        self.mem_alloc_count += other.mem_alloc_count
        self.mem_reuse_count += other.mem_reuse_count


#: Traffic and launch multipliers per kernel kind: a scan is a
#: multi-pass algorithm; reductions have a (cheap) second stage.
_KIND_TRAFFIC = {
    "scan": 2.5,
    "segscan": 2.0,
    "filter": 3.0,  # predicate pass + prefix sum + compaction
}
_KIND_LAUNCHES = {
    "reduce": 2.0,
    "stream_red": 2.0,
    "scan": 3.0,
    "segscan": 2.0,
    "filter": 3.0,
}


def _occupancy(threads: float, device: DeviceProfile) -> float:
    """Fraction of the device's throughput a kernel can use.  The floor
    models that even a single thread sustains a small fraction of peak
    (needed for reference codes that leave a reduction sequential)."""
    if threads <= 0:
        return 1e-6
    # A power law rather than linear scaling: a handful of threads
    # still pipeline memory requests (latency hiding via ILP), so
    # per-thread throughput is relatively higher at low counts.
    return min(1.0, (threads / device.saturation_threads) ** 0.7)


def kernel_cost(
    kernel: Kernel,
    size_env: Mapping[str, int],
    device: DeviceProfile,
) -> KernelCost:
    threads = max(1.0, kernel.threads().evaluate(size_env))
    flops = kernel.flops_per_thread.evaluate(size_env) * threads

    bytes_raw = 0.0
    bytes_eff = 0.0
    tiled = {t.array for t in kernel.tiles}
    for acc in _dedupe_stencil_reads(kernel.accesses, size_env):
        per_thread = acc.trips.evaluate(size_env)
        raw = per_thread * threads * acc.elem_bytes
        bytes_raw += raw
        if acc.invariant:
            if acc.array in tiled:
                # Staged through local memory once per work group.
                eff = raw / device.block + raw / device.local_bandwidth_ratio
            else:
                # Broadcast through L2: cheaper than DRAM but far from
                # free — the L2 is shared by all work groups.
                eff = raw / 3.0
        elif acc.gather:
            eff = raw * device.gather_penalty
        else:
            layout = kernel.layouts.get(
                acc.array, IndexFn.identity(acc.thread_dims + acc.seq_rank)
            )
            if acc.coalesced_under(layout, len(kernel.grid)):
                eff = raw
            else:
                eff = raw * device.uncoalesced_penalty
        bytes_eff += eff

    # Kernel outputs not already recorded as write accesses (reduction
    # and scan results) are written coalesced.
    recorded_writes = {a.array for a in kernel.accesses if a.is_write}
    for p in kernel.pat:
        if p.name in recorded_writes:
            continue
        if isinstance(p.type, Array):
            out_bytes = Count.of(1.0, *p.type.shape).evaluate(size_env)
            out_bytes *= p.type.elem.nbytes
        else:
            out_bytes = 4.0
        bytes_raw += out_bytes
        bytes_eff += out_bytes

    traffic_factor = _KIND_TRAFFIC.get(kernel.kind, 1.0)
    launches = _KIND_LAUNCHES.get(kernel.kind, 1.0)
    bytes_eff *= traffic_factor

    occ = _occupancy(threads, device)
    mem_us = bytes_eff * device.mem_us_per_byte() / occ
    compute_us = flops * device.flop_us() / occ
    time_us = launches * device.launch_overhead_us + max(
        mem_us, compute_us
    )
    return KernelCost(
        name=kernel.name,
        kind=kernel.kind,
        launches=launches,
        time_us=time_us,
        mem_us=mem_us,
        compute_us=compute_us,
        bytes_effective=bytes_eff,
        bytes_raw=bytes_raw,
        flops=flops,
        occupancy=occ,
        threads=threads,
    )


def _propagate_scalar(binding, size_env) -> None:
    """Track host-computed integer scalars (e.g. ``rc = r * c``) so
    kernel widths derived from them are priced correctly."""
    if len(binding.pat) != 1 or not isinstance(size_env, dict):
        return
    e = binding.exp
    name = binding.pat[0].name

    def val(a):
        if isinstance(a, A.Const):
            return int(a.value) if isinstance(a.value, int) else None
        return size_env.get(a.name)

    if isinstance(e, A.AtomExp):
        v = val(e.atom)
        if v is not None:
            size_env[name] = v
    elif isinstance(e, A.BinOpExp):
        x, y = val(e.x), val(e.y)
        if x is None or y is None:
            return
        try:
            from ..core.prim import BINOPS, eval_binop

            size_env[name] = int(eval_binop(BINOPS[e.op], e.t, x, y))
        except Exception:
            pass


# The three prices that are not a kernel's: charged by the simulator
# per statement executed and by ``_estimate_stmts`` times trip counts.

_TOUCHES_DEVICE = (
    A.IndexExp, A.UpdateExp, A.RearrangeExp, A.ReshapeExp,
    A.CopyExp, A.ConcatExp,
)


def host_stmt_us(e: A.Exp, device: DeviceProfile) -> float:
    """One host statement: those that read or write device arrays
    synchronise with the device; pure scalar arithmetic does not."""
    if isinstance(e, _TOUCHES_DEVICE):
        return device.host_sync_us
    return _HOST_EVAL_US


def manifest_price(
    s: ManifestStmt, size_env: Mapping[str, int], device: DeviceProfile
) -> Tuple[float, float]:
    """``(bytes moved, µs)`` of one manifestation: a transposing copy
    reads and writes every element, at the device's transpose
    efficiency, behind one launch."""
    bytes_moved = s.elems.evaluate(size_env) * s.elem_bytes * 2.0
    return bytes_moved, (
        device.launch_overhead_us
        + bytes_moved
        * device.mem_us_per_byte()
        / device.transpose_efficiency
    )


def loop_copy_us(
    s: HostLoopStmt, size_env: Mapping[str, int], device: DeviceProfile
) -> List[float]:
    """What one iteration of ``s`` pays to copy each double-buffered
    array of its merge state (read plus write), at ``size_env``.  Per
    array, not summed: the simulator adds them to its clock one at a
    time, and float addition does not re-associate."""
    out: List[float] = []
    for p, _ in s.merge:
        if p.name in s.double_buffered and isinstance(p.type, Array):
            elems = Count.of(1.0, *p.type.shape).evaluate(size_env)
            out.append(
                (elems * p.type.elem.nbytes * 2.0) * device.mem_us_per_byte()
            )
    return out


def _dedupe_stencil_reads(accesses, size_env):
    """Collapse multiple reads of the same array with the same access
    class (the 5-point-stencil pattern): neighbouring reads hit the
    cache, so the extra streams cost a fraction of a full pass."""
    from collections import defaultdict

    groups: Dict[tuple, List[AccessInfo]] = defaultdict(list)
    out: List[AccessInfo] = []
    for acc in accesses:
        if acc.is_write or acc.gather:
            out.append(acc)
            continue
        key = (acc.array, acc.thread_dims, acc.seq_rank, acc.invariant)
        groups[key].append(acc)
    for group in groups.values():
        if len(group) == 1:
            out.append(group[0])
            continue
        trips = [a.trips.evaluate(size_env) for a in group]
        biggest = group[max(range(len(group)), key=lambda i: trips[i])]
        extra = sum(trips) - max(trips)
        # One full stream plus a quarter-cost for each extra (cached).
        merged = AccessInfo(
            array=biggest.array,
            elem_bytes=biggest.elem_bytes,
            trips=Count.of(max(trips) + 0.25 * extra),
            thread_dims=biggest.thread_dims,
            seq_rank=biggest.seq_rank,
            gather=False,
            invariant=biggest.invariant,
        )
        out.append(merged)
    return out


def _atom_value(a: A.Atom, size_env: Mapping[str, int]) -> Optional[int]:
    if isinstance(a, A.Const):
        return int(a.value)
    v = size_env.get(a.name)
    return int(v) if v is not None else None


def size_env_from_args(
    hp: HostProgram, args: Sequence[Value]
) -> Dict[str, int]:
    """Bind the program's size variables from the actual arguments:
    integral scalar parameters by name, array dimensions by zipping
    each parameter's symbolic shape against the value's shape.  (An
    unbound dimension prices as 1, so every pricing caller binds
    through here.)"""
    env: Dict[str, int] = {}
    for p, v in zip(hp.params, args):
        if isinstance(v, ScalarValue) and v.type.is_integral:
            env.setdefault(p.name, int(v.value))
        elif isinstance(v, ArrayValue) and isinstance(p.type, Array):
            for dim, size in zip(p.type.shape, v.data.shape):
                if isinstance(dim, str):
                    env.setdefault(dim, int(size))
    return env


def estimate_program(
    hp: HostProgram,
    size_env: Mapping[str, int],
    device: DeviceProfile,
) -> CostReport:
    """Price a host program analytically at the given sizes, without
    executing it.  Host loops multiply their body's cost by the trip
    count (:data:`LOOP_TRIP_DEFAULT` when it cannot be resolved)."""
    from .heap import DeviceHeap

    report = CostReport(device.name)
    env = dict(size_env)
    heap = DeviceHeap(capacity_bytes=None)  # accounting only
    for p in hp.params:
        block = hp.blocks.get(p.name)
        if block is not None and isinstance(p.type, Array):
            heap.alloc(block.name, block.size_bytes(env))
    _estimate_stmts(hp.stmts, env, device, report, heap)
    report.mem_peak_bytes = heap.stats.peak_bytes
    report.mem_alloc_count = heap.stats.alloc_count
    report.mem_reuse_count = heap.stats.reuse_count
    return report


_UNPRICED = object()
_MEMO_LOCK = threading.Lock()

#: Bound on each of a host program's price memos (``price_cache``, a
#: ``launch_costs`` slice).
MEMO_SIZE = 64


def memo_insert(memo: dict, key, value) -> None:
    """Insert into a bounded per-program memo.  At the bound the
    oldest entry goes (dict order), not the whole memo: a server
    seeing varied batch sizes prices a few shard sizes per request and
    must not re-walk everything every few requests.  Under one lock:
    serving workers share the memos (a hit is a bare ``dict.get``)."""
    with _MEMO_LOCK:
        if key not in memo and len(memo) >= MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = value


def request_price_us(
    hp: HostProgram,
    size_env: Mapping[str, int],
    device: DeviceProfile,
) -> Optional[float]:
    """What one request for ``hp`` at these sizes costs on ``device``
    (``estimate_program(...).total_us``), memoised on the program:
    admission and placement price the same few (program, sizes) pairs
    constantly.  None for a program the model cannot price (not an
    error — it just gets no priority and no meaningful estimate)."""
    key = (device, tuple(sorted(size_env.items())))
    hit = hp.price_cache.get(key, _UNPRICED)
    if hit is _UNPRICED:
        try:
            hit = estimate_program(hp, size_env, device).total_us
        except Exception:
            hit = None
        memo_insert(hp.price_cache, key, hit)
    return hit


#: Backstop on per-loop heap replay iterations; every paper-scale
#: dataset is far below it (max trip count is 5000), so in practice the
#: replay is exact.
_REPLAY_CAP = 100_000

#: The trip count the estimate assumes for a host loop whose bound it
#: cannot resolve (a ``while`` loop, or a bound no size determines).
LOOP_TRIP_DEFAULT = 8


def _trips(s: HostLoopStmt, size_env: Mapping[str, int]) -> int:
    """A host loop's trip count at ``size_env``: a ``for`` bound that
    resolves, else :data:`LOOP_TRIP_DEFAULT`."""
    if isinstance(s.form, A.ForLoop):
        resolved = _atom_value(s.form.bound, size_env)
        if resolved is not None:
            return resolved
    return LOOP_TRIP_DEFAULT


def _heap_effect(s, size_env: Mapping[str, int], heap) -> None:
    """Charge ``heap`` for an alloc or free statement (else nothing)."""
    if isinstance(s, AllocStmt):
        heap.alloc(
            s.block.name,
            s.block.size_bytes(size_env),
            reuse_of=s.reuse_of,
            recycle=s.recycle,
        )
    elif isinstance(s, FreeStmt):
        heap.free(s.block)


def _replay_heap(stmts, size_env: Mapping[str, int], heap) -> None:
    """Apply only the heap effects of one execution of ``stmts``
    (nested loops replay their own trip count)."""
    for s in stmts:
        _heap_effect(s, size_env, heap)
        if isinstance(s, HostLoopStmt):
            trips = _trips(s, size_env)
            for _ in range(max(1, min(int(trips), _REPLAY_CAP))):
                _replay_heap(s.body, size_env, heap)
        elif isinstance(s, HostIfStmt):
            _replay_heap(s.then_body, size_env, heap)


def _estimate_stmts(
    stmts,
    size_env: Mapping[str, int],
    device: DeviceProfile,
    report: CostReport,
    heap,
) -> None:
    for s in stmts:
        _heap_effect(s, size_env, heap)
        if isinstance(s, LaunchStmt):
            if s.elide_copy is not None:
                continue  # planner removed this copy outright
            report.kernel_costs.append(
                kernel_cost(s.kernel, size_env, device)
            )
        elif isinstance(s, HostEval):
            report.host_us += host_stmt_us(s.binding.exp, device)
            _propagate_scalar(s.binding, size_env)
        elif isinstance(s, ManifestStmt):
            report.manifest_us += manifest_price(s, size_env, device)[1]
        elif isinstance(s, HostLoopStmt):
            trips = _trips(s, size_env)
            inner = CostReport(device.name)
            _estimate_stmts(s.body, size_env, device, inner, heap)
            copy_us = 0.0
            for us in loop_copy_us(s, size_env, device):
                copy_us += us
            inner.copy_us += copy_us
            report.merge(inner.scaled(trips))
            # The walk above charged the heap for one iteration; the
            # remaining trips replay the body's alloc/free schedule so
            # the peak reflects what actually accumulates across
            # iterations (the naive never-free schedule leaks there).
            for _ in range(max(0, min(int(trips), _REPLAY_CAP) - 1)):
                _replay_heap(s.body, size_env, heap)
        elif isinstance(s, HostIfStmt):
            inner = CostReport(device.name)
            _estimate_stmts(s.then_body, size_env, device, inner, heap)
            report.merge(inner)
