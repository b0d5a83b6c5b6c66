"""The simulator prices a launch once per (kernel, sizes).

``kernel_cost`` is a pure function of the kernel (its layouts
included), the size variables its ``Count``s and output shapes name and
the device; the engine's :class:`DeviceAccounting` memoises it in
``HostProgram.launch_costs``.  The
reference here is the formula the memo replaced — ``kernel_cost`` on
every launch — and every benchmark must report bit-identical costs with
the memo cold and warm.  (That the sizes a launch names are all
``kernel_cost`` reads is ``tests/gpu/test_estimate.py``'s: the estimate
prices every kernel over the whole size environment.)
"""

import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import array_value, scalar
from repro.core.prim import F32, I32
from repro.gpu import AMD_W8100, NVIDIA_GTX780TI
from repro.gpu.costmodel import MEMO_SIZE, KernelCost, kernel_cost
from repro.gpu.simulator import DeviceAccounting
from repro.pipeline import CompilerOptions, compile_program, compile_source
from repro.vm import JitEngine


class _PerLaunchPricing(DeviceAccounting):
    """The un-memoised books: price every launch from scratch."""

    def price(self, kernel, sizes):
        env = {
            n: v for n, v in zip(kernel.size_names, sizes) if v is not None
        }
        return kernel_cost(kernel, env, self.device)


def _per_launch_engine(device, **options):
    """A jit engine on :class:`_PerLaunchPricing` books."""
    engine = JitEngine(device, **options)
    engine.accounting = _PerLaunchPricing(device)
    return engine


def _signature(report):
    return (
        report.kernel_costs, report.host_us, report.manifest_us,
        report.copy_us, report.total_us, report.mem_peak_bytes,
        report.mem_alloc_count, report.mem_reuse_count,
    )


@pytest.mark.parametrize("name", list(BENCHMARKS.names()))
def test_cold_and_warm_memo_report_what_per_launch_pricing_does(name):
    spec = BENCHMARKS[name]
    compiled = compile_program(spec.program())
    args = spec.small_args(np.random.default_rng(0))

    def run(engine_cls):
        engine = engine_cls(NVIDIA_GTX780TI, prog=compiled.core)
        return engine.run(compiled.host, args)[1]

    want = _signature(run(_per_launch_engine))
    memo = compiled.host.launch_costs[NVIDIA_GTX780TI]
    assert not memo
    cold = run(JitEngine)
    assert memo, "the run priced nothing"
    warm = run(JitEngine)
    assert _signature(cold) == want
    assert _signature(warm) == want
    # Warm launches are served from the memo: the very same objects.
    assert all(
        a is b for a, b in zip(cold.kernel_costs, warm.kernel_costs)
    )


SRC = r"""
fun main (xs: [n]f32) (k: i32): [n]f32 =
  loop (ys = xs) for i < k do map (\(y: f32) -> y * 2.0f32) ys
"""


def _args(n, k=3):
    return [array_value(np.ones(n, dtype=np.float32), F32), scalar(k, I32)]


def test_key_is_the_sizes_the_kernel_names_and_the_device():
    compiled = compile_source(SRC)
    host = compiled.host
    (kernel,) = {k.name: k for k in host.kernels()}.values()
    assert kernel.size_names == ("n",)

    def run(n, k=3, device=NVIDIA_GTX780TI):
        engine = JitEngine(device, prog=compiled.core)
        return engine.run(host, _args(n, k))[1]

    a = run(8)
    nv = host.launch_costs[NVIDIA_GTX780TI]
    assert list(nv) == [(kernel.name, (8,))]
    # The host loop replayed one price; a different trip count (a
    # variable the kernel does not name) still hits it.
    assert len({id(c) for c in a.kernel_costs}) == 1
    assert run(8, k=5).kernel_costs[0] is a.kernel_costs[0]
    # Another size or device is another price.
    assert run(16).kernel_costs[0].threads == 16.0
    assert len(nv) == 2
    amd = run(8, device=AMD_W8100).kernel_costs[0]
    assert amd is not a.kernel_costs[0]
    assert amd.time_us != a.kernel_costs[0].time_us
    assert set(host.launch_costs) == {NVIDIA_GTX780TI, AMD_W8100}


#: A row traversal (§5.2): each thread walks its row.
ROWS = r"""
fun main (m: [a][b]f32): [a]f32 =
  map (\(row: [b]f32) ->
    loop (acc = 0.0f32) for j < b do acc + row[j]) m
"""


def test_a_layout_is_the_compiles_not_the_memo_keys():
    """Coalescing is decided where the pass records a layout: a program
    compiled without it is another program, with its own memo and its
    own prices, and the harness shim's ``coalescing=`` changes
    nothing."""
    args = [array_value(np.ones((64, 32), dtype=np.float32), F32)]
    on = compile_source(ROWS)
    off = compile_source(
        ROWS, CompilerOptions(disabled_passes=("coalescing",))
    )
    assert any(k.layouts for k in on.host.kernels())
    assert not any(k.layouts for k in off.host.kernels())

    def price(compiled, **shim):
        engine = JitEngine(NVIDIA_GTX780TI, prog=compiled.core, **shim)
        return engine.run(compiled.host, args)[1]

    fast, slow = price(on), price(off)
    # (At this size the transposition itself costs more than it saves.)
    assert slow.kernel_costs[0].time_us > fast.kernel_costs[0].time_us
    assert set(on.host.launch_costs) == {NVIDIA_GTX780TI}
    assert set(off.host.launch_costs) == {NVIDIA_GTX780TI}
    # A contradicting run-time flag hits the same memo entries.
    contradicted = price(on, coalescing=False)
    assert contradicted.kernel_costs == fast.kernel_costs
    assert all(
        a is b for a, b in zip(contradicted.kernel_costs, fast.kernel_costs)
    )


def test_memo_is_bounded():
    compiled = compile_source(SRC)
    engine = JitEngine(NVIDIA_GTX780TI, prog=compiled.core)
    last = MEMO_SIZE + 8
    for n in range(1, last + 1):
        engine.run(compiled.host, _args(n, k=1))
        (memo,) = compiled.host.launch_costs.values()
        assert len(memo) <= MEMO_SIZE
    # At the bound the oldest price goes, one per insert — the rule of
    # the program's other two memos (``costmodel.memo_insert``).  A
    # memo that cleared itself would hold 8 entries here, and a server
    # seeing varied batch sizes would re-price every launch every 64.
    assert [sizes for _, sizes in memo] == [
        (n,) for n in range(last - MEMO_SIZE + 1, last + 1)
    ]


def test_shared_cost_cannot_be_edited_through_a_report():
    compiled = compile_source(SRC)
    engine = JitEngine(NVIDIA_GTX780TI, prog=compiled.core)
    report = engine.run(compiled.host, _args(4))[1]
    assert isinstance(report.kernel_costs[0], KernelCost)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.kernel_costs[0].time_us = 0.0
    # ``scaled`` builds new costs and leaves the shared ones alone.
    before = report.kernel_costs[0].time_us
    assert report.scaled(2.0).kernel_costs[0].time_us == 2.0 * before
    assert report.kernel_costs[0].time_us == before


def test_memo_is_process_state_not_part_of_the_program():
    compiled = compile_source(SRC)
    host = compiled.host
    pristine = pickle.dumps(host)
    JitEngine(NVIDIA_GTX780TI, prog=compiled.core).run(host, _args(4))
    assert host.launch_costs
    # The memo is not persisted: a program loaded from disk starts
    # with an empty one and compares equal to the one that has run.
    thawed = pickle.loads(pickle.dumps(host))
    assert thawed.launch_costs == {}
    assert thawed == host
    # An artifact written before the field existed loads the same way.
    old = pickle.loads(pristine)
    assert old.launch_costs == {}
    report = JitEngine(NVIDIA_GTX780TI, prog=compiled.core).run(
        old, _args(4)
    )[1]
    assert report.total_us > 0


def test_concurrent_runs_share_the_memo_without_changing_a_price():
    """Serving workers run one host program from many threads; the
    memo is a plain dict of pure values, so a lost update costs a
    re-pricing and never a different number."""
    compiled = compile_source(SRC)
    want = _per_launch_engine(NVIDIA_GTX780TI, prog=compiled.core).run(
        compiled.host, _args(32, k=4)
    )[1].total_us
    totals, errors = [], []

    def worker(seed):
        try:
            engine = JitEngine(NVIDIA_GTX780TI, prog=compiled.core)
            for i in range(40):
                # Distinct sizes force fills and bound-triggered
                # evictions to interleave with the hits on n == 32.
                engine.run(compiled.host, _args(1 + (seed * 40 + i) % 90, 1))
                totals.append(
                    engine.run(compiled.host, _args(32, k=4))[1].total_us
                )
        except Exception as ex:  # surfaced below, on the main thread
            errors.append(ex)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(totals) == 8 * 40
    assert set(totals) == {want}
