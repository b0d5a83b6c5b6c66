"""The engine's books do not depend on its kernel runner.

An engine is a host walk over one :class:`DeviceAccounting` and a
kernel runner (the interpreter for ``sim``, the jit for ``jit``).  So
the books must see the same calls under both: for every benchmark at
``small``, the sequence of accounting calls — method, kernel or block
name, sizes, price — is identical, and so are the ``CostReport`` and
the ``HeapStats``.  Under a seeded ``FaultPlan`` the two executions
must retry the same way, fault for fault: the injector is drawn by the
books alone, in the same order.

Seeds come from ``CHAOS_SEEDS`` (default ``0,1,2``; CI's ``chaos`` job
runs three more).
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.gpu.faults import FaultPlan
from repro.gpu.simulator import DeviceAccounting
from repro.pipeline import compile_program
from repro.runtime import EXECUTORS, ExecutionPolicy

SEEDS = [
    int(s) for s in os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")
]


#: Accounting method -> (what names the call, what it charged).
RECORDED = {
    "begin": (
        lambda hp, size_env: (hp.name, tuple(sorted(size_env.items()))),
        lambda books, _: books.heap.live_bytes,
    ),
    "launch": (
        lambda kernel, sizes, run, *args: (
            kernel.name, tuple(s for s in sizes if s is not None)
        ),
        lambda books, _: books.report.kernel_costs[-1].time_us,
    ),
    "alloc": (
        lambda s, sizes: (s.block.name, s.reuse_of, s.recycle),
        lambda books, _: books.heap.live_bytes,
    ),
    "free": (
        lambda s: (s.block,),
        lambda books, _: books.heap.live_bytes,
    ),
    "manifest": (
        lambda s, sizes: (s.src, s.dst),
        lambda books, _: books.report.manifest_us,
    ),
    "host_eval": (
        lambda s: tuple(p.name for p in s.binding.pat),
        lambda books, _: books.report.host_us,
    ),
    "loop_copies": (
        lambda s, sizes: tuple(p.name for p, _ in s.merge),
        lambda books, copies: tuple(copies),
    ),
    "loop_copy": (
        lambda copies_us: (),
        lambda books, _: books.report.copy_us,
    ),
    "finish": (
        lambda: (),
        lambda books, _: dataclasses.replace(books.heap.stats),
    ),
}


@pytest.fixture
def calls(monkeypatch):
    """Every accounting call made while the test runs, in order."""
    seen = []

    def recording(method, name, charged):
        def call(self, *args):
            out = method(self, *args)
            seen.append((method.__name__, name(*args), charged(self, out)))
            return out

        return call

    for method_name, (name, charged) in RECORDED.items():
        method = getattr(DeviceAccounting, method_name)
        monkeypatch.setattr(
            DeviceAccounting, method_name, recording(method, name, charged)
        )
    return seen


def test_every_accounting_method_is_recorded():
    public = {
        n for n, v in vars(DeviceAccounting).items()
        if callable(v) and not n.startswith("_") and n != "price"
    }
    assert public == set(RECORDED)


def _runs(name, calls, fault_plan=None):
    """``(calls, CostReport, RunReport)`` per executor of one run of
    ``name`` at ``small``.  One compile, so block names agree; each run
    prices its own launches."""
    spec = BENCHMARKS[name]
    compiled = compile_program(spec.program())
    args = spec.small_args(np.random.default_rng(0))
    out = []
    for executor in EXECUTORS:
        compiled.host.launch_costs.clear()
        calls.clear()
        _, cost, report = compiled.execute(
            args,
            fault_plan=fault_plan,
            policy=ExecutionPolicy(executor=executor, max_retries=4),
        )
        out.append((list(calls), cost, report))
    return out


@pytest.mark.parametrize("name", list(BENCHMARKS.names()))
def test_both_runners_make_the_same_accounting_calls(name, calls):
    (sim, sim_cost, _), (jit, jit_cost, _) = _runs(name, calls)
    assert [c[0] for c in sim].count("launch") > 0
    assert sim == jit
    assert sim_cost == jit_cost
    # ``finish`` closed the books on the heap's statistics (equal
    # above), and the report carries them.
    stats = sim[-1][2]
    assert (stats.peak_bytes, stats.alloc_count, stats.reuse_count) == (
        sim_cost.mem_peak_bytes, sim_cost.mem_alloc_count,
        sim_cost.mem_reuse_count,
    )


#: Transient faults of every kind the injector draws, retried: the
#: draws must line up launch for launch for the trails to agree.  (At
#: these rates some runs recover after retries and some exhaust them.)
PLAN = dict(
    launch_failure_rate=0.1,
    memory_fault_rate=0.05,
    timeout_rate=0.1,
    max_consecutive=2,
)
COUNTERS = (
    "attempts", "retries", "transient_faults", "fatal_faults", "timeouts",
    "fallbacks", "ooms", "backoff_us", "events", "gave_up_reason",
)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_seeded_fault_plan_draws_the_same_under_both_runners(seed, calls):
    recovered = exhausted = 0
    for i, name in enumerate(BENCHMARKS.names()):
        plan = FaultPlan(seed=16 * seed + i, **PLAN)
        (sim, sim_cost, sim_report), (jit, jit_cost, jit_report) = _runs(
            name, calls, plan
        )
        for field in COUNTERS:
            assert getattr(sim_report, field) == getattr(jit_report, field), (
                name, field,
            )
        assert sim == jit, name
        assert sim_cost == jit_cost, name
        recovered += sim_report.retries > 0 and not sim_report.fallbacks
        exhausted += sim_report.fallbacks
    assert recovered, f"seed {seed}: no run recovered after a retry"
    assert exhausted, f"seed {seed}: no run exhausted its retries"
