"""The call shapes the e2e harness freezes.

``benchmarks/e2e/probes.py`` (which no change may edit) times
``engine.run(host, args)`` on engines it builds as
``JitEngine(DEVICE, coalescing=, in_place=, prog=)`` and, under the same
call, ``VectorEngine``, both imported from ``repro.vm``; and it drives a
four-device pool as ``DevicePool.run(host, core, args, executor=,
entry=, run_id=, coalescing=, in_place=, batch_info=)``.  Those names
and call shapes are all it relies on; here they must return what
``compiled.execute`` returns — the values and the whole ``CostReport``
— on all 16 benchmarks at ``small``.  ``coalescing`` and ``in_place``
are accepted and unused (the host program carries both decisions), so
a value that contradicts the compile changes nothing.
"""

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import values_equal
from repro.gpu import NVIDIA_GTX780TI
from repro.pipeline import compile_program
from repro.runtime import ExecutionPolicy
from repro.sched import DevicePool, analyze_shardable

DEVICE = NVIDIA_GTX780TI


@pytest.mark.parametrize("name", list(BENCHMARKS.names()))
def test_harness_engines_run_what_execute_runs(name):
    from repro.vm import JitEngine, VectorEngine

    spec = BENCHMARKS[name]
    compiled = compile_program(spec.program())
    args = spec.small_args(np.random.default_rng(0))
    want, want_cost, report = compiled.execute(args, DEVICE)
    assert report.backend == "jit" and not report.degraded
    opts = compiled.options
    for engine_cls in (JitEngine, VectorEngine):
        engine = engine_cls(
            DEVICE, coalescing=opts.coalescing, in_place=opts.in_place,
            prog=compiled.core,
        )
        got, cost = engine.run(compiled.host, args)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert values_equal(g, w, rtol=0.0, atol=0.0)
        assert cost == want_cost


@pytest.fixture(scope="module")
def pool():
    with DevicePool([DEVICE] * 4) as pool:
        yield pool


@pytest.mark.parametrize("contradict", [False, True])
@pytest.mark.parametrize("name", list(BENCHMARKS.names()))
def test_harness_pool_call_runs_what_execute_runs(pool, name, contradict):
    spec = BENCHMARKS[name]
    prog = spec.program()
    compiled = compile_program(prog)
    args = spec.small_args(np.random.default_rng(0))
    want, want_cost, _ = compiled.execute(
        args, DEVICE, policy=ExecutionPolicy(executor="jit")
    )
    opts = compiled.options
    got, cost, report, placement = pool.run(
        compiled.host, compiled.core, args,
        executor="jit", entry="main", run_id=f"harness-{name}",
        coalescing=opts.coalescing != contradict,
        in_place=opts.in_place != contradict,
        batch_info=analyze_shardable(prog, "main"),
    )
    assert report.backend == "jit" and not report.degraded
    assert placement["mode"] == "whole"
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert values_equal(g, w, rtol=0.0, atol=0.0)
    assert cost == want_cost
