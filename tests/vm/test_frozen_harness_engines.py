"""The engine constructors the e2e harness freezes.

``benchmarks/e2e/probes.py`` (which no change may edit) times
``engine.run(host, args)`` on engines it builds as
``JitEngine(DEVICE, coalescing=, in_place=, prog=)`` and, under the same
call, ``VectorEngine``, both imported from ``repro.vm``.  Those two
names and that call shape are all it relies on; here they must return
what ``compiled.execute`` returns — the values and the whole
``CostReport`` — on all 16 benchmarks at ``small``.
"""

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import values_equal
from repro.gpu import NVIDIA_GTX780TI
from repro.pipeline import compile_program

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
