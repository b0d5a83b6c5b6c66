"""The chaos suite: every benchmark must survive a sabotaged
optimisation pass *and* an unreliable device, and still produce
bit-identical results.

For each benchmark and each seed (``CHAOS_SEEDS`` env var, default
``0,1,2`` — tier-1's; the CI ``chaos`` job runs ``3``, ``4``, ``5``):

1. compile with the fusion pass deliberately sabotaged — the pass
   guard must roll it back and the compile must succeed;
2. run fault-free to establish the baseline;
3. run under a transient-only :class:`FaultPlan` through the resilient
   executor — results must be bit-identical to the baseline and the
   :class:`RunReport` must show the machinery actually engaged.

Everything is seeded, so a given seed always produces the same fault
trail: the suite is chaos *testing*, not flaky testing.
"""

import os

import numpy as np
import pytest

import repro.pipeline as P
from repro.bench.suite import BENCHMARKS
from repro.gpu.faults import FaultPlan
from repro.runtime import ExecutionPolicy

SEEDS = [
    int(s) for s in os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")
]
NAMES = list(BENCHMARKS.names())

#: Every launch site is hit (launch + memory rates sum to 1, and the
#: watchdog surface fires too) until its transient condition clears
#: after ``max_consecutive`` hits — so *every* benchmark observes
#: faults regardless of seed; the seed only varies the launch/memory
#: mix and ordering.  A handful of retries recovers short programs
#: while longer ones exhaust the budget and exercise the interpreter
#: fallback.
CHAOS_PLAN_RATES = dict(
    launch_failure_rate=0.7,
    memory_fault_rate=0.3,
    timeout_rate=1.0,
    fatal_rate=0.0,
    max_consecutive=2,
)
#: Bit-identity between a device run and the interpreter fallback
#: holds on the scalar simulator only (the jit reassociates float
#: sums), so this suite asks for it.
CHAOS_POLICY = ExecutionPolicy(max_retries=6, executor="sim")


def _sabotaged_fusion(*args, **kwargs):
    raise RuntimeError("chaos: sabotaged fusion pass")


def _raw(value):
    return np.asarray(
        value.data if hasattr(value, "data") else value.value
    )


def _run_one(name: str, seed: int):
    """Compile ``name`` with a broken fusion pass, then execute it
    under chaos; returns the RunReport."""
    spec = BENCHMARKS[name]
    args = spec.small_args(np.random.default_rng(seed))
    prog = spec.program()
    compiled = P.compile_program(prog)

    assert any(
        d.pass_name == "fusion" for d in compiled.diagnostics
    ), f"{name}: pass guard did not intervene"

    baseline, _ = compiled.run(args, policy=ExecutionPolicy(executor="sim"))
    plan = FaultPlan(seed=seed, **CHAOS_PLAN_RATES)
    values, cost, report = compiled.execute(
        args, fault_plan=plan, policy=CHAOS_POLICY
    )

    assert len(values) == len(baseline), name
    for got, want in zip(values, baseline):
        g, w = _raw(got), _raw(want)
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), (
            f"{name}/seed{seed}: chaos run diverged ({report.summary()})"
        )
    assert report.faults > 0, f"{name}/seed{seed}: no faults injected"
    assert report.degraded, f"{name}/seed{seed}: resilience never engaged"
    return report


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_suite(seed, monkeypatch):
    monkeypatch.setattr(P, "fuse_prog", _sabotaged_fusion)
    totals = dict(retries=0, fallbacks=0, faults=0, timeouts=0)
    for name in NAMES:
        report = _run_one(name, seed)
        totals["retries"] += report.retries
        totals["fallbacks"] += report.fallbacks
        totals["faults"] += report.faults
        totals["timeouts"] += report.timeouts
    # Across the suite every resilience mechanism must have fired.
    assert totals["retries"] > 0
    assert totals["fallbacks"] > 0
    assert totals["timeouts"] > 0
    assert totals["faults"] >= len(NAMES)


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_fatal_faults_degrade_to_interpreter(seed):
    """A device that dies fatally on (almost) every launch still
    produces correct results for a sample of benchmarks, via the
    interpreter fallback."""
    from repro.bench.runner import validate_benchmark

    plan = FaultPlan(
        seed=seed,
        launch_failure_rate=1.0,
        fatal_rate=1.0,
        max_consecutive=10**6,
    )
    for name in ("K-means", "NN", "Mandelbrot"):
        report = validate_benchmark(name, seed=seed, fault_plan=plan)
        assert report.fatal_faults >= 1, name
        assert report.fallbacks == 1, name
