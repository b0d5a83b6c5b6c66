"""Chaos under the jit executor: fault injection, retry, watchdog and
interpreter fallback must work identically when kernels run as
transpiled Python instead of on the scalar interpreter.

Mirrors the transient-fault recipe of ``tests/pipeline/test_chaos.py``
(every launch site is hit until its condition clears), but executes
through ``ExecutionPolicy(executor="jit")`` — the resilient layer sits
*above* the engine choice, and the jit is only the kernel runner: the
whole cost-clock/watchdog/fault machinery is the engine's
:class:`repro.gpu.simulator.DeviceAccounting` under either executor, so
the same seeds must recover to the same interpreter-identical results.
"""

import os

import pytest

from repro.bench.runner import validate_benchmark
from repro.gpu.faults import FaultPlan
from repro.obs import observe
from repro.pipeline import CompilerOptions
from repro.runtime import ExecutionPolicy

SEEDS = [
    int(s) for s in os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")
]
#: A representative slice: stencil (HotSpot), scan-heavy (Pathfinder),
#: irregular/filter (K-means) and deep host loops (Fluid).
NAMES = ("HotSpot", "Pathfinder", "K-means", "Fluid")
JIT = CompilerOptions(executor="jit")
CHAOS_PLAN_RATES = dict(
    launch_failure_rate=0.7,
    memory_fault_rate=0.3,
    timeout_rate=1.0,
    fatal_rate=0.0,
    max_consecutive=2,
)
CHAOS_POLICY = ExecutionPolicy(max_retries=6, executor="jit")


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_jit(seed):
    """Transient faults on every launch site: the jit engine is
    retried and (when the budget runs out) degraded to the
    interpreter, and results still match the reference."""
    engaged = 0
    for name in NAMES:
        plan = FaultPlan(seed=seed, **CHAOS_PLAN_RATES)
        report = validate_benchmark(
            name,
            seed=seed,
            fault_plan=plan,
            policy=CHAOS_POLICY,
            options=JIT,
        )
        assert report.faults > 0, f"{name}/seed{seed}: no faults injected"
        engaged += int(report.degraded)
    assert engaged > 0, f"seed{seed}: resilience never engaged"


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_fatal_fault_degrades_jit_to_interpreter(seed):
    """A fatally broken device ends in the interpreter fallback even
    when the engine is the transpiling one."""
    plan = FaultPlan(
        seed=seed,
        launch_failure_rate=1.0,
        fatal_rate=1.0,
        max_consecutive=10**6,
    )
    report = validate_benchmark(
        "Mandelbrot",
        seed=seed,
        fault_plan=plan,
        policy=CHAOS_POLICY,
        options=JIT,
    )
    assert report.fatal_faults >= 1
    assert report.fallbacks == 1


def test_jit_retries_land_on_attempt_tracks():
    """Retried jit attempts get their own trace tracks, so a chaos
    trace shows which attempt produced the result."""
    plan = FaultPlan(seed=0, **CHAOS_PLAN_RATES)
    with observe() as session:
        validate_benchmark(
            "HotSpot",
            fault_plan=plan,
            policy=CHAOS_POLICY,
            options=JIT,
        )
    tracks = session.tracer.tracks()
    assert any(t.startswith("vm-jit") for t in tracks), tracks
