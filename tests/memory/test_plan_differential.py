"""Differential suite for the memory planner.

For every benchmark in the paper's 16-program suite, across dataset
seeds, the compiled program runs with memory planning on and off under
both executors (``sim`` — per-launch scalar interpretation — and
``jit`` — transpiled NumPy kernels).  The planner only rewrites allocation
statements, never kernels, so the contract is exact:

* results are **bit-identical** between planned and naive schedules
  under each executor (executors agree with each other up to float
  evaluation order);
* ``peak_bytes(planned) <= peak_bytes(naive)`` on every run, strictly
  lower on programs with dead intermediates or host loops;
* no run degrades to the interpreter fallback (a planner bug that
  tripped ``DeviceOOM`` or the validator would show up here).
"""

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.core.values import ArrayValue
from repro.pipeline import CompilerOptions, compile_program
from repro.runtime import ExecutionPolicy

SEEDS = (0, 1)
EXECUTORS = ("sim", "jit")


def _bit_identical(a, b) -> bool:
    if isinstance(a, ArrayValue) and isinstance(b, ArrayValue):
        return (
            a.elem == b.elem
            and a.shape == b.shape
            and bool(np.array_equal(a.data, b.data))
        )
    return type(a) is type(b) and a.type == b.type and a.value == b.value


@pytest.mark.parametrize("name", sorted(BENCHMARKS.names()))
def test_planning_differential(name):
    spec = BENCHMARKS[name]
    prog = spec.program()
    planned = compile_program(prog, CompilerOptions())
    naive = compile_program(
        prog, CompilerOptions(memory_planning=False)
    )
    for seed in SEEDS:
        args = spec.small_args(np.random.default_rng(seed))
        for executor in EXECUTORS:
            policy = ExecutionPolicy(executor=executor)
            got_p, cost_p, rep_p = planned.execute(
                args, policy=policy, seed=seed
            )
            got_n, cost_n, rep_n = naive.execute(
                args, policy=policy, seed=seed
            )
            assert rep_p.fallbacks == 0, (
                f"{name}/{executor}/seed{seed}: planned run degraded "
                f"({rep_p.summary()})"
            )
            assert rep_n.fallbacks == 0, (
                f"{name}/{executor}/seed{seed}: naive run degraded "
                f"({rep_n.summary()})"
            )
            assert len(got_p) == len(got_n)
            for vp, vn in zip(got_p, got_n):
                assert _bit_identical(vp, vn), (
                    f"{name}/{executor}/seed{seed}: planned result "
                    f"differs from naive"
                )
            assert cost_p.mem_peak_bytes <= cost_n.mem_peak_bytes, (
                f"{name}/{executor}/seed{seed}: planned peak "
                f"{cost_p.mem_peak_bytes} B above naive "
                f"{cost_n.mem_peak_bytes} B"
            )
            assert cost_p.mem_peak_bytes > 0
            assert cost_p.mem_alloc_count <= cost_n.mem_alloc_count


@pytest.mark.parametrize("name", sorted(BENCHMARKS.names()))
def test_executors_agree_on_planned_schedule(name):
    """Both executors run the same planned schedule — the planner's
    aliasing (elided copies) included — and must agree on the values.
    Exact for integer results; float tolerance across engines, whose
    evaluation order legitimately differs (scalar vs vectorized
    reductions)."""
    from repro.core.values import values_equal

    spec = BENCHMARKS[name]
    compiled = compile_program(spec.program())
    args = spec.small_args(np.random.default_rng(0))
    got_sim, _, rep_sim = compiled.execute(
        args, policy=ExecutionPolicy(executor="sim")
    )
    got_jit, _, rep_jit = compiled.execute(
        args, policy=ExecutionPolicy(executor="jit")
    )
    assert rep_sim.fallbacks == 0 and rep_jit.fallbacks == 0
    for vs, vj in zip(got_sim, got_jit):
        assert values_equal(vs, vj, rtol=1e-4, atol=1e-4)
