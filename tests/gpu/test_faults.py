"""Tests of the fault-injection layer and the resilient executor."""

import numpy as np
import pytest

from repro.core import array_value
from repro.core.prim import F32
from repro.errors import (
    ArgumentError,
    DeviceFault,
    KernelTimeout,
)
from repro.gpu.device import NVIDIA_GTX780TI
from repro.gpu.faults import FaultPlan
from repro.gpu.simulator import GpuSimulator
from repro.pipeline import CompilerOptions, compile_source
from repro.runtime import ExecutionPolicy

SRC = """
fun main (xs: [n]f32): [n]f32 =
  map (\\(x: f32) -> x * 2.0f32 + 1.0f32) xs
"""


def _compiled(**opts):
    return compile_source(SRC, CompilerOptions(**opts) if opts else None)


def _xs():
    return array_value([1.0, 2.0, 3.0, 4.0], F32)


class TestFaultPlan:
    def test_injection_is_deterministic(self):
        plan = FaultPlan(
            seed=7, launch_failure_rate=0.5, memory_fault_rate=0.3
        )

        def drive(inj):
            events = []
            for i in range(50):
                try:
                    inj.before_launch(f"k{i % 3}")
                    events.append("ok")
                except DeviceFault as e:
                    events.append(f"{e.kind}:{e.transient}")
            return events

        assert drive(plan.injector()) == drive(plan.injector())

    def test_different_seeds_differ(self):
        def trail(seed):
            inj = FaultPlan(
                seed=seed, launch_failure_rate=0.5, max_consecutive=100
            ).injector()
            out = []
            for _ in range(40):
                try:
                    inj.before_launch("k")
                    out.append(0)
                except DeviceFault:
                    out.append(1)
            return out

        assert trail(1) != trail(2)

    def test_transient_condition_clears_after_burst(self):
        plan = FaultPlan(seed=0, launch_failure_rate=1.0, max_consecutive=2)
        inj = plan.injector()
        faults = 0
        for _ in range(10):
            try:
                inj.before_launch("k")
            except DeviceFault:
                faults += 1
        assert faults == 2  # cleared for good after the burst

    def test_fatal_faults(self):
        plan = FaultPlan(seed=1, launch_failure_rate=1.0, fatal_rate=1.0)
        with pytest.raises(DeviceFault) as ei:
            plan.injector().before_launch("k")
        assert not ei.value.transient
        assert not plan.transient_only


class TestSimulatorInjection:
    def test_launch_fault_surfaces(self):
        compiled = _compiled()
        sim = GpuSimulator(
            NVIDIA_GTX780TI,
            injector=FaultPlan(seed=0, launch_failure_rate=1.0).injector(),
        )
        with pytest.raises(DeviceFault):
            sim.run(compiled.host, [_xs()])

    def test_watchdog_kills_runaway_kernel(self):
        compiled = _compiled()
        sim = GpuSimulator(
            NVIDIA_GTX780TI,
            injector=FaultPlan(seed=0, timeout_rate=1.0).injector(),
        )
        with pytest.raises(KernelTimeout) as ei:
            sim.run(compiled.host, [_xs()])
        # The budget comes from the cost model's estimate.
        assert ei.value.budget_us > 0
        assert ei.value.elapsed_us > ei.value.budget_us

    def test_no_faults_without_injector(self):
        compiled = _compiled()
        got, report = compiled.run([_xs()])
        np.testing.assert_allclose(
            got[0].data, [3.0, 5.0, 7.0, 9.0]
        )
        assert report.total_us > 0


class TestResilientExecutor:
    def test_clean_run_report(self):
        values, cost, report = _compiled().execute([_xs()])
        assert report.attempts == 1
        assert report.retries == 0
        assert report.faults == 0
        assert report.fallbacks == 0
        assert not report.degraded

    def test_retry_recovers_transient_faults(self):
        compiled = _compiled()
        plan = FaultPlan(seed=3, launch_failure_rate=1.0, max_consecutive=2)
        values, cost, report = compiled.execute([_xs()], fault_plan=plan)
        clean, _ = compiled.run([_xs()])
        assert np.array_equal(values[0].data, clean[0].data)
        assert report.transient_faults == 2
        assert report.retries == 2
        assert report.attempts == 3
        assert report.fallbacks == 0
        assert report.backoff_us > 0

    def test_fatal_fault_falls_back_to_interpreter(self):
        compiled = _compiled()
        plan = FaultPlan(
            seed=0, launch_failure_rate=1.0, fatal_rate=1.0
        )
        values, cost, report = compiled.execute([_xs()], fault_plan=plan)
        assert report.fatal_faults == 1
        assert report.attempts == 1  # fatal faults are never retried
        assert report.fallbacks == 1
        assert report.degraded
        np.testing.assert_allclose(values[0].data, [3.0, 5.0, 7.0, 9.0])

    def test_exhausted_retries_fall_back(self):
        compiled = _compiled()
        # A transient condition that never clears within the budget.
        plan = FaultPlan(
            seed=0, launch_failure_rate=1.0, max_consecutive=100
        )
        policy = ExecutionPolicy(max_retries=2)
        values, cost, report = compiled.execute(
            [_xs()], fault_plan=plan, policy=policy
        )
        assert report.attempts == 3
        assert report.fallbacks == 1
        np.testing.assert_allclose(values[0].data, [3.0, 5.0, 7.0, 9.0])

    def test_no_fallback_policy_raises(self):
        compiled = _compiled()
        plan = FaultPlan(
            seed=0, launch_failure_rate=1.0, fatal_rate=1.0
        )
        with pytest.raises(DeviceFault):
            compiled.execute(
                [_xs()],
                fault_plan=plan,
                policy=ExecutionPolicy(fallback=False),
            )

    def test_timeouts_are_retried(self):
        compiled = _compiled()
        plan = FaultPlan(seed=5, timeout_rate=1.0, max_consecutive=1)
        values, cost, report = compiled.execute([_xs()], fault_plan=plan)
        assert report.timeouts == 1
        assert report.retries == 1
        assert report.fallbacks == 0
        np.testing.assert_allclose(values[0].data, [3.0, 5.0, 7.0, 9.0])

    def test_argument_errors_are_never_retried(self):
        compiled = _compiled()
        with pytest.raises(ArgumentError):
            compiled.execute(
                [], fault_plan=FaultPlan(seed=0, launch_failure_rate=0.5)
            )

    def test_backoff_is_deterministic(self):
        compiled = _compiled()
        plan = FaultPlan(seed=9, launch_failure_rate=1.0, max_consecutive=2)
        _, _, r1 = compiled.execute([_xs()], fault_plan=plan)
        _, _, r2 = compiled.execute([_xs()], fault_plan=plan)
        assert r1.backoff_us == r2.backoff_us
        assert r1.events == r2.events

    def test_in_place_is_threaded_from_options(self, monkeypatch):
        """Options -> lowering -> the host program -> the engine: every
        launch runs in the mode the program was compiled in."""
        from repro.gpu import simulator

        seen = []
        real = simulator.interp_launch

        def spy(interp, site, *raws):
            seen.append(interp.in_place)
            return real(interp, site, *raws)

        monkeypatch.setattr(simulator, "interp_launch", spy)
        sim = ExecutionPolicy(executor="sim")
        copying = _compiled(in_place=False)
        assert copying.host.in_place is False
        copying.run([_xs()], policy=sim)
        assert seen and set(seen) == {False}
        seen.clear()
        _compiled().run([_xs()], policy=sim)
        assert seen and set(seen) == {True}
