"""Chaos tests for device out-of-memory: a tiny-capacity device makes
the heap raise :class:`DeviceOOM`, and the resilient executor must
degrade to the interpreter in one attempt (OOM is deterministic —
retrying cannot help)."""

import dataclasses

import numpy as np
import pytest

from repro.core import array_value
from repro.core.prim import F32
from repro.errors import DeviceOOM
from repro.gpu.device import NVIDIA_GTX780TI
from repro.gpu.simulator import GpuSimulator
from repro.pipeline import compile_source
from repro.runtime import ExecutionPolicy

SRC = """
fun main (xs: [n]f32): [n]f32 =
  map (\\(x: f32) -> x * 2.0f32 + 1.0f32) xs
"""


def _tiny_device(capacity_bytes):
    return dataclasses.replace(
        NVIDIA_GTX780TI, memory_bytes=capacity_bytes
    )


def _xs(n=64):
    return array_value(np.arange(n, dtype=np.float32), F32)


class TestSimulatorOOM:
    def test_undersized_device_raises(self):
        compiled = compile_source(SRC)
        sim = GpuSimulator(_tiny_device(16), prog=compiled.core)
        with pytest.raises(DeviceOOM) as exc:
            sim.run(compiled.host, [_xs()])
        assert exc.value.capacity_bytes == 16
        assert exc.value.requested_bytes > 16

    def test_adequate_device_runs(self):
        compiled = compile_source(SRC)
        sim = GpuSimulator(_tiny_device(1 << 20), prog=compiled.core)
        values, cost = sim.run(compiled.host, [_xs()])
        assert cost.mem_peak_bytes > 0


class TestResilientOOM:
    def test_oom_falls_back_to_interpreter(self):
        compiled = compile_source(SRC)
        values, cost, report = compiled.execute(
            [_xs()], device=_tiny_device(16)
        )
        assert report.ooms == 1
        assert report.attempts == 1  # deterministic: never retried
        assert report.fallbacks == 1
        assert report.degraded
        assert "ooms=1" in report.summary()
        np.testing.assert_allclose(
            values[0].data, np.arange(64, dtype=np.float32) * 2.0 + 1.0
        )

    def test_oom_counts_as_fault(self):
        compiled = compile_source(SRC)
        _, _, report = compiled.execute([_xs()], device=_tiny_device(16))
        assert report.faults == 1

    def test_no_fallback_policy_surfaces_the_oom(self):
        compiled = compile_source(SRC)
        with pytest.raises(DeviceOOM):
            compiled.execute(
                [_xs()],
                device=_tiny_device(16),
                policy=ExecutionPolicy(fallback=False),
            )

    def test_sim_engine_enforces_capacity_too(self):
        compiled = compile_source(SRC)
        _, _, report = compiled.execute(
            [_xs()],
            device=_tiny_device(16),
            policy=ExecutionPolicy(executor="sim"),
        )
        assert report.ooms == 1
        assert report.fallbacks == 1
