"""The cost-model calibration sweep: static predictions vs simulator
observations, the BENCH_calib.json payload, and the gpu.calib.*
divergence metrics recorded during simulated execution."""

import numpy as np
import pytest

from repro.bench.pinned import calib_suite
from repro.bench.suite import BENCHMARKS
from repro.gpu.costmodel import static_kernel_costs
from repro.gpu.device import NVIDIA_GTX780TI
from repro.obs import metering
from repro.pipeline import compile_program
from repro.runtime import ExecutionPolicy

SUBSET = ["NN", "Mandelbrot", "Pathfinder"]


@pytest.fixture(scope="module")
def payload():
    return calib_suite(names=SUBSET, seed=0)


class TestCalibSuite:
    def test_payload_schema_and_coverage(self, payload):
        assert payload["schema"] == "repro.bench_calib/v1"
        assert payload["device"] == NVIDIA_GTX780TI.name
        assert sorted(payload["benchmarks"]) == sorted(SUBSET)
        assert payload["kernel_count"] > 0
        assert payload["geomean_abs_rel_error"] >= 0.0

    def test_every_kernel_row_has_divergence_fields(self, payload):
        rows = 0
        for bench in payload["benchmarks"].values():
            assert bench["kernels"], "benchmark with no kernels"
            assert bench["geomean_abs_rel_error"] >= 0.0
            for row in bench["kernels"].values():
                rows += 1
                assert row["launches"] >= 1
                assert row["observed_us"] > 0
                assert row["predicted_us"] is not None
                assert row["rel_error"] is not None
                assert row["occupancy_observed"] > 0
        assert rows == sum(
            len(b["kernels"]) for b in payload["benchmarks"].values()
        )

    def test_worst_offenders_sorted_by_abs_divergence(self, payload):
        worst = payload["worst_offenders"]
        assert worst, "no offenders ranked"
        magnitudes = [abs(r["rel_error"]) for r in worst]
        assert magnitudes == sorted(magnitudes, reverse=True)
        for r in worst:
            assert r["benchmark"] in payload["benchmarks"]
            kernels = payload["benchmarks"][r["benchmark"]]["kernels"]
            assert r["kernel"] in kernels

    def test_predictions_are_close_at_static_sizes(self, payload):
        # The static model prices the same launches the simulator runs;
        # at validation sizes the geomean divergence must stay small.
        assert payload["geomean_abs_rel_error"] < 0.25


class TestStaticKernelCosts:
    def test_covers_every_launched_kernel(self):
        spec = BENCHMARKS["NN"]
        compiled = compile_program(spec.program())
        rng = np.random.default_rng(0)
        args = spec.small_args(rng)
        _, cost, _ = compiled.execute(
            args, policy=ExecutionPolicy(executor="sim"), run_id="calib-t"
        )
        size_env = {
            p.name: int(v.value)
            for p, v in zip(compiled.host.params, args)
            if getattr(v, "value", None) is not None
            and getattr(getattr(v, "type", None), "is_integral", False)
        }
        predicted = static_kernel_costs(
            compiled.host, size_env, NVIDIA_GTX780TI
        )
        launched = {k.name for k in cost.kernel_costs}
        assert launched <= set(predicted), launched - set(predicted)

    def test_simulator_records_calibration_histograms(self):
        spec = BENCHMARKS["NN"]
        compiled = compile_program(spec.program())
        rng = np.random.default_rng(0)
        args = spec.small_args(rng)
        with metering() as registry:
            compiled.execute(
                args, policy=ExecutionPolicy(executor="sim"),
                run_id="calib-m",
            )
        snap = registry.snapshot()
        calib_hists = [
            k for k in snap["histograms"] if k.startswith("gpu.calib.")
        ]
        assert any("time_rel_err" in k for k in calib_hists)
        assert any("cycles_rel_err" in k for k in calib_hists)
        assert any("bytes_rel_err" in k for k in calib_hists)
        assert any("occupancy_diff" in k for k in calib_hists)
        obs = [
            v
            for k, v in snap["counters"].items()
            if k.startswith("gpu.calib.observations")
        ]
        assert sum(obs) >= 1

    def test_no_predictions_no_calibration_metrics(self):
        # Without observability, run_resilient skips prediction
        # entirely; the simulator must tolerate predictions=None.
        spec = BENCHMARKS["Mandelbrot"]
        compiled = compile_program(spec.program())
        rng = np.random.default_rng(0)
        args = spec.small_args(rng)
        values, _, _ = compiled.execute(
            args, policy=ExecutionPolicy(executor="sim")
        )
        assert values
