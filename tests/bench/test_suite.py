"""Tests of the benchmark suite infrastructure: registry, datasets,
reference models, and that every benchmark program passes the full
static checker and compiles with its dataset's size coverage."""

import numpy as np
import pytest

from repro.bench.datasets import TABLE2
from repro.bench.references import (
    Count,
    ReferenceImpl,
    gpu_phase,
    host_phase,
    mem,
)
from repro.bench.runner import check_size_coverage
from repro.bench.suite import BENCHMARKS
from repro.checker import check_program
from repro.gpu.device import AMD_W8100, NVIDIA_GTX780TI
from repro.pipeline import compile_program

ALL = list(BENCHMARKS.names())


class TestRegistry:
    def test_sixteen_benchmarks(self):
        assert len(ALL) == 16

    def test_the_registry_is_a_mapping_over_every_name(self):
        """A fresh registry lists, counts and holds all sixteen before
        any spec is loaded; a spec is loaded once, on first access."""
        fresh = type(BENCHMARKS)()
        assert "K-means" in fresh and "K-Means" not in fresh
        assert len(fresh) == 16
        assert list(fresh) == ALL
        items = dict(fresh.items())
        assert list(items) == ALL
        assert all(fresh[n] is items[n] for n in ALL)
        assert items["NN"].name == "NN"
        with pytest.raises(KeyError):
            fresh["no such benchmark"]

    def test_suite_attribution(self):
        suites = {BENCHMARKS[n].suite for n in ALL}
        assert suites == {"Rodinia", "FinPar", "Parboil", "Accelerate"}
        rodinia = [n for n in ALL if BENCHMARKS[n].suite == "Rodinia"]
        assert len(rodinia) == 9

    def test_every_benchmark_has_dataset(self):
        for name in ALL:
            assert name in TABLE2
            ds = TABLE2[name]
            assert ds.full and ds.small and ds.description


@pytest.mark.parametrize("name", ALL)
class TestPerBenchmark:
    def test_program_passes_static_checks(self, name):
        check_program(BENCHMARKS[name].program())

    def test_compiles_and_covers_sizes(self, name):
        spec = BENCHMARKS[name]
        compiled = compile_program(spec.program())
        check_size_coverage(compiled, spec.dataset.full, name)
        assert compiled.host.kernels(), name

    def test_reference_estimates_positive(self, name):
        spec = BENCHMARKS[name]
        for device in (NVIDIA_GTX780TI, AMD_W8100):
            report = spec.reference().estimate(
                spec.dataset.full, device
            )
            assert report.total_ms > 0

    def test_small_args_match_signature(self, name):
        spec = BENCHMARKS[name]
        rng = np.random.default_rng(1)
        args = spec.small_args(rng)
        prog = spec.program()
        assert len(args) == len(prog.fun("main").params)


class TestVariants:
    def test_inplace_variants(self):
        assert BENCHMARKS["K-means"].variant("no_inplace") is not None
        assert (
            BENCHMARKS["LocVolCalib"].variant("no_inplace") is not None
        )
        assert BENCHMARKS["OptionPricing"].variant("no_inplace") is None

    def test_variants_pass_checks(self):
        for name in ("K-means", "LocVolCalib"):
            check_program(BENCHMARKS[name].variant("no_inplace"))


class TestReferenceVocabulary:
    def test_mem_modes(self):
        assert mem("n").thread_dims == 1
        assert mem("n", mode="uncoalesced").seq_rank == 1
        assert mem("n", mode="gather").gather
        assert mem("n", mode="broadcast").invariant
        assert mem("n", mode="tiled").array == "ref_tiled"
        with pytest.raises(ValueError):
            mem("n", mode="nonsense")

    def test_gpu_phase_estimate_scales(self):
        ref = ReferenceImpl(
            "toy",
            [
                gpu_phase(
                    "k",
                    threads=["n"],
                    flops_total=Count.of(2.0, "n"),
                    accesses=[mem("n"), mem("n", write=True)],
                )
            ],
        )
        small = ref.estimate({"n": 10_000}, NVIDIA_GTX780TI)
        large = ref.estimate({"n": 100_000_000}, NVIDIA_GTX780TI)
        assert large.total_ms > small.total_ms * 50

    def test_host_phase_uses_pcie_and_cpu(self):
        ref = ReferenceImpl(
            "toy",
            [
                host_phase(
                    "h",
                    host_flops=Count.of(1.0, "n"),
                    pcie_bytes=Count.of(4.0, "n"),
                )
            ],
        )
        t = ref.estimate({"n": 1_000_000}, NVIDIA_GTX780TI)
        # 1 Mflop at 1 GFLOP/s = 1ms; 4 MB at 6 GB/s ≈ 0.67 ms.
        assert 1.0 < t.total_ms < 3.0

    def test_repeats(self):
        phase = gpu_phase(
            "k", threads=["n"], accesses=[mem("n")], repeats=["iters"]
        )
        ref = ReferenceImpl("toy", [phase])
        one = ref.estimate({"n": 10_000_000, "iters": 1}, NVIDIA_GTX780TI)
        ten = ref.estimate({"n": 10_000_000, "iters": 10}, NVIDIA_GTX780TI)
        assert ten.total_ms == pytest.approx(one.total_ms * 10, rel=0.01)

    def test_device_factor(self):
        base = gpu_phase("k", threads=["n"], accesses=[mem("n")])
        slowed = gpu_phase(
            "k",
            threads=["n"],
            accesses=[mem("n")],
            device_factor=lambda dev: 3.0,
        )
        env = {"n": 10_000_000}
        t1 = ReferenceImpl("a", [base]).estimate(env, NVIDIA_GTX780TI)
        t2 = ReferenceImpl("b", [slowed]).estimate(env, NVIDIA_GTX780TI)
        assert t2.total_ms == pytest.approx(t1.total_ms * 3, rel=0.01)
