"""End-to-end pipeline tests: core program → kernels → simulated GPU,
with results validated against the reference interpreter."""

import numpy as np
import pytest

from repro.core import array_value, scalar, to_python, values_equal
from repro.core.prim import F32, I32
from repro.gpu import AMD_W8100, NVIDIA_GTX780TI
from repro.interp import run_program
from repro.pipeline import CompilerOptions, compile_program, compile_source

from tests.helpers import (
    fig10_program,
    kmeans_counts_parallel,
    kmeans_counts_sequential,
    kmeans_counts_stream,
    map_inc_program,
    matmul_program,
    rowsums_program,
    sum_program,
)

RNG = np.random.default_rng(11)

END_TO_END = [
    (map_inc_program, [array_value(RNG.normal(size=9).astype(np.float32), F32)]),
    (sum_program, [array_value(RNG.normal(size=17).astype(np.float32), F32)]),
    (rowsums_program, [array_value(RNG.normal(size=(4, 6)).astype(np.float32), F32)]),
    (kmeans_counts_sequential, [array_value(RNG.integers(0, 5, 50).astype(np.int32), I32)]),
    (kmeans_counts_parallel, [array_value(RNG.integers(0, 5, 50).astype(np.int32), I32)]),
    (kmeans_counts_stream, [array_value(RNG.integers(0, 5, 50).astype(np.int32), I32)]),
    (fig10_program, [array_value(np.arange(23, dtype=np.int32), I32)]),
    (matmul_program, [
        array_value(RNG.normal(size=(4, 5)).astype(np.float32), F32),
        array_value(RNG.normal(size=(5, 3)).astype(np.float32), F32),
    ]),
]


class TestEndToEnd:
    @pytest.mark.parametrize(
        "mk,args", END_TO_END, ids=[mk.__name__ for mk, _ in END_TO_END]
    )
    def test_simulated_results_match_interpreter(self, mk, args):
        prog = mk()
        compiled = compile_program(prog)
        expected = run_program(prog, args, in_place=True)
        got, report = compiled.run(args)
        assert len(got) == len(expected)
        for e, g in zip(expected, got):
            assert values_equal(e, g)
        assert report.total_us > 0

    @pytest.mark.parametrize(
        "mk,args", END_TO_END, ids=[mk.__name__ for mk, _ in END_TO_END]
    )
    def test_all_ablations_still_correct(self, mk, args):
        prog = mk()
        expected = run_program(prog, args, in_place=True)
        for opts in (
            CompilerOptions(disabled_passes=("fusion",)),
            CompilerOptions(disabled_passes=("coalescing",)),
            CompilerOptions(disabled_passes=("tiling",)),
            CompilerOptions(distribute=False),
            CompilerOptions(interchange=False),
            CompilerOptions(reduce_map_interchange=False),
        ):
            got, _ = compile_program(prog, opts).run(args)
            for e, g in zip(expected, got):
                assert values_equal(e, g)


class TestCostModelShape:
    def test_cost_grows_with_size(self):
        compiled = compile_source(
            """
            fun main (xs: [n]f32): f32 =
              let ys = map (\\(x: f32) -> x * x) xs
              in reduce (\\(a: f32) (b: f32) -> a + b) 0.0f32 ys
            """
        )
        small = compiled.estimate({"n": 10_000})
        large = compiled.estimate({"n": 10_000_000})
        assert large.total_us > small.total_us * 3

    def test_launch_overhead_dominates_tiny_kernels(self):
        compiled = compile_source(
            "fun main (xs: [n]f32): [n]f32 = "
            "map (\\(x: f32) -> x + 1.0f32) xs"
        )
        tiny = compiled.estimate({"n": 8})
        assert tiny.total_us == pytest.approx(
            NVIDIA_GTX780TI.launch_overhead_us, rel=0.5
        )

    def test_amd_launch_overhead_higher(self):
        compiled = compile_source(
            "fun main (xs: [n]f32): [n]f32 = "
            "map (\\(x: f32) -> x + 1.0f32) xs"
        )
        nv = compiled.estimate({"n": 64}, NVIDIA_GTX780TI)
        amd = compiled.estimate({"n": 64}, AMD_W8100)
        assert amd.total_us > nv.total_us * 1.5

    def test_fusion_reduces_traffic(self):
        src = """
        fun main (xs: [n]f32): [n]f32 =
          let a = map (\\(x: f32) -> x + 1.0f32) xs
          let b = map (\\(x: f32) -> x * 2.0f32) a
          in map (\\(x: f32) -> x - 3.0f32) b
        """
        fused = compile_source(src)
        unfused = compile_source(
            src, CompilerOptions(disabled_passes=("fusion",))
        )
        n = {"n": 4_000_000}
        t_fused = fused.estimate(n).total_us
        t_unfused = unfused.estimate(n).total_us
        assert t_unfused > t_fused * 2
        assert len(fused.host.kernels()) < len(unfused.host.kernels())

    def test_coalescing_improves_row_traversal(self):
        # §5.2's example with the inner reduction implemented
        # sequentially: each thread walks its row, so consecutive
        # threads stride by b unless the matrix is transposed.
        src = """
        fun main (m: [a][b]f32): [a]f32 =
          map (\\(row: [b]f32) ->
            loop (acc = 0.0f32) for j < b do acc + row[j]) m
        """
        on = compile_source(src)
        off = compile_source(
            src, CompilerOptions(disabled_passes=("coalescing",))
        )
        sizes = {"a": 4096, "b": 4096}
        t_on = on.estimate(sizes).total_us
        t_off = off.estimate(sizes).total_us
        assert t_off > t_on * 1.5

    def test_simulated_run_reports_cost(self):
        compiled = compile_program(rowsums_program())
        args = [array_value(np.ones((8, 8), np.float32), F32)]
        _, report = compiled.run(args)
        assert report.launches >= 1
        assert report.total_ms > 0


class TestOpenCLRendering:
    def test_render_contains_kernels(self):
        compiled = compile_program(rowsums_program())
        text = compiled.opencl()
        assert "__kernel" in text
        assert "launch" in text
        assert "host program" in text

    def test_render_shows_loop(self):
        compiled = compile_source(
            """
            fun main (xs: [n]f32) (k: i32): [n]f32 =
              loop (ys = xs) for i < k do
                map (\\(y: f32) -> y * 0.5f32) ys
            """
        )
        text = compiled.opencl()
        assert "loop (" in text
