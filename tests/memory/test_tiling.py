"""Tests of block-tiling detection and its ablation (Section 5.2)."""

import pytest

from repro.pipeline import CompilerOptions, compile_source

NBODY_LIKE = """
fun main (xs: [n]f32): [n]f32 =
  map (\\(xi: f32) ->
    loop (acc = 0.0f32) for j < n do
      acc + xs[j] * xi) xs
"""


class TestTilingDetection:
    def test_invariant_streamed_array_is_tiled(self):
        compiled = compile_source(NBODY_LIKE)
        (kernel,) = compiled.host.kernels()
        assert [t.array for t in kernel.tiles] == ["xs"]

    def test_two_invariant_arrays_mark_2d(self):
        src = """
        fun main (xs: [n]f32) (ys: [m]f32): [n]f32 =
          map (\\(xi: f32) ->
            let s1 = loop (a = 0.0f32) for j < m do a + ys[j] * xi
            in loop (a = s1) for j2 < n do a + xs[j2]) xs
        """
        compiled = compile_source(src)
        (kernel,) = compiled.host.kernels()
        assert len(kernel.tiles) == 2
        assert all(t.two_d for t in kernel.tiles)

    def test_ablation_strips_tiles(self):
        compiled = compile_source(
            NBODY_LIKE, CompilerOptions(disabled_passes=("tiling",))
        )
        (kernel,) = compiled.host.kernels()
        assert kernel.tiles == []
        # Lowering records where a tile could go; only the pass tiles.
        assert [t.array for t in kernel.tile_candidates] == ["xs"]

    def test_tiling_lowers_estimated_time(self):
        on = compile_source(NBODY_LIKE)
        off = compile_source(
            NBODY_LIKE, CompilerOptions(disabled_passes=("tiling",))
        )
        sizes = {"n": 100_000}
        assert (
            on.estimate(sizes).total_us < off.estimate(sizes).total_us
        )

    def test_thread_varying_array_not_tiled(self):
        # Each thread reads a *different* row: no reuse across the
        # block, so no tile.
        src = """
        fun main (m: [a][b]f32): [a]f32 =
          map (\\(row: [b]f32) ->
            loop (acc = 0.0f32) for j < b do acc + row[j]) m
        """
        compiled = compile_source(src)
        (kernel,) = compiled.host.kernels()
        assert kernel.tiles == []
