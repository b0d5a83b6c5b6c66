"""Tests of the compiler driver and its public API."""

import numpy as np
import pytest

import repro
from repro.core import array_value, scalar, to_python
from repro.core.prim import F32, I32
from repro.checker import UniquenessError
from repro.pipeline import (
    CompiledProgram,
    CompilerOptions,
    compile_program,
    compile_source,
)

SRC = """
fun helper (x: f32): f32 = x * 2.0f32
fun main (xs: [n]f32): [n]f32 =
  map (\\(x: f32) -> helper x + 1.0f32) xs
"""


class TestDriver:
    def test_compile_source_end_to_end(self):
        compiled = compile_source(SRC)
        assert isinstance(compiled, CompiledProgram)
        (out,), report = compiled.run([array_value([1.0, 2.0], F32)])
        assert to_python(out) == [3.0, 5.0]

    def test_inlining_removes_helpers(self):
        compiled = compile_source(SRC)
        assert [f.name for f in compiled.core.funs] == ["main"]

    def test_top_level_package_api(self):
        prog = compile_source(SRC).core
        repro.check_program(prog)
        compiled = repro.compile_program(prog)
        assert compiled.host.kernels()

    def test_custom_entry_point(self):
        src = SRC + """
fun other (xs: [n]f32): f32 =
  reduce (\\(a: f32) (b: f32) -> a + b) 0.0f32 xs
"""
        compiled = compile_source(src, entry="other")
        (out,), _ = compiled.run([array_value([1.0, 2.0, 3.0], F32)])
        assert to_python(out) == 6.0

    def test_checking_can_be_disabled(self):
        # An unsafe program: consuming a non-unique parameter.
        bad = """
        fun main (xs: [n]f32): [n]f32 = xs with [0] <- 1.0f32
        """
        with pytest.raises(UniquenessError):
            compile_source(bad)
        compiled = compile_source(
            bad, CompilerOptions(check_uniqueness=False)
        )
        assert compiled.host.kernels() is not None

    def test_fusion_stats_exposed(self):
        compiled = compile_source(
            """
            fun main (xs: [n]f32): f32 =
              let ys = map (\\(x: f32) -> x * x) xs
              in reduce (\\(a: f32) (b: f32) -> a + b) 0.0f32 ys
            """
        )
        assert compiled.fusion_stats is not None
        assert compiled.fusion_stats.vertical == 1

    def test_options_recorded(self):
        options = CompilerOptions(disabled_passes=("coalescing",))
        compiled = compile_source(SRC, options)
        assert compiled.options is options


class TestOptionIndependence:
    """Each switch changes only its own aspect of the output."""

    ROW = """
    fun main (m: [a][b]f32): [a]f32 =
      map (\\(row: [b]f32) ->
        loop (acc = 0.0f32) for j < b do acc + row[j]) m
    """

    def test_every_combination_correct(self):
        import itertools

        args = [
            array_value(
                np.arange(12, dtype=np.float32).reshape(3, 4), F32
            )
        ]
        reference = None
        passes = ("fusion", "coalescing", "tiling")
        for off in itertools.product((True, False), repeat=3):
            compiled = compile_source(
                self.ROW,
                CompilerOptions(
                    disabled_passes=[p for p, o in zip(passes, off) if o]
                ),
            )
            (out,), _ = compiled.run(args)
            if reference is None:
                reference = to_python(out)
            assert to_python(out) == reference


class TestStreamSequentialisation:
    """The §5.1 heuristic: nested stream_reds are sequentialised; the
    option exists to make the flattener more aggressive (the paper
    notes 'the algorithm can easily be made more aggressive')."""

    SRC = """
    fun main (m: [a][b]i32): [a]i32 =
      map (\\(row: [b]i32) ->
        stream_red (\\(p: i32) (q: i32) -> p + q)
          (\\(c: i32) (acc: i32) (ch: [c]i32) ->
             loop (a2 = acc) for i < c do a2 + ch[i])
          0 row) m
    """

    def test_default_sequentialises(self):
        from repro.core import ast as A
        from repro.flatten.nests import nest_of

        compiled = compile_source(self.SRC)
        kernels = compiled.host.kernels()
        # One map kernel whose thread runs the stream sequentially.
        assert all(k.kind == "map" for k in kernels)

    def test_results_agree_either_way(self):
        import numpy as np
        from repro.core import array_value
        from repro.core.prim import I32

        args = [
            array_value(
                np.arange(12, dtype=np.int32).reshape(3, 4), I32
            )
        ]
        on = compile_source(self.SRC)
        off = compile_source(
            self.SRC, CompilerOptions(sequentialise_streams=False)
        )
        (a,), _ = on.run(args)
        (b,), _ = off.run(args)
        assert to_python(a) == to_python(b) == [6, 22, 38]
