"""Tests of kernel extraction (rules G1–G7), including the paper's
Fig. 11 worked example."""

import numpy as np
import pytest

from repro.core import ProgBuilder, array, array_value, scalar, to_python, values_equal
from repro.core import ast as A
from repro.core.prim import F32, I32
from repro.core.types import Array, Prim
from repro.checker import check_types
from repro.frontend import parse
from repro.flatten import FlattenOptions, flatten_prog, perfect_nests
from repro.flatten.nests import nest_of
from repro.interp import run_program
from repro.pipeline import CompilerOptions, compile_program
from repro.simplify import simplify_prog

from tests.helpers import fig11_program, matmul_program, rowsums_program


def fig11_reference(pss, n):
    """Direct numpy rendition of Fig. 11a's semantics."""
    m = pss.shape[0]
    asss = np.zeros((m, m, m), dtype=np.int64)
    for i, ps in enumerate(pss):
        for j, p in enumerate(ps):
            cs = np.cumsum(np.arange(p))
            r = cs.sum() if p > 0 else 0
            asss[i, j] = ps + r
    bss = pss.astype(np.int64).copy()
    for _ in range(n):
        new = np.zeros_like(bss)
        for i in range(m):
            for j in range(m):
                d = asss[i, j].sum()
                new[i, j] = 2 * (d + bss[i, j])
        bss = new
    return asss, bss


class TestFig11:
    def test_structure(self):
        prog = flatten_prog(fig11_program())
        prog = simplify_prog(prog)
        check_types(prog)
        body = prog.fun("main").body
        nests = perfect_nests(body)
        kinds = sorted(
            (info.depth, info.inner) for _, info in nests
        )
        # Fig. 11b: a map-map nest (sequential scan/reduce inside), a
        # map-map-map nest, and — inside the loop — a map-map-reduce
        # (segmented reduction) plus a map-map nest.
        assert (2, "seq") in kinds
        assert (3, "seq") in kinds
        assert (3, "reduce") in kinds
        assert len([k for k in kinds if k == (2, "seq")]) >= 2
        # The loop was interchanged outwards: a top-level loop exists.
        assert any(
            isinstance(b.exp, A.LoopExp) for b in body.bindings
        )

    def test_semantics(self):
        prog = fig11_program()
        flat = simplify_prog(flatten_prog(prog))
        m, n = 4, 3
        rng = np.random.default_rng(5)
        pss = rng.integers(0, 4, size=(m, m)).astype(np.int32)
        args = [array_value(pss, I32), scalar(n, I32)]
        expected = run_program(prog, args)
        got = run_program(flat, args)
        for e, g in zip(expected, got):
            assert values_equal(e, g)
        # And both agree with the independent numpy model.
        asss, bss = fig11_reference(pss, n)
        assert np.array_equal(expected[0].data, asss.astype(np.int32))
        assert np.array_equal(expected[1].data, bss.astype(np.int32))

    def test_interchange_disabled(self):
        options = FlattenOptions(interchange=False)
        prog = simplify_prog(flatten_prog(fig11_program(), options))
        body = prog.fun("main").body
        # Without G7 there is no top-level loop: the loop stays inside
        # a (sequential) kernel thread.
        assert not any(
            isinstance(b.exp, A.LoopExp) for b in body.bindings
        )
        m, n = 3, 2
        pss = np.ones((m, m), dtype=np.int32)
        args = [array_value(pss, I32), scalar(n, I32)]
        expected = run_program(fig11_program(), args)
        got = run_program(prog, args)
        for e, g in zip(expected, got):
            assert values_equal(e, g)


class TestBasicDistribution:
    def test_simple_map_untouched(self):
        prog = parse(
            "fun main (xs: [n]f32): [n]f32 = "
            "map (\\(x: f32) -> x + 1.0f32) xs"
        )
        flat = simplify_prog(flatten_prog(prog))
        nests = perfect_nests(flat.fun("main").body)
        assert len(nests) == 1
        assert nests[0][1] == nests[0][1].__class__(1, nests[0][1].widths, "seq")

    def test_map_map_becomes_depth2(self):
        prog = parse(
            """
            fun main (m: [a][b]f32): [a][b]f32 =
              map (\\(row: [b]f32) ->
                map (\\(x: f32) -> x * 2.0f32) row) m
            """
        )
        flat = simplify_prog(flatten_prog(prog))
        nests = perfect_nests(flat.fun("main").body)
        assert len(nests) == 1
        assert nests[0][1].depth == 2
        args = [array_value(np.ones((2, 3), np.float32), F32)]
        assert to_python(run_program(flat, args)[0]) == [[2.0] * 3] * 2

    def test_rowsums_segmented_reduction(self):
        # map(\row -> reduce + row) m  ==>  a map-reduce nest.
        prog = parse(
            """
            fun main (m: [a][b]f32): [a]f32 =
              map (\\(row: [b]f32) ->
                reduce (\\(x: f32) (y: f32) -> x + y) 0.0f32 row) m
            """
        )
        flat = simplify_prog(flatten_prog(prog))
        nests = perfect_nests(flat.fun("main").body)
        assert [(i.depth, i.inner) for _, i in nests] == [(2, "reduce")]
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        out = run_program(flat, [array_value(data, F32)])
        assert np.allclose(out[0].data, data.sum(axis=1))

    def test_distribution_splits_map_and_scalar(self):
        # An imperfect nest: scalar code then an inner map; the scalar
        # part is materialised (G4) and both become perfect nests.
        prog = parse(
            """
            fun main (m: [a][b]f32): [a][b]f32 =
              map (\\(row: [b]f32) ->
                let s = reduce (\\(x: f32) (y: f32) -> x + y) 0.0f32 row
                in map (\\(x: f32) -> x / s) row) m
            """
        )
        flat = simplify_prog(flatten_prog(prog))
        check_types(flat)
        nests = perfect_nests(flat.fun("main").body)
        kinds = sorted((i.depth, i.inner) for _, i in nests)
        assert kinds == [(2, "reduce"), (2, "seq")]
        data = np.arange(1, 13, dtype=np.float32).reshape(3, 4)
        out = run_program(flat, [array_value(data, F32)])
        expected = data / data.sum(axis=1, keepdims=True)
        assert np.allclose(out[0].data, expected, rtol=1e-5)

    def test_irregular_parallelism_sequentialised(self):
        # map over iota p with p variant: must NOT distribute (would
        # create an irregular array); stays sequential inside.
        prog = parse(
            """
            fun main (ps: [n]i32): [n]i32 =
              map (\\(p: i32) ->
                reduce (\\(a: i32) (b: i32) -> a + b) 0 (iota p)) ps
            """
        )
        flat = simplify_prog(flatten_prog(prog))
        check_types(flat)
        nests = perfect_nests(flat.fun("main").body)
        assert [(i.depth, i.inner) for _, i in nests] == [(1, "seq")]
        out = run_program(flat, [array_value([0, 1, 2, 3], I32)])
        assert to_python(out[0]) == [0, 0, 1, 3]

    def test_g5_reduce_map_interchange(self):
        # reduce with a vectorised operator becomes transpose + a
        # map-reduce (segmented reduction) — rule G5.
        prog = parse(
            """
            fun main (zs: [n][4]i32): [4]i32 =
              reduce (\\(x: [4]i32) (y: [4]i32) ->
                       map (\\(a: i32) (b: i32) -> a + b) x y)
                     (replicate 4 0) zs
            """
        )
        flat = simplify_prog(flatten_prog(prog))
        check_types(flat)
        body = flat.fun("main").body
        assert any(
            isinstance(b.exp, A.RearrangeExp) for b in body.bindings
        )
        nests = perfect_nests(body)
        assert [(i.depth, i.inner) for _, i in nests] == [(2, "reduce")]
        data = np.arange(20, dtype=np.int32).reshape(5, 4)
        out = run_program(flat, [array_value(data, I32)])
        assert to_python(out[0]) == list(data.sum(axis=0))

    def test_g5_disabled(self):
        prog = parse(
            """
            fun main (zs: [n][4]i32): [4]i32 =
              reduce (\\(x: [4]i32) (y: [4]i32) ->
                       map (\\(a: i32) (b: i32) -> a + b) x y)
                     (replicate 4 0) zs
            """
        )
        options = FlattenOptions(reduce_map_interchange=False)
        flat = simplify_prog(flatten_prog(prog, options))
        body = flat.fun("main").body
        assert not any(
            isinstance(b.exp, A.RearrangeExp) for b in body.bindings
        )

    def test_distribute_disabled_keeps_outer_only(self):
        prog = parse(
            """
            fun main (m: [a][b]f32): [a][b]f32 =
              map (\\(row: [b]f32) ->
                map (\\(x: f32) -> x * 2.0f32) row) m
            """
        )
        options = FlattenOptions(distribute=False)
        flat = simplify_prog(flatten_prog(prog, options))
        nests = perfect_nests(flat.fun("main").body)
        # Depth 2 is still recognisable as a nest in the original
        # program form, but no distribution happened: the program is
        # unchanged (one top-level map binding).
        assert len(flat.fun("main").body.bindings) == 1

    # The imperfect map–reduce–map nest through the whole pipeline.
    IMPERFECT = """
    fun main (m: [a][b]f32): [a][b]f32 =
      map (\\(row: [b]f32) ->
        let s = reduce (\\(x: f32) (y: f32) -> x + y) 0.0f32 row
        in map (\\(x: f32) -> x / (s + 1.0f32)) row) m
    """

    def test_imperfect_nest_is_two_kernels_distributed_one_otherwise(self):
        # Distributed: a segmented reduce and a map.  Not distributed:
        # one kernel whose threads each run a whole row.
        prog = parse(self.IMPERFECT)
        assert len(compile_program(prog).host.kernels()) == 2
        outer_only = compile_program(prog, CompilerOptions(distribute=False))
        assert len(outer_only.host.kernels()) == 1

    def test_imperfect_nest_agrees_with_the_interpreter_however_flattened(
        self,
    ):
        prog = parse(self.IMPERFECT)
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        args = [array_value(data, F32)]
        expected = run_program(prog, args)
        for options in (
            CompilerOptions(),
            CompilerOptions(distribute=False),
            CompilerOptions(interchange=False),
        ):
            got, _ = compile_program(prog, options).run(args)
            assert values_equal(expected[0], got[0]), options


class TestSemanticsPreservation:
    @pytest.mark.parametrize(
        "mk,args",
        [
            (
                rowsums_program,
                [array_value(np.arange(12, np.float32().itemsize).reshape(3, 4).astype(np.float32), F32)]
                if False
                else [array_value(np.arange(12).reshape(3, 4).astype(np.float32), F32)],
            ),
            (
                matmul_program,
                [
                    array_value(np.arange(12).reshape(3, 4).astype(np.float32), F32),
                    array_value(np.arange(8).reshape(4, 2).astype(np.float32), F32),
                ],
            ),
        ],
        ids=["rowsums", "matmul"],
    )
    def test_flatten_preserves(self, mk, args):
        prog = mk()
        flat = simplify_prog(flatten_prog(prog))
        check_types(flat)
        expected = run_program(prog, args)
        got = run_program(flat, args)
        for e, g in zip(expected, got):
            assert values_equal(e, g)
