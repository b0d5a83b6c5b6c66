"""A uniform-input ``map`` inside a batch extends the batch.

The compiler turns a perfect map nest into one kernel over a
multi-dimensional grid (paper §5, Fig. 8-9); the kernel lowering
(:mod:`repro.vm.jit.codegen`) must run that grid as *one* flat batch.  For an inner map over a uniform array
(``map (\\i -> map (\\j -> ...) js) is``) that means tiling the inner
input and repeating every lane value the inner lambda captures — there
is no row-at-a-time path to fall back on.

Each program here runs on the jit and the reference interpreter and
must agree (bit-exact for integers) with no launch falling back.  Programs are compiled twice, with the default
pipeline and with distribution/interchange off: the second keeps
reductions and loops *inside* the nest, so the flattened lambda bodies
cover every construct.  A structural test over the 16 benchmarks pins
what the generated code looks like: a Python loop only where the
kernel IR has a sequential construct or an associative fold (a
``while`` over the levels of its tree), and no element-at-a-time fold
or chunk-at-a-time stream where the tree and the lanes apply.
"""

import re

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import ast as A
from repro.core.prim import F32, I32
from repro.core.types import Array
from repro.core.values import array_value, scalar, values_equal
from repro.errors import ReproError
from repro.frontend import parse
from repro.interp import run_program
from repro.obs import metering
from repro.pipeline import CompilerOptions, compile_program
from repro.runtime import ExecutionPolicy
from repro.vm.jit import jit_cache_for
from repro.vm.jit.codegen.elementwise import (
    _simple_op, _trap_free, _ufunc_src,
)
from repro.vm.jit.codegen.folds import selection

#: The default pipeline, and one that leaves the whole nest (inner
#: reduces and loops included) in a single kernel.
PIPELINES = {
    "default": CompilerOptions(),
    "nest-intact": CompilerOptions(distribute=False, interchange=False),
}


def _f32(a) -> object:
    return array_value(np.asarray(a, dtype=np.float32), F32)


def _i32(a) -> object:
    return array_value(np.asarray(a, dtype=np.int32), I32)


def _fallbacks(m) -> dict:
    return {
        k: v
        for k, v in m.snapshot()["counters"].items()
        if k.startswith("vm.fallback")
    }


def _run_everywhere(src: str, make_args, options: CompilerOptions):
    """Run ``src`` on the jit, check it against the interpreter with
    no fallback, and return the generated sources (one string per
    kernel signature)."""
    prog = parse(src)
    expected = run_program(prog, make_args())
    compiled = compile_program(prog, options)
    with metering() as m:
        got, _cost, report = compiled.execute(
            make_args(), policy=ExecutionPolicy(executor="jit")
        )
    assert report.fallbacks == 0, report.summary()
    assert not _fallbacks(m), _fallbacks(m)
    assert len(got) == len(expected)
    for e, g in zip(expected, got):
        assert values_equal(e, g, rtol=1e-5, atol=1e-6), (e, g)
    return [
        s
        for by_sig in jit_cache_for(compiled.host).sources().values()
        for s in by_sig.values()
    ]


def _assert_flattened(sources) -> None:
    """Some kernel repeated a uniform inner input across the enclosing
    batch (``np.repeat(v[None], ...)`` is emitted nowhere else), and
    none fell back."""
    assert all(s is not None for s in sources), "a kernel was unsupported"
    assert any("[None], " in s for s in sources), (
        "no kernel flattened a uniform-input inner map"
    )


# -- programs ---------------------------------------------------------------

#: The inner lambda reads the outer lane value ``x``.
LANE_VALUE = r"""
fun main (xs: [n]f32) (m: i32): [n][m]f32 =
  let js = iota m
  in map (\(x: f32) -> map (\(j: i32) -> x * f32 j + 1.0f32) js) xs
"""

#: An outer-captured row is indexed by the inner index.
CAPTURED_ARRAY = r"""
fun main (xss: [n][m]f32): [n][m]f32 =
  let js = iota m
  in map (\(row: [m]f32) ->
       map (\(j: i32) -> row[m - 1 - j] * 2.0f32) js) xss
"""

#: Both at once, plus a uniform array indexed by both indices.
LANE_AND_ARRAY = r"""
fun main (xss: [n][m]f32) (ws: [n]f32): [n][m]f32 =
  let is = iota n
  let js = iota m
  in map (\(i: i32) ->
       let row = xss[i]
       let w = ws[i]
       in map (\(j: i32) -> row[j] * w + xss[n - 1 - i, j]) js) is
"""

THREE_DEEP = r"""
fun main (a: i32) (b: i32) (c: i32): [a][b][c]i32 =
  let is = iota a
  let js = iota b
  let ks = iota c
  in map (\(i: i32) ->
       map (\(j: i32) ->
         map (\(k: i32) -> i * 100 + j * 10 + k) ks) js) is
"""

INNER_REDUCE = r"""
fun main (xss: [n][k]f32) (m: i32): [n][m]f32 =
  let js = iota m
  in map (\(xs: [k]f32) ->
       map (\(j: i32) ->
         reduce (\(a: f32) (b: f32) -> a + b) 0.0f32
           (map (\(x: f32) -> x * f32 j) xs)) js) xss
"""

#: A sequential loop carrying an array that is updated in place.
INNER_LOOP_WITH_UPDATE = r"""
fun main (n: i32) (m: i32) (k: i32): [n][m]i32 =
  let is = iota n
  let js = iota m
  in map (\(i: i32) ->
       map (\(j: i32) ->
         let acc = replicate 3 0
         let acc2 = loop (a = acc) for t < k do
           let a2 = a with [t % 3] <- a[t % 3] + i * j + t
           in a2
         in acc2[0] + acc2[1] * 2 + acc2[2] * 3) js) is
"""

#: The branch diverges across the flat batch (neither all-true nor
#: all-false in any row or column).
DIVERGENT_IF = r"""
fun main (n: i32) (m: i32): [n][m]i32 =
  let is = iota n
  let js = iota m
  in map (\(i: i32) ->
       map (\(j: i32) ->
         if (i + j) % 2 == 0 then i * j else 0 - (i + j)) js) is
"""

#: An in-place ``with`` on a per-thread array built from the lane value.
INNER_UPDATE = r"""
fun main (xs: [n]i32) (m: i32): [n][m][2]i32 =
  let js = iota m
  in map (\(x: i32) ->
       map (\(j: i32) ->
         let pair = replicate 2 x
         in pair with [1] <- j) js) xs
"""

_RNG = np.random.default_rng(0)
_XSS = _RNG.normal(size=(5, 4)).astype(np.float32)
_WS = _RNG.normal(size=5).astype(np.float32)

CASES = {
    "lane-value": (
        LANE_VALUE, lambda: [_f32(_WS), scalar(4, I32)]
    ),
    "captured-array": (CAPTURED_ARRAY, lambda: [_f32(_XSS)]),
    "lane-and-array": (LANE_AND_ARRAY, lambda: [_f32(_XSS), _f32(_WS)]),
    "three-deep": (
        THREE_DEEP,
        lambda: [scalar(3, I32), scalar(4, I32), scalar(5, I32)],
    ),
    "inner-reduce": (INNER_REDUCE, lambda: [_f32(_XSS), scalar(3, I32)]),
    "inner-loop-update": (
        INNER_LOOP_WITH_UPDATE,
        lambda: [scalar(4, I32), scalar(3, I32), scalar(7, I32)],
    ),
    "divergent-if": (DIVERGENT_IF, lambda: [scalar(5, I32), scalar(4, I32)]),
    "inner-update": (
        INNER_UPDATE, lambda: [_i32([7, -2, 9]), scalar(4, I32)]
    ),
    # Degenerate extents: the flat batch is the other dimension alone.
    "inner-width-1": (
        LANE_VALUE, lambda: [_f32(_WS), scalar(1, I32)]
    ),
    "outer-width-1": (
        LANE_AND_ARRAY, lambda: [_f32(_XSS[:1]), _f32(_WS[:1])]
    ),
}


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_flattened_nest_matches_interpreter(case, pipeline):
    src, make_args = CASES[case]
    sources = _run_everywhere(src, make_args, PIPELINES[pipeline])
    _assert_flattened(sources)


def test_nest_intact_pipeline_keeps_the_constructs_inside():
    """The second pipeline is what puts a ``reduce`` and a ``loop``
    under the flattened lambda; check that it still does."""

    def inner_kinds(src):
        compiled = compile_program(parse(src), PIPELINES["nest-intact"])
        found = set()

        def walk_body(body, depth):
            for bnd in body.bindings:
                walk(bnd.exp, depth)

        def walk(e, depth):
            if depth >= 2:
                found.add(type(e).__name__)
            if isinstance(e, A.MapExp):
                walk_body(e.lam.body, depth + 1)
            elif isinstance(e, A.LoopExp):
                walk_body(e.body, depth)
            elif isinstance(e, A.IfExp):
                walk_body(e.t_body, depth)
                walk_body(e.f_body, depth)

        for k in compiled.host.kernels():
            walk(k.exp, 0)
        return found

    assert "ReduceExp" in inner_kinds(INNER_REDUCE)
    assert {"LoopExp", "UpdateExp"} <= inner_kinds(INNER_LOOP_WITH_UPDATE)


# -- traps ------------------------------------------------------------------

ONE_ZERO_DIVISOR = r"""
fun main (n: i32) (m: i32) (zi: i32) (zj: i32): [n][m]i32 =
  let is = iota n
  let js = iota m
  in map (\(i: i32) ->
       map (\(j: i32) ->
         let d = if i == zi && j == zj then 0 else i + j + 1
         in 100 / d) js) is
"""


@pytest.mark.parametrize("executor", ["jit", "sim"])
def test_one_trapping_lane_surfaces_the_interpreter_error(executor):
    """A zero divisor at exactly one ``(i, j)`` of the flat batch must
    come out as the interpreter's error — the jit hands the launch
    down rather than produce a value for the trapped lane."""
    prog = parse(ONE_ZERO_DIVISOR)

    def args(zi, zj):
        return [scalar(4, I32), scalar(5, I32),
                scalar(zi, I32), scalar(zj, I32)]

    with pytest.raises(ZeroDivisionError) as want:
        run_program(prog, args(2, 3))
    compiled = compile_program(prog)
    policy = ExecutionPolicy(executor=executor)
    with metering() as m:
        with pytest.raises(ZeroDivisionError) as got:
            compiled.execute(args(2, 3), policy=policy)
    assert str(got.value) == str(want.value)
    assert bool(_fallbacks(m)) == (executor == "jit"), (
        "the trap was not handed down to the interpreter"
    )
    # The same compiled program with the trap out of range is served
    # on the executor asked for.
    with metering() as m:
        values, _cost, report = compiled.execute(args(9, 9), policy=policy)
    assert report.fallbacks == 0 and not _fallbacks(m)
    (e,) = run_program(prog, args(9, 9))
    assert values_equal(e, values[0])


IRREGULAR = r"""
fun main (n: i32) (m: i32): [n][m][k]i32 =
  let is = iota n
  let js = iota m
  in map (\(i: i32) -> map (\(j: i32) -> iota (j + 1)) js) is
"""


@pytest.mark.parametrize("executor", ["jit", "sim"])
def test_irregular_inner_result_is_still_rejected(executor):
    prog = parse(IRREGULAR)
    args = [scalar(2, I32), scalar(3, I32)]
    with pytest.raises(ReproError) as want:
        run_program(prog, args)
    compiled = compile_program(prog)
    with pytest.raises(ReproError) as got:
        compiled.execute(args, policy=ExecutionPolicy(executor=executor))
    assert str(got.value) == str(want.value)


# -- what the generated code looks like -------------------------------------


def _sequential_constructs(e: A.Exp) -> set:
    """The constructs under ``e`` that the transpiler lowers to a
    Python loop: ``loop``, ``stream`` (over lane groups or chunks, and
    the levels of a ``stream_red``'s combining tree), and
    ``fold``/``scan`` for a reduce/scan whose operator is not a NumPy
    ufunc (the levels of a tree, or a left fold) — but a reduce that
    selects an argument, which is one argmin."""
    found = set()

    def walk_body(body):
        for bnd in body.bindings:
            walk(bnd.exp)

    def walk(x):
        if isinstance(x, A.LoopExp):
            found.add("loop")
            walk_body(x.body)
        elif isinstance(
            x, (A.StreamMapExp, A.StreamRedExp, A.StreamSeqExp)
        ):
            found.add("stream")
        elif isinstance(x, (A.ReduceExp, A.ScanExp)):
            t = x.lam.ret_types[0]
            elem = t.elem if isinstance(t, Array) else t.t
            single = len(x.arrs) == 1 and len(x.neutral) == 1
            picks = isinstance(x, A.ReduceExp) and selection(x.lam)
            if not picks and (
                not single or _ufunc_src(_simple_op(x.lam), elem) is None
            ):
                found.add("scan" if isinstance(x, A.ScanExp) else "fold")
            walk_body(x.lam.body)
        elif isinstance(x, (A.MapExp, A.FilterExp)):
            walk_body(x.lam.body)
        elif isinstance(x, A.IfExp):
            walk_body(x.t_body)
            walk_body(x.f_body)

    walk(e)
    return found


_FOR = re.compile(r"^\s*(for|while) ", re.MULTILINE)
#: ``_fold_sequential`` at kernel level: the element loop sits directly
#: in ``run``'s ``with`` block.
_SCALAR_FOLD = re.compile(
    r"^ {8}for _i\d+ in range\(int\(_w\d+\)\):", re.MULTILINE
)


@pytest.mark.parametrize("name", list(BENCHMARKS.names()))
def test_generated_source_loops_only_where_the_ir_does(name):
    spec = BENCHMARKS[name]
    compiled = compile_program(spec.program())
    args = spec.small_args(np.random.default_rng(0))
    with metering() as m:
        _vals, _cost, report = compiled.execute(
            args, policy=ExecutionPolicy(executor="jit")
        )
    assert report.fallbacks == 0 and not _fallbacks(m)
    sources = jit_cache_for(compiled.host).sources()
    for kernel in compiled.host.kernels():
        sequential = _sequential_constructs(kernel.exp)
        for src in sources.get(kernel.name, {}).values():
            where = f"{name}/{kernel.name}"
            assert src is not None, f"{where}: unsupported"
            # Rows are collected in a list only by a sequential scan.
            assert "scan" in sequential or "_col" not in src, (
                f"{where}: a column accumulator without a sequential scan"
            )
            loops = _FOR.findall(src)
            assert sequential or not loops, (
                f"{where}: generated code loops ({len(loops)}x) but the "
                "kernel IR has no loop, stream or non-ufunc fold"
            )
            assert "while" not in loops or sequential & {
                "loop", "stream", "fold"
            }, f"{where}: a while without a loop, stream_red or fold"
            # Chunks are walked one at a time only by the two streams
            # whose chunks depend on each other or return arrays.
            e = kernel.exp
            assert ("R.chunks(" in src) == isinstance(
                e, (A.StreamMapExp, A.StreamSeqExp)
            ), where
            if isinstance(e, A.StreamRedExp):
                assert "R.lane_groups(" in src and "while _n" in src, where
            if isinstance(e, A.StreamRedExp) or (
                isinstance(e, A.ReduceExp) and _trap_free(e.lam.body)
            ):
                assert not _SCALAR_FOLD.search(src), (
                    f"{where}: an element-at-a-time fold at kernel level"
                )
                assert ("while _n" in src) == bool(
                    sequential & {"stream", "fold"}
                ), f"{where}: tree combine missing or unexpected"
