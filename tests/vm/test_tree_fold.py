"""Associative folds run as trees, streams as lanes.

The kernel lowering (:mod:`repro.vm.jit.codegen`) runs a kernel-level
``reduce`` whose operator is not a NumPy ufunc as an order-preserving
pairwise tree, and gives every chunk of a ``stream_red`` its own lane
before tree-combining the lane accumulators.  Both assume only what
the language obliges the programmer to provide — associativity, never
commutativity — so every program here uses an operator whose result
depends on operand *order*, and must agree on the jit, the simulator
and the reference interpreter (integers bit-exact, floats at the
differential tolerance) with no launch falling back.

An operator the lowering cannot apply out of order without moving a
trap (``/``, ``%``, an index) keeps the left-to-right fold, as does a
reduce met inside a batch.
"""

import re

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.core.prim import F32, I32
from repro.core.values import ScalarValue, array_value, values_equal
from repro.frontend import parse
from repro.interp import run_program
from repro.obs import metering
from repro.pipeline import compile_program
from repro.runtime import ExecutionPolicy
from repro.vm.jit import jit_cache_for
from repro.vm.jit.runtime import JitRuntime

REDUCE_WIDTHS = [0, 1, 2, 3, 7, 8, 1000, 1023]
#: 1 and 2 (one element per lane), primes (two groups of unequal
#: chunks), perfect squares (one group), and the small ones in between.
STREAM_WIDTHS = [1, 2, 3, 4, 5, 13, 16, 97, 100]

#: Sequential left fold at kernel level, as ``_fold_sequential`` emits it.
_SCALAR_FOLD = "in range(int(_w"
#: A sequential ``for i < q`` over a ``stream_red`` chunk, as
#: ``gen_loop``'s step emits it.
_CHUNK_LOOP = re.compile(r"in range\(int\(_size\d+\)\)")


def _i32(a) -> object:
    return array_value(np.asarray(a, dtype=np.int32), I32)


def _f32(a) -> object:
    return array_value(np.asarray(a, dtype=np.float32), F32)


def _fallbacks(m) -> dict:
    return {
        k: v
        for k, v in m.snapshot()["counters"].items()
        if k.startswith("vm.fallback")
    }


def _agree(src: str, make_args):
    """Run ``src`` on both executors; both must match the interpreter
    without a fallback.  Returns the generated sources."""
    prog = parse(src)
    expected = run_program(prog, make_args())
    compiled = compile_program(prog)
    for executor in ("jit", "sim"):
        with metering() as m:
            got, _cost, report = compiled.execute(
                make_args(), policy=ExecutionPolicy(executor=executor)
            )
        assert report.fallbacks == 0, report.summary()
        assert not _fallbacks(m), _fallbacks(m)
        assert len(got) == len(expected)
        for e, g in zip(expected, got):
            prim = e.type if isinstance(e, ScalarValue) else e.elem
            tol = 0.0 if prim.is_integral else 1e-4
            assert values_equal(e, g, rtol=tol, atol=tol), (executor, e, g)
    sources = [
        s
        for by_sig in jit_cache_for(compiled.host).sources().values()
        for s in by_sig.values()
    ]
    assert all(s is not None for s in sources), "a kernel was unsupported"
    return sources


def _assert_tree(sources) -> None:
    assert any("while _n" in s for s in sources), "no tree combine emitted"
    assert not any(_SCALAR_FOLD in s for s in sources), (
        "a scalar left fold was emitted"
    )


def _assert_accumulated(sources) -> None:
    """An in-place accumulator is one scatter-accumulate per lane
    group, not a step per element of the chunk."""
    assert any(".at(" in s for s in sources), "no ufunc.at emitted"
    assert not any(_CHUNK_LOOP.search(s) for s in sources), (
        "a loop with the chunk size as its trip count was emitted"
    )


# -- reduce: non-commutative associative operators ---------------------------

ARGMIN_KEEP_LEFT = r"""
fun main (vs: [n]i32) (is: [n]i32): (i32, i32) =
  reduce (\(av: i32) (ai: i32) (v: i32) (i: i32) ->
            if v < av then {v, i} else {av, ai})
         (2147483647, -1) vs is
"""

ARGMAX_KEEP_RIGHT = r"""
fun main (vs: [n]i32) (is: [n]i32): (i32, i32) =
  reduce (\(av: i32) (ai: i32) (v: i32) (i: i32) ->
            if v >= av then {v, i} else {av, ai})
         (-2147483648, -1) vs is
"""

ARGMIN_F32 = r"""
fun main (vs: [n]f32) (is: [n]i32): (f32, i32) =
  reduce (\(av: f32) (ai: i32) (v: f32) (i: i32) ->
            if v < av then {v, i} else {av, ai})
         (1.0e30f32, 0) vs is
"""

#: 2x2 integer matrix product, row-major 4-tuple (wraps mod 2**32,
#: which keeps it associative).
MATMUL_2X2 = r"""
fun main (as: [n]i32) (bs: [n]i32) (cs: [n]i32) (ds: [n]i32)
    : (i32, i32, i32, i32) =
  reduce (\(a: i32) (b: i32) (c: i32) (d: i32)
           (e: i32) (f: i32) (g: i32) (h: i32) ->
            {a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h})
         (1, 0, 0, 1) as bs cs ds
"""

SUM_AND_MAX_I32 = r"""
fun main (xs: [n]i32) (ys: [n]i32): (i32, i32) =
  reduce (\(a1: i32) (a2: i32) (b1: i32) (b2: i32) ->
            {a1 + b1, max a2 b2})
         (0, -2147483648) xs ys
"""

SUM_AND_MAX_F32 = r"""
fun main (xs: [n]f32) (ys: [n]f32): (f32, f32) =
  reduce (\(a1: f32) (a2: f32) (b1: f32) (b2: f32) ->
            {a1 + b1, max a2 b2})
         (0.0f32, -1.0e30f32) xs ys
"""


def _tied(n: int, rng) -> np.ndarray:
    """Values whose extremes sit at *both* ends (and in the middle)."""
    vs = rng.integers(-50, 50, n)
    if n:
        vs[0] = vs[-1] = -99
        vs[n // 2] = -99
        if n > 3:
            vs[1] = vs[-2] = 99
    return vs


def _reduce_args(case: str, n: int):
    rng = np.random.default_rng(n)
    if case in ("argmin", "argmax"):
        return [_i32(_tied(n, rng)), _i32(np.arange(n))]
    if case == "argmin-f32":
        return [_f32(_tied(n, rng) * 0.5), _i32(np.arange(n))]
    if case == "matmul":
        return [_i32(rng.integers(-3, 4, n)) for _ in range(4)]
    if case == "sum-max-i32":
        return [_i32(rng.integers(-100, 100, n)) for _ in range(2)]
    return [_f32(rng.normal(size=n)) for _ in range(2)]


REDUCE_CASES = {
    "argmin": ARGMIN_KEEP_LEFT,
    "argmax": ARGMAX_KEEP_RIGHT,
    "argmin-f32": ARGMIN_F32,
    "matmul": MATMUL_2X2,
    "sum-max-i32": SUM_AND_MAX_I32,
    "sum-max-f32": SUM_AND_MAX_F32,
}


@pytest.mark.parametrize("n", REDUCE_WIDTHS)
@pytest.mark.parametrize("case", sorted(REDUCE_CASES))
def test_tree_reduce_matches_the_left_fold(case, n):
    sources = _agree(REDUCE_CASES[case], lambda: _reduce_args(case, n))
    _assert_tree(sources)


def test_ties_resolve_by_position_not_by_tree_shape():
    """All-equal input: keep-left must name index 0, keep-right the
    last one, at a width whose tree carries an odd tail at every
    level."""
    n = 1023
    args = lambda: [_i32(np.full(n, 7)), _i32(np.arange(n))]  # noqa: E731
    for src, want in ((ARGMIN_KEEP_LEFT, 0), (ARGMAX_KEEP_RIGHT, n - 1)):
        compiled = compile_program(parse(src))
        got, _cost, report = compiled.execute(
            args(), policy=ExecutionPolicy(executor="jit")
        )
        assert report.fallbacks == 0
        assert (got[0].value, got[1].value) == (7, want)


# -- reduce: what keeps the sequential order ---------------------------------

#: Not associative, so any other order shows in the value.
DIVIDE = r"""
fun main (xs: [n]i32): i32 =
  reduce (\(a: i32) (b: i32) -> a / b) 1000000000 xs
"""

MODULO = r"""
fun main (xs: [n]i32): i32 =
  reduce (\(a: i32) (b: i32) -> (a * 31 + 7) % b) 12345 xs
"""

TABLE_LOOKUP = r"""
fun main (tbl: [m]i32) (xs: [n]i32): i32 =
  reduce (\(a: i32) (b: i32) -> max (tbl[a]) b - 1) 3 xs
"""


@pytest.mark.parametrize("n", [1, 2, 7, 8, 33])
def test_operator_with_a_trap_site_folds_left_to_right(n):
    rng = np.random.default_rng(n)
    cases = {
        "div": (DIVIDE, lambda: [_i32(rng.integers(1, 4, n))]),
        "mod": (MODULO, lambda: [_i32(rng.integers(5, 90, n))]),
        "index": (
            TABLE_LOOKUP,
            lambda: [
                _i32(rng.permutation(16)), _i32(rng.integers(1, 16, n))
            ],
        ),
    }
    for src, make_args in cases.values():
        args = make_args()
        sources = _agree(src, lambda: args)
        assert any(_SCALAR_FOLD in s for s in sources)
        assert not any("while _n" in s for s in sources)


@pytest.mark.parametrize("executor", ["jit", "sim"])
def test_zero_divisor_surfaces_the_interpreter_error(executor):
    prog = parse(DIVIDE)
    args = lambda: [_i32([3, 2, 0, 5])]  # noqa: E731
    with pytest.raises(ZeroDivisionError) as want:
        run_program(prog, args())
    compiled = compile_program(prog)
    with metering() as m:
        with pytest.raises(ZeroDivisionError) as got:
            compiled.execute(
                args(), policy=ExecutionPolicy(executor=executor)
            )
    assert str(got.value) == str(want.value)
    assert bool(_fallbacks(m)) == (executor == "jit")


#: Row-wise argmin: the reduce sits inside the map's batch.
ROWWISE_ARGMIN = r"""
fun main (xss: [n][m]i32) (is: [m]i32): ([n]i32, [n]i32) =
  map (\(row: [m]i32) ->
         reduce (\(av: i32) (ai: i32) (v: i32) (i: i32) ->
                   if v < av then {v, i} else {av, ai})
                (2147483647, -1) row is) xss
"""


def test_reduce_inside_a_batch_is_unchanged():
    rng = np.random.default_rng(5)
    xss = rng.integers(-9, 9, (6, 11))
    xss[:, 0] = xss[:, -1] = -9
    sources = _agree(
        ROWWISE_ARGMIN, lambda: [_i32(xss), _i32(np.arange(11))]
    )
    assert any(_SCALAR_FOLD in s for s in sources)
    assert not any("while _n" in s for s in sources)


# -- stream_red --------------------------------------------------------------

#: Array accumulator updated in place (Fig. 4c).
HISTOGRAM = r"""
fun main (membership: [n]i32): [5]i32 =
  stream_red
    (\(xv: [5]i32) (yv: [5]i32) -> map (\(x: i32) (y: i32) -> x + y) xv yv)
    (\(q: i32) (acc: *[5]i32) (ch: [q]i32) ->
       loop (acc2: *[5]i32 = acc) for i < q do
         let c = ch[i]
         let acc2[c] = acc2[c] + 1
         in acc2)
    (replicate 5 0)
    membership
"""

SCALAR_ACC = r"""
fun main (xs: [n]i32): i32 =
  stream_red (\(a: i32) (b: i32) -> a + b)
    (\(q: i32) (acc: i32) (ch: [q]i32) ->
       loop (s = acc) for i < q do s + ch[i] * ch[i])
    0 xs
"""

SCALAR_ACC_F32 = r"""
fun main (xs: [n]f32): f32 =
  stream_red (\(a: f32) (b: f32) -> a + b)
    (\(q: i32) (acc: f32) (ch: [q]f32) ->
       acc + reduce (\(a: f32) (b: f32) -> a + b) 0.0f32
               (map (\(x: f32) -> x * x) ch))
    0.0f32 xs
"""

#: A reduction operator that is not commutative: the first minimum
#: wins, so lane accumulators must combine in stream order.
STREAM_ARGMIN = r"""
fun main (vs: [n]i32) (is: [n]i32): (i32, i32) =
  stream_red
    (\(av: i32) (ai: i32) (bv: i32) (bi: i32) ->
       if bv < av then {bv, bi} else {av, ai})
    (\(q: i32) (mv: i32) (mi: i32) (cv: [q]i32) (ci: [q]i32) ->
       loop (v = mv, i = mi) for j < q do
         if cv[j] < v then {cv[j], ci[j]} else {v, i})
    (2147483647, -1) vs is
"""

#: A per-chunk array result next to the accumulator.
WITH_ARRAY_RESULT = r"""
fun main (xs: [n]i32): (i32, [n]i32) =
  stream_red (\(a: i32) (b: i32) -> a + b)
    (\(q: i32) (acc: i32) (ch: [q]i32) ->
       let ys = map (\(x: i32) -> x * 3 + 1) ch
       let s = reduce (\(a: i32) (b: i32) -> a + b) 0 ch
       in {acc + s, ys})
    0 xs
"""

STREAM_CASES = {
    "histogram": (
        HISTOGRAM,
        lambda rng, n: [_i32(rng.integers(0, 5, n))],
    ),
    "scalar-acc": (
        SCALAR_ACC,
        lambda rng, n: [_i32(rng.integers(-30, 30, n))],
    ),
    "scalar-acc-f32": (
        SCALAR_ACC_F32,
        lambda rng, n: [_f32(rng.normal(size=n))],
    ),
    "argmin": (
        STREAM_ARGMIN,
        lambda rng, n: [_i32(_tied(n, rng)), _i32(np.arange(n))],
    ),
    "array-result": (
        WITH_ARRAY_RESULT,
        lambda rng, n: [_i32(rng.integers(-30, 30, n))],
    ),
}


@pytest.mark.parametrize("n", STREAM_WIDTHS)
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_stream_red_lanes_match_the_chunked_fold(case, n):
    src, make = STREAM_CASES[case]
    args = make(np.random.default_rng(n), n)
    sources = _agree(src, lambda: args)
    assert any("R.lane_groups(" in s for s in sources)
    assert not any("R.chunks(" in s for s in sources)
    if case == "histogram":
        _assert_accumulated(sources)


def test_kmeans_cluster_sums_are_one_scatter_accumulate():
    """The paper's running example (Fig. 4c): neither the counts nor
    the ``[k][d]`` sums step through the chunk."""
    spec = BENCHMARKS["K-means"]
    compiled = compile_program(spec.program())
    compiled.execute(
        spec.small_args(np.random.default_rng(0)),
        policy=ExecutionPolicy(executor="jit"),
    )
    sources = jit_cache_for(compiled.host).sources()
    (stream_red,) = [
        s
        for kernel, by_sig in sources.items()
        if kernel.startswith("stream_red")
        for s in by_sig.values()
    ]
    assert stream_red.count(".at(") == 2
    _assert_accumulated([stream_red])


def test_accumulator_smaller_than_the_lane_count():
    """Two bins, ten lanes: most lanes never touch most of their
    private accumulator."""
    src = HISTOGRAM.replace("5", "2")
    bins = np.random.default_rng(1).integers(0, 2, 100)
    _agree(src, lambda: [_i32(bins)])


@pytest.mark.parametrize("width", list(range(1, 40)) + [97, 100, 1024, 10007])
def test_lane_groups_partition_the_stream_in_order(width):
    groups = JitRuntime.lane_groups(width)
    assert 1 <= len(groups) <= 2
    offset = 0
    for lanes, size, off in groups:
        assert lanes > 0 and size > 0 and off == offset
        offset += lanes * size
    assert offset == width
    lanes = sum(g[0] for g in groups)
    assert (lanes - 1) ** 2 < width <= lanes**2
    if len(groups) == 2:
        assert groups[0][1] == groups[1][1] + 1
