"""A corpus that reaches every emitter of the kernel lowering.

The 16 benchmarks — all the golden files and the differential suite
ever transpile — never reach a third of :mod:`repro.vm.jit.codegen`:
``concat``, ``reshape``, ``scatter``, ``stream_seq``, a ``for`` with a
per-lane trip count, any non-ufunc ``scan``, batched ``pow``/``shl``/
``log``/float→int, or a divergent ``if`` whose arms run on their own
lanes.  Each row below is a small source-text program that does;
between them they reach all 24 rows of the dispatch table in uniform
and batched position and in an arm run on its own lanes.

A row runs on the jit and on the reference interpreter and must agree
— the same values (integers bit-exact, floats at the differential
tolerance) or the same error class — with exactly the stated number
of launches falling back.  The sha256 of the row's generated sources
is pinned in ``golden/digests.json``, beside one digest per benchmark
for all 16, so any change to the text the lowering emits fails the row
that transpiles it.  After an intentional change::

    GOLDEN_UPDATE=1 PYTHONPATH=src \\
        python -m pytest tests/vm/test_codegen_corpus.py \\
        tests/vm/test_golden_pycode.py

re-pins the digests (and the two golden files); a refactor that is
meant to leave the generated text alone must pass without it.
"""

import contextlib
import hashlib
import json
import os
import pathlib
import re
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple, get_args

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import ast as A
from repro.core.prim import BOOL, F32, I32
from repro.core.traversal import name_source
from repro.core.values import ScalarValue, array_value, values_equal
from repro.frontend import parse
from repro.interp import InterpError, run_program
from repro.obs import metering
from repro.pipeline import CompilerOptions, compile_program
from repro.runtime import ExecutionPolicy
from repro.vm.jit.codegen import transpile_kernel
from repro.vm.jit.engine import JitRunner

from .test_golden_pycode import _generated_sources, render_sources

DIGESTS = pathlib.Path(__file__).parent / "golden" / "digests.json"

#: The module that owns the dispatch table, found through the public
#: entry point: this file runs unchanged against any layout of the
#: lowering, in particular the one its digests were generated by.
_LOWERING = sys.modules[transpile_kernel.__module__]

#: The default pipeline; one that leaves a whole nest (inner reduces,
#: scans and loops included) in a single kernel; one that leaves
#: folds of one width one kernel each (fused, they are one fold of a
#: tuple, which has no ufunc); one that keeps a vector-valued fold a
#: fold (the default turns it into a map of scalar folds over the
#: transposed input); and one without the simplifier, where the
#: binding an inlined call leaves behind (``let r = <atom>``) and a
#: lane-invariant ``iota`` or scalar reach the lowering where they
#: were written.
PIPELINES = {
    "default": CompilerOptions(),
    "nest-intact": CompilerOptions(distribute=False, interchange=False),
    "unfused": CompilerOptions(disabled_passes=("fusion",)),
    "vector-folds": CompilerOptions(reduce_map_interchange=False),
    "unsimplified": CompilerOptions(
        disabled_passes=(
            "simplify", "post-fusion-simplify", "post-flatten-simplify"
        )
    ),
}

JIT = ExecutionPolicy(executor="jit")


def _i32(a):
    return array_value(np.asarray(a, dtype=np.int32), I32)


def _f32(a):
    return array_value(np.asarray(a, dtype=np.float32), F32)


def _bool(a):
    return array_value(np.asarray(a, dtype=np.bool_), BOOL)


@dataclass(frozen=True)
class Row:
    """One corpus program: source text, a factory of fresh arguments
    (in-place updates consume them), the pipeline it compiles under,
    how many launches leave the jit, the error both executors raise
    (None: both return values), and text its generated sources must
    contain — what the row is in the corpus to reach, which a change
    upstream of the lowering could otherwise take away unnoticed — or
    must not."""

    name: str
    src: str
    args: Callable[[], list]
    pipeline: str = "default"
    fallbacks: int = 0
    raises: Optional[type] = None
    emits: Tuple[str, ...] = ()
    omits: Tuple[str, ...] = ()


ROWS = []


def row(name, src, args, **kw):
    ROWS.append(Row(name, src, args, **kw))


#: What a loop's sequential step emits, an accumulating loop, a
#: summing one (its lanes' lockstep), a masked one (its live lanes'
#: count), and a divergent ``if`` whose arms run on their own lanes
#: (the results written back by the mask of the lanes that do not take
#: the true arm).
_STEP, _AT, _SUM, _LIVE, _COMPACT = (
    "for _i", ".at(", "for _k", "= R.arange(_nl", "[_nm"
)


# -- elementwise operators ---------------------------------------------------

row(
    "float-ops",
    r"""
fun main (xs: [n]f32) (ys: [n]f32): ([n]f32, [n]f32, [n]bool) =
  map (\(x: f32) (y: f32) ->
    let a = log x + sqrt y + exp (0.0 - x)
    let b = sin x * cos y - tan x / atan y
    let c = floor x + ceil y + abs (0.0 - x) + sgn (x - y) + (-y)
    let d = min x y + max x y + x ^ y
    in {a + b, c + d, !(x != y)}) xs ys
""",
    lambda: [_f32([1, 2.5, 3]), _f32([2, 0.5, 3])],
)

row(
    "int-ops",
    r"""
fun main (xs: [n]i32) (ys: [n]i32): ([n]i32, [n]i32, [n]bool) =
  map (\(x: i32) (y: i32) ->
    let a = x / y + x % y + x ^ y
    let b = shl x y + shr x y + xor x y
    let c = min x y + max x y
    let d = abs (-x) + sgn (x - y)
    in {a + b, c + d,
        (x == y || x < y) && !(x >= y) || (x <= y && x > y)}) xs ys
""",
    lambda: [_i32([1, 25, -3]), _i32([2, 1, 3])],
)

row(
    "conversions",
    r"""
fun main (xs: [n]f32) (ks: [n]i32): ([n]i32, [n]f32, [n]i64, [n]f64) =
  map (\(x: f32) (k: i32) -> {i32 x, f32 k, i64 k, f64 x}) xs ks
""",
    lambda: [_f32([1.5, -2.5, 3]), _i32([2, 1, 3])],
)

#: Scalar operators on uniform operands (the loop counter, kernel
#: parameters) inside a batch, and in the arm of a divergent ``if``,
#: which holds a uniform trap site and so runs on its own lanes: every
#: lane that reaches the operator takes the arm.
row(
    "uniform-ops",
    r"""
fun main (xs: [n]f32) (k: i32): [n]f32 =
  map (\(x: f32) ->
    loop (s = x) for i < 4 do
      let u = f32 ((i + k) / k) + sqrt (f32 i)
      in if i < 2
         then s + u
         else if s > 2.0 then s - f32 (i % k) else s * 2.0) xs
""",
    lambda: [_f32([0.5, 1.5, 4.0]), ScalarValue(3, I32)],
    emits=(_COMPACT,),
)

#: Every operator with a trap site: (name, element type, result type,
#: expression, the guard that keeps a lane off the trap, a value for
#: the guarded-off lanes, xs, ys, what the interpreter makes of the
#: trapping lane).  Each gives two rows over the same input: the bare
#: operator (the launch falls back once; the interpreter's value or
#: error comes back) and the operator under its guard (a divergent
#: ``if`` whose arm runs on the lanes that take it, which the trapping
#: lane does not: no fallback).
INF = float("inf")
TRAPS = [
    ("div", "f32", "f32", "x / y", "y != 0.0", "0.0",
     [1, 2, 3], [2, 0, 4], ZeroDivisionError),
    ("idiv", "i32", "i32", "x / y", "y != 0", "0",
     [1, 2, 3], [2, 0, 4], ZeroDivisionError),
    ("imod", "i32", "i32", "x % y", "y != 0", "0",
     [1, 2, 3], [2, 0, 4], ZeroDivisionError),
    ("pow-float", "f32", "f32", "x ^ y", "x >= 0.0", "0.0",
     [1, -2, 3], [2, 0.5, 3], ValueError),
    ("pow-int", "i32", "i32", "x ^ y", "y >= 0", "0",
     [1, 2, 3], [2, -1, 3], ValueError),
    ("shl", "i32", "i32", "shl x y", "y < 32", "0",
     [1, 2, 3], [2, 40, 3], None),
    ("shr", "i32", "i32", "shr x y", "y >= 0", "0",
     [1, 2, 3], [2, -1, 3], ValueError),
    ("log", "f32", "f32", "log x + y", "x > 0.0", "0.0",
     [1, 0, 3], [2, 2, 2], ValueError),
    ("sqrt", "f32", "f32", "sqrt x + y", "x >= 0.0", "0.0",
     [1, -4, 9], [2, 2, 2], ValueError),
    ("exp", "f32", "f32", "exp x + y", "x < 50.0", "0.0",
     [1, 1000, 3], [2, 2, 2], OverflowError),
    ("float-to-int", "f32", "i32", "i32 (x + y)", "x < 1.0e30", "0",
     [1, INF, 3], [2, 2, 2], OverflowError),
]


def _two_vectors(t, xs, ys):
    mk = _f32 if t == "f32" else _i32
    return lambda: [mk(xs), mk(ys)]


for _op, _t, _r, _e, _ok, _z, _xs, _ys, _err in TRAPS:
    _args = _two_vectors(_t, _xs, _ys)
    _head = (
        f"fun main (xs: [n]{_t}) (ys: [n]{_t}): [n]{_r} =\n"
        f"  map (\\(x: {_t}) (y: {_t}) -> "
    )
    row(f"trap-{_op}", f"{_head}{_e}) xs ys\n", _args,
        fallbacks=1, raises=_err)
    row(f"spec-{_op}",
        f"{_head}if {_ok} then {_e} else {_z}) xs ys\n", _args,
        emits=(_COMPACT,))

#: A lane that takes the arm of a divergent ``if`` and traps in it is a
#: trap, as in the interpreter, which evaluates only the arm a lane
#: takes: (name, parameters, result type, lambda parameters, the
#: ``if``, its operands with a taking lane trapping, the same with only
#: a lane that does not take the arm trapping, the interpreter's
#: error).  Each gives a ``taken-`` row (one launch falls back, the
#: interpreter raises) and an ``untaken-`` row (no fallback, its
#: values).
NAN = float("nan")
TAKEN = [
    ("sqrt", "(xs: [n]f32) (ys: [n]f32)", "f32", "(x: f32) (y: f32)",
     "if x > 0.0 then sqrt y else 0.0", "xs ys",
     lambda: [_f32([1, 2, -1]), _f32([4, -4, 9])],
     lambda: [_f32([1, -2, 1]), _f32([4, -4, 9])], ValueError),
    ("pow", "(xs: [n]f32) (ys: [n]f32)", "f32", "(x: f32) (y: f32)",
     "if y > 0.0 then x ^ 0.5f32 else 0.0", "xs ys",
     lambda: [_f32([4, -4, 9]), _f32([1, 1, -1])],
     lambda: [_f32([4, -4, 9]), _f32([1, -1, 1])], ValueError),
    ("float-to-int", "(xs: [n]f32) (ys: [n]f32)", "i32", "(x: f32) (y: f32)",
     "if y > 0.0 then i32 x else 0", "xs ys",
     lambda: [_f32([1.5, NAN, 3]), _f32([1, 1, -1])],
     lambda: [_f32([1.5, NAN, 3]), _f32([1, -1, 1])], ValueError),
    ("gather", "(is: [n]i32) (cs: [n]i32) (ys: [m]i32)", "i32",
     "(i: i32) (c: i32)", "if c > 0 then ys[i] else 0 - 1", "is cs",
     lambda: [_i32([0, 5, 1]), _i32([1, 1, -1]), _i32([10, 20])],
     lambda: [_i32([0, 5, 1]), _i32([1, -1, 1]), _i32([10, 20])],
     InterpError),
]

for _op, _params, _r, _lparams, _if, _arrs, _taken, _untaken, _err in TAKEN:
    _src = (
        f"fun main {_params}: [n]{_r} =\n"
        f"  map (\\{_lparams} -> {_if}) {_arrs}\n"
    )
    row(f"taken-{_op}", _src, _taken, fallbacks=1, raises=_err,
        emits=(_COMPACT,))
    row(f"untaken-{_op}", _src, _untaken, emits=(_COMPACT,))


# -- control flow ------------------------------------------------------------

#: ``if`` on a uniform condition inside a batch, a divergent ``if``
#: whose arms join a constant with a lane value and a row with a
#: uniform array (the rank > 0 merge), nested divergence.
row(
    "if-forms",
    r"""
fun main (xss: [n][m]i32) (zs: [m]i32) (k: i32): ([n][m]i32, [n]i32) =
  map (\(row: [m]i32) ->
    let x = row[0]
    let r = if x > 0 then row else zs
    let a = if k > 2 then x else 0 - x
    let b = if x > 1 then (if x > 2 then a else 7) else 0
    in {r, b}) xss
""",
    lambda: [_i32([[1, 2], [-3, 4], [5, 6]]), _i32([9, 9]),
             ScalarValue(3, I32)],
)

#: A ``for`` with a uniform bound inside a batch, its state widened
#: from a constant to a lane value by the kind fixpoint, carrying an
#: array that is updated in place.
row(
    "for-plain",
    r"""
fun main (xs: [n]i32) (k: i32): ([n]i32, [n][3]i32) =
  map (\(x: i32) ->
    loop (s = 0, acc = replicate 3 0) for i < k do
      let acc[i % 3] = acc[i % 3] + s
      in {s + x + i, acc}) xs
""",
    lambda: [_i32([1, 2, 3]), ScalarValue(4, I32)],
)

#: A ``for`` with a per-lane trip count: masked, run to the longest.
row(
    "for-masked",
    r"""
fun main (ks: [n]i32) (ys: [m]i32): [n]i32 =
  map (\(k: i32) -> loop (s = 0) for i < k do s + ys[i] / (k - i)) ks
""",
    lambda: [_i32([3, 0, 5, 2]), _i32([10, 20, 30, 40, 50])],
    emits=('_trip',),
)

#: ``while`` on a per-lane condition (Collatz steps), and on a uniform
#: one inside the same batch.
row(
    "while-forms",
    r"""
fun main (ks: [n]i32) (lim: i32): ([n]i32, [n]i32) =
  map (\(k: i32) ->
    let (c, v, steps) =
      loop (c = k > 1, v = k, steps = 0) while c do
        let v2 = if v % 2 == 0 then v / 2 else 3 * v + 1
        in {v2 > 1, v2, steps + 1}
    let (d, j, t) =
      loop (d = lim > 0, j = 0, t = k) while d do
        {j + 1 < lim, j + 1, t + j}
    in {steps, t}) ks
""",
    lambda: [_i32([3, 1, 6, 2]), ScalarValue(3, I32)],
)

#: A divergent ``if`` tests its mask with one count: every lane true,
#: none, some — with arms that cannot trap, run on every lane, and with
#: arms run on their own lanes.  A batch of no lanes never reaches the
#: test: a map of width 0 is the interpreter's (one launch falls back).
_IF_MASK = r"""
fun main (xs: [n]i32): [n]i32 =
  map (\(x: i32) -> if x > 0 then x * 2 else 0 - x) xs
"""
for _case, _xs in (
    ("all", [1, 2, 3]), ("none", [0, -1, -2]), ("mixed", [4, -5, 0, 6]),
    ("empty", []),
):
    row(
        f"if-mask-{_case}", _IF_MASK, lambda xs=_xs: [_i32(xs)],
        fallbacks=int(not _xs),
        emits=('np.count_nonzero(',), omits=('.all()', '.any()', _COMPACT),
    )
    if _xs:
        row(
            f"if-compact-{_case}", _IF_MASK.replace("x * 2", "12 / x"),
            lambda xs=_xs: [_i32(xs)],
            emits=('np.count_nonzero(', _COMPACT), omits=('.all()',),
        )

#: A map in the false arm, run on its lanes: the batch it extends is
#: the count of the lanes that do not take the true arm.
row(
    "if-compact-false-map",
    r"""
fun main (xs: [n]i32) (ys: [m]i32): [n][m]i32 =
  map (\(x: i32) ->
    if x > 0 then replicate m 0 else map (\(y: i32) -> y / x) ys) xs
""",
    lambda: [_i32([4, -1, -2, -3, -5]), _i32([1, 2, 3])],
    pipeline="nest-intact",
    emits=(_COMPACT,),
)

#: Arms that cannot trap but for a uniform index (the loop counter's),
#: whose check reads the same on every lane: they run on every lane.
row(
    "if-uniform-index",
    r"""
fun main (xs: [n]i32) (ys: [k]i32): [n]i32 =
  map (\(x: i32) ->
    loop (acc = x) for s < k do
      if acc > 3 then xor acc ys[s] else acc) xs
""",
    lambda: [_i32([1, 5, 9, 2]), _i32([6, 3, 12])],
    emits=("np.where(",),
    omits=(_COMPACT,),
)

#: An index checked against the array the true arm reads it in, after
#: an access that ranged it over every lane: the arm ranges it again,
#: over its own lanes, so the lane the condition guards off hands
#: nothing over.
row(
    "if-guarded-index",
    r"""
fun main (is: [n]i32) (xs: [k]i32) (ys: [m]i32): [n]i32 =
  map (\(i: i32) -> let a = xs[i] in if i < m then a + ys[i] else a) is
""",
    lambda: [_i32([0, 5, 1]), _i32([1, 2, 3, 4, 5, 6]), _i32([10, 20])],
    emits=(_COMPACT,),
)

#: An ``if`` run on its own lanes inside an arm run on its own lanes;
#: every division by zero is on a lane that does not take its arm.
row(
    "if-compact-nested",
    r"""
fun main (xs: [n]i32) (ys: [n]i32): [n]i32 =
  map (\(x: i32) (y: i32) ->
    if x > 0 then (if y > 0 then x / y else y / x) else 0 - x) xs ys
""",
    lambda: [_i32([2, -1, 3, 4]), _i32([1, 0, -3, 0])],
    emits=(_COMPACT,),
)

#: A masked ``while`` counts its running lanes once per iteration, to
#: stop and to take the fast path: lanes that never start, lanes that
#: stop at different trips.
row(
    "while-mask-counted",
    r"""
fun main (ks: [n]i32): [n]i32 =
  map (\(k: i32) ->
    let (c, s) = loop (c = k > 0, s = 0) while c do {s + 1 < k, s + 1}
    in s) ks
""",
    lambda: [_i32([0, 3, 1, 5, -2, 3])],
    emits=('np.count_nonzero(',), omits=('.all()', '.any()'),
)

# -- masked loops on their live lanes ------------------------------------------
#
# A ``for`` with a per-lane bound or a ``while`` on a per-lane condition
# runs only its live lanes (``control.gen_live``): a lane that stops is
# written back once and compacted away, and the body is emitted once, as
# written — never speculatively, so a running lane that traps is a trap.

#: A running lane that traps in an iteration where another lane has
#: stopped: the interpreter raises, and so must the jit (run
#: speculatively, that iteration would substitute the divisor and keep
#: the running lane's result: ``[-10, 10]``).
for _form, _loop in [
    ("for", "loop (s = 0) for i < k do s + 10 / (k - i - 2)"),
    ("while", """let (s, i, go) =
      loop (s = 0, i = 0, go = 0 < k) while go do
        {s + 10 / (k - i - 2), i + 1, i + 1 < k}
    in s"""),
]:
    row(
        f"trap-running-lane-{_form}",
        r"""
fun main (ks: [n]i32): [n]i32 =
  map (\(k: i32) ->
    %s) ks
""" % _loop,
        lambda: [_i32([1, 3])],
        fallbacks=1,
        raises=ZeroDivisionError,
        emits=(_LIVE,),
    )

#: What a compacted body reads: a per-lane row it only indexes (through
#: its lane vector, not copied), a lane index whose range is taken again
#: over the live lanes (the lane that never starts holds one out of
#: range: it reads nothing, so nothing is handed over; the ``if`` keeps
#: the read from being hoisted out of the loop), a loop-carried array
#: updated in place, and a map nested in the body.
row(
    "live-reads",
    r"""
fun main (xss: [n][m]i32) (ks: [n]i32) (js: [n]i32) (ys: [p]i32)
    : ([n]i32, [n][3]i32, [n][m]i32) =
  map (\(row: [m]i32) (k: i32) (j: i32) ->
    loop (s = 0, acc = replicate 3 0, zs = replicate m 0) for i < k do
      let acc[i % 3] = acc[i % 3] + row[i % m]
      in {s + row[i % m] * (if i >= 0 then ys[j] else 0), acc,
          map (\(z: i32) -> z + i) zs}) xss ks js
""",
    lambda: [_i32([[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 1, 1]]),
             _i32([4, 0, 2, 5]), _i32([1, 99, 0, 2]), _i32([10, 20, 30])],
    emits=(_LIVE, "[(_ix"),
)

#: A masked loop nested in another: the inner one runs on the outer's
#: live lanes, and compacts again.
row(
    "live-nested",
    r"""
fun main (ks: [n]i32): [n]i32 =
  map (\(k: i32) ->
    loop (s = 0) for i < k do
      let (c, t) = loop (c = i < k - 1, t = s) while c do
                     {t + i < 3 * k, t + i + 1}
      in s + t % 5) ks
""",
    lambda: [_i32([0, 3, 1, 5, 2])],
    emits=(_LIVE,),
)

#: In the arm of a divergent ``if`` the loop runs on the lanes that take
#: the arm: the others' zero divisor is never computed.
row(
    "live-speculative",
    r"""
fun main (xs: [n]i32): [n]i32 =
  map (\(x: i32) ->
    if x > 0 then loop (s = 0) for i < x do s + 100 / (x - i) else 0) xs
""",
    lambda: [_i32([3, -1, 0, 2])],
    emits=(_LIVE, _COMPACT),
)


# -- array primitives ----------------------------------------------------------

#: Every shape of checked index: uniform array and index (inside a
#: sequential kernel), lane-vector gathers from a uniform and from a
#: batched array, a uniform index into a batched array, partial
#: indexing of a matrix — and the same in the arm of a divergent
#: ``if``, run on the lanes that take it: the out-of-range index of a
#: lane that does not is never checked.
row(
    "index-forms",
    r"""
fun main (xss: [n][m]i32) (is: [n]i32) (ys: [m]i32) (yss: [m][m]i32)
    : ([n]i32, [n]i32, [n]i32) =
  map (\(row: [m]i32) (i: i32) ->
    let a = row[0] + row[i] + ys[i]
    let r = yss[i]
    let b = r[1] + yss[i, 0] + yss[0, i]
    let c = if i >= 1 then ys[i - 1] + row[i - 1] + row[1] else 0 - 1
    in {a, b, c}) xss is
""",
    lambda: [_i32([[1, 2], [3, 4], [5, 6]]), _i32([0, 1, 0]),
             _i32([10, 20]), _i32([[7, 8], [9, 11]])],
    emits=(_COMPACT,),
)

row(
    "trap-gather",
    r"""
fun main (is: [n]i32) (ys: [m]i32): [n]i32 =
  map (\(i: i32) -> ys[i]) is
""",
    lambda: [_i32([0, 5, 1]), _i32([10, 20])],
    fallbacks=1,
    raises=InterpError,
)

row(
    "spec-gather",
    r"""
fun main (is: [n]i32) (ys: [m]i32): [n]i32 =
  map (\(i: i32) -> if i < m then ys[i] else 0 - 1) is
""",
    lambda: [_i32([0, 5, 1]), _i32([10, 20])],
    emits=(_COMPACT,),
)

#: In-place updates: a lane-vector scatter into a per-lane array the
#: kernel allocated (owned: mutated) and into a uniform one (one copy
#: per lane), a uniform position in a batched array, and the same
#: under a divergent ``if``.
row(
    "update-forms",
    r"""
fun main (is: [n]i32) (zs: *[m]i32): ([n][m]i32, [n][m]i32, [n][m]i32) =
  map (\(i: i32) ->
    let fresh = replicate m 0
    let a = fresh with [i] <- 1
    let a2 = a with [0] <- a[0] + 5
    let b = copy zs
    let b2 = b with [i] <- i
    let c = if i >= 1
            then ((copy a2) with [i - 1] <- 9) with [1] <- 8
            else copy b2
    in {a2, b2, c}) is
""",
    lambda: [_i32([0, 1, 2]), _i32([7, 7, 7])],
    emits=(_COMPACT,),
)

#: A lane scalar read out of a per-lane array that is then updated in
#: place keeps the value it read (it is a copy, not a view).
row(
    "index-then-update",
    r"""
fun main (xss: [n][m]i32): [n]i32 =
  map (\(row: [m]i32) ->
    let r2 = copy row
    let x = r2[0]
    let r3 = r2 with [0] <- 100
    in x + r3[1]) xss
""",
    lambda: [_i32([[0, 1], [2, 3], [4, 5]])],
    pipeline="nest-intact",
    emits=(")].copy()",),
)

row(
    "trap-scatter",
    r"""
fun main (is: [n]i32): [n][2]i32 =
  map (\(i: i32) -> (replicate 2 0) with [i] <- 1) is
""",
    lambda: [_i32([0, 5, 1])],
    fallbacks=1,
    raises=InterpError,
)

row(
    "spec-scatter",
    r"""
fun main (is: [n]i32): [n][2]i32 =
  map (\(i: i32) ->
    if i < 2 then (replicate 2 0) with [i] <- 1 else replicate 2 7) is
""",
    lambda: [_i32([0, 5, 1])],
    emits=(_COMPACT,),
)

#: An arm run on its own lanes that updates a uniform array the kernel
#: owns, in the true arm, the false arm, and an arm nested in the true
#: one: the other arms still read the array as it was before.
for _name, _if in (
    ("if-update-shared", "if x > 0 then {upd} else r[0]"),
    ("if-update-shared-false", "if x > 0 then r[0] else {upd}"),
    ("if-update-shared-nested",
     "if x > 0 then (if x > 2 then {upd} else r[0] + x) else r[0]"),
):
    row(
        _name,
        "fun main (xs: [n]i32): [n]i32 =\n"
        "  map (\\(x: i32) -> let r = replicate 3 0 in "
        + _if.format(upd="(let s = r with [0] <- 7 in s[0])")
        + ") xs\n",
        lambda: [_i32([1, -1, 4, -3, 2])],
        emits=(_COMPACT,),
    )

#: An ``if`` on a uniform condition whose taken arm yields a uniform
#: array and the other a per-lane one, updated in place after the
#: join: the uniform arm is broadcast to the batch, and the joined
#: local owns a copy of it, never the read-only broadcast view.
for _pipeline in ("default", "nest-intact"):
    row(
        f"if-uniform-arm-update-{_pipeline}",
        "fun main (k: i32) (xs: [n]i32): [n][3]i32 =\n"
        "  map (\\(x: i32) -> let r = if k > 0 then replicate 3 k "
        "else replicate 3 x in r with [0] <- x) xs\n",
        lambda: [ScalarValue(2, I32), _i32([1, 5, 7])],
        pipeline=_pipeline,
        emits=("np.broadcast_to",),
    )

#: ``iota``, ``replicate`` (of a constant, a lane scalar, a uniform
#: and a per-lane array), ``copy``, ``rearrange``, ``reshape`` and
#: ``concat`` (of per-lane and uniform operands) inside a batch.
row(
    "array-builders-batched",
    r"""
fun main (xss: [n][4]i32) (zs: [2]i32)
    : ([n][3]i32, [n][2]i32, [n][2][2]i32, [n][2][4]i32, [n][2][2]i32,
       [n][6]i32, [n][4]i32) =
  map (\(row: [4]i32) ->
    let x = row[0]
    let a = map (\(i: i32) -> i + x) (iota 3)
    let b = replicate 2 x
    let c = replicate 2 zs
    let d = replicate 2 row
    let sq = reshape (2, 2) row
    let e = transpose sq
    let f = concat row zs
    let g = copy row
    in {a, b, c, d, e, f, g with [0] <- 0}) xss
""",
    lambda: [_i32([[1, 2, 3, 4], [5, 6, 7, 8]]), _i32([9, 10])],
    pipeline="nest-intact",
    emits=('np.concatenate([', 'reshape changes element count', '[None], '),
)

#: The same builders as host-level launches (one builtin kernel each)
#: and inside a sequential kernel, where every value is uniform.
row(
    "array-builders-uniform",
    r"""
fun main (xs: [n]i32) (ys: [m]i32) (k: i32): ([p]i32, [k]i32, [n]i32,
                                              [2]i32, [n]i32) =
  let a = concat xs ys
  let b = replicate k 7
  let c = copy xs
  let (t, zs) =
    stream_seq (\(q: i32) (acc: *[2]i32) (chunk: [q]i32) ->
        let sq = reshape (1, q) chunk
        let r0 = sq[0]
        let tr = transpose sq
        let back = reshape (q) tr
        let two = concat back (iota q)
        let rep = replicate q acc[0]
        let upd = rep with [0] <- two[q]
        let acc2 = acc with [1] <- acc[1] + upd[0] + r0[q - 1]
        in {acc2, copy back}) (replicate 2 0) xs
  in {a, b, c, t, zs}
""",
    lambda: [_i32([1, 2, 3, 4, 5]), _i32([6, 7]), ScalarValue(3, I32)],
    emits=('axis=0)', 'reshape changes element count', 'uniform update out of bounds', 'if R.in_place:', 'R.chunks('),
)

row(
    "scatter-forms",
    r"""
fun main (dest: *[k]i32) (is: [n]i32) (vs: [n]i32): (*[k]i32, i32) =
  let out = scatter dest is vs
  let t =
    stream_seq (\(q: i32) (acc: i32) (chunk: [q]i32) ->
        let d = scatter (replicate q 0) (iota q) chunk
        in acc + d[q - 1]) 0 vs
  in {out, t}
""",
    lambda: [_i32([0, 0, 0, 0]), _i32([1, 7, -1, 3]),
             _i32([10, 20, 30, 40])],
    emits=('scatter: index/value length mismatch', 'if R.in_place:'),
)


# -- SOACs and streams ---------------------------------------------------------

#: A two-deep map nest over a per-lane row (reshaped) and over a
#: uniform array (repeated per lane, the lane values the inner lambda
#: captures repeated), with results that are a constant, a uniform
#: array and a lane value.
row(
    "map-nest",
    r"""
fun main (xss: [n][m]i32) (js: [k]i32) (zs: [k]i32)
    : ([n][m]i32, [n][k]i32, [n]i32, [n][k]i32) =
  map (\(row: [m]i32) ->
    let x = row[0]
    let a = map (\(v: i32) -> v * x) row
    let b = map (\(j: i32) -> j + x) js
    in {a, b, 7, zs}) xss
""",
    lambda: [_i32([[1, 2], [3, 4], [5, 6]]), _i32([10, 20, 30]),
             _i32([7, 8, 9])],
    emits=('[None], ', 'np.repeat('),
)

#: Operators NumPy has a ufunc for, at kernel level and segmented (one
#: reduce per lane).
row(
    "reduce-ufunc",
    r"""
fun main (xs: [n]i32) (xss: [k][m]i32): (i32, [k]i32) =
  let a = reduce (\(a: i32) (b: i32) -> a + b) 0 xs
  let b = map (\(row: [m]i32) ->
            reduce (\(a: i32) (b: i32) -> max a b) 0 row) xss
  in {a, b}
""",
    lambda: [_i32([3, 1, 4, 1, 5]), _i32([[1, 2], [3, 4], [5, 6]])],
    emits=('np.add.reduce(', 'np.maximum.reduce('),
)

#: Every operator with a ufunc (``+`` with its operands swapped).
row(
    "ufunc-folds",
    r"""
fun main (xs: [n]i32) (bs: [n]bool): (i32, i32, i32, bool, bool, [n]i32) =
  let a = reduce (\(a: i32) (b: i32) -> b + a) 0 xs
  let b = reduce (\(a: i32) (b: i32) -> min a b) 2147483647 xs
  let c = reduce (\(a: i32) (b: i32) -> xor a b) 0 xs
  let d = reduce (\(a: bool) (b: bool) -> a && b) true bs
  let e = reduce (\(a: bool) (b: bool) -> a || b) false bs
  let f = scan (\(a: i32) (b: i32) -> a * b) 1 xs
  in {a, b, c, d, e, f}
""",
    lambda: [_i32([3, 1, 4, 1, 5]), _bool([True, False, True, True, True])],
    pipeline="unfused",
)

#: The same operators lifted through a map to vectors (operands
#: swapped in one), and a vector operator without a ufunc: a tree over
#: rows.  The widths differ so that fusion leaves three kernels.
row(
    "vector-folds",
    r"""
fun main (xss: [k][m]i32) (yss: [p][m]i32) (zss: [q][m]i32)
    : ([m]i32, [p][m]i32, [m]i32) =
  let a = reduce (\(a: [m]i32) (b: [m]i32) ->
            map (\(x: i32) (y: i32) -> x + y) b a) (replicate m 0) xss
  let b = scan (\(a: [m]i32) (b: [m]i32) ->
            map (\(x: i32) (y: i32) -> max x y) a b) (replicate m 0) yss
  let c = reduce (\(a: [m]i32) (b: [m]i32) ->
            map (\(x: i32) (y: i32) -> x + y + x * y) a b)
          (replicate m 0) zss
  in {a, b, c}
""",
    lambda: [_i32([[1, 2], [3, 4], [5, 6]]), _i32([[1, 9], [3, 4]]),
             _i32([[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]])],
    pipeline="vector-folds",
    emits=('np.add.reduce(', 'np.maximum.accumulate(', 'while _n'),
)

#: An associative operator without a ufunc and without a trap site
#: (the index of the largest magnitude, keep-left) is an
#: order-preserving pairwise tree.
row(
    "reduce-tree",
    r"""
fun main (vs: [n]i32): (i32, i32) =
  reduce (\(av: i32) (ai: i32) (v: i32) (i: i32) ->
            if f32 (abs v) > f32 (abs av) then {v, i} else {av, ai})
         (0, -1) vs (iota n)
""",
    lambda: [_i32([3, -5, 4, 5, 1])],
    emits=('while _n',),
)

#: A selecting operator — one argument returned whole, chosen by one
#: key — is one ``np.argmin``/``np.argmax`` (``folds.gen_select``): in
#: each of the four comparison forms, written either way round, over
#: i32 and f32 keys with ties at both ends (and ``-0.0`` tying ``0.0``),
#: and over no rows at all.
_SELECT = r"""
fun main (vs: [n]%(t)s) (is: [n]i32): (%(t)s, i32) =
  reduce (\(av: %(t)s) (ai: i32) (v: %(t)s) (i: i32) ->
            if %(test)s then {%(then)s} else {%(else)s})
         (%(neutral)s, -1) vs is
"""
_SELECT_KEYS = {
    "i32": [3, -2, 7, -2, 7, 1, -2, 7],
    "f32": [0.0, -0.0, 2.5, -1.5, -0.0, 2.5, -1.5, 0.0],
}
for _name, _test, _keep_b, _find in [
    ("lt", "v < av", True, "np.argmin("),
    ("le", "v <= av", True, "np.argmin("),
    ("gt", "v > av", True, "np.argmax("),
    ("ge", "av <= v", True, "np.argmax("),
    ("not-lt", "av < v", False, "np.argmin("),
    ("not-ge", "v >= av", False, "np.argmin("),
]:
    for _t, _keys in _SELECT_KEYS.items():
        _big = "1.0e30f32" if _t == "f32" else "2147483647"
        _neutral = _big if _find == "np.argmin(" else (
            "-" + _big if _t == "f32" else "-2147483648")
        _then, _else = ("v, i", "av, ai") if _keep_b else ("av, ai", "v, i")
        _mk = _f32 if _t == "f32" else _i32
        row(
            f"select-{_name}-{_t}",
            _SELECT % {"t": _t, "test": _test, "then": _then,
                       "else": _else, "neutral": _neutral},
            lambda mk=_mk, keys=_keys: [mk(keys), _i32(range(len(keys)))],
            emits=(_find,),
            omits=("while _n",),
        )

row(
    "select-empty",
    _SELECT % {"t": "i32", "test": "v < av", "then": "v, i",
               "else": "av, ai", "neutral": "5"},
    lambda: [_i32([]), _i32([])],
    emits=("np.argmin(",),
)

#: A NaN key orders nothing, and the left fold keeps stepping past it:
#: ``(0.5, 3)`` and ``(0.0, 3)``, which a tree or an argmin would not
#: give (the tree answered ``(1e30, 0)`` and ``(1.0, 1)``).  The launch
#: is the interpreter's.
for _name, _keys in [("nan-first", [float("nan"), 5, 1, 0.5]),
                     ("nan-middle", [2, 1, float("nan"), 0, 7])]:
    row(
        f"select-{_name}",
        _SELECT % {"t": "f32", "test": "v < av", "then": "v, i",
                   "else": "av, ai", "neutral": "1.0e30f32"},
        lambda keys=_keys: [_f32(keys), _i32(range(len(keys)))],
        fallbacks=1,
        emits=("np.argmin(",),
    )

#: Inside a batch, one argmin per row — the segmented reduction — and
#: in the arm of a divergent ``if``.
row(
    "select-rows",
    r"""
fun main (xss: [n][m]f32) (is: [m]i32): ([n]f32, [n]i32, [n]i32) =
  map (\(row: [m]f32) ->
    let (v, k) = reduce (\(av: f32) (ai: i32) (v: f32) (i: i32) ->
                           if v <= av then {v, i} else {av, ai})
                        (1.0e30f32, -1) row is
    let s = if row[0] > 0.0f32
            then let (w, j) = reduce (\(aw: f32) (aj: i32) (w: f32) (j: i32) ->
                                        if w > aw then {w, j} else {aw, aj})
                                     (-1.0e30f32, -1) row is
                 in j
            else -1
    in {v, k, s}) xss
""",
    lambda: [_f32([[1.0, -2.0, 3.0, -2.0], [0.5, 0.5, 0.5, 0.5],
                   [-1.0, 4.0, 4.0, 0.0]]), _i32([0, 1, 2, 3])],
    pipeline="nest-intact",
    emits=("axis=1)",),
)

#: What keeps the left-to-right fold: an operator with a trap site
#: (``(a + b) % p``, associative on non-negative input, ``p`` a kernel
#: parameter) at kernel level, and any non-ufunc operator (``a + b + a
#: * b``) inside a batch.
row(
    "reduce-sequential",
    r"""
fun main (xs: [n]i32) (xss: [k][m]i32) (p: i32): (i32, [k]i32) =
  let a = reduce (\(a: i32) (b: i32) -> (a + b) % p) 0 xs
  let b = map (\(row: [m]i32) ->
            reduce (\(a: i32) (b: i32) -> a + b + a * b) 0 row) xss
  in {a, b}
""",
    lambda: [_i32([3, 1, 4, 1, 5]), _i32([[1, 2], [3, 4], [5, 6]]),
             ScalarValue(7, I32)],
    emits=("for _i",),
)

#: A divisor that is a non-zero constant has no trap site: the same
#: fold runs as a tree.
row(
    "reduce-constant-divisor",
    r"""
fun main (xs: [n]i32): i32 =
  reduce (\(a: i32) (b: i32) -> (a + b) % 7) 0 xs
""",
    lambda: [_i32([3, 1, 4, 1, 5])],
    emits=("while _n",),
    omits=("for _i", "zero divisor"),
)

#: A non-ufunc ``scan`` at kernel level (scalar, pair and
#: vector-valued accumulators) and inside a map, beside the ufunc
#: forms of both (one with a per-lane neutral element).
row(
    "scan-forms",
    r"""
fun main (xs: [n]i32) (xss: [n][m]i32)
    : ([n]i32, [n][m]i32, [n]i32, [n]i32, [n]i32, [n][m]i32, [n][m]i32,
       [n][m]i32) =
  let a = scan (\(a: i32) (b: i32) -> a + b) 0 xs
  let b = map (\(row: [m]i32) ->
            scan (\(a: i32) (b: i32) -> a + b) 0 row) xss
  let c = scan (\(a: i32) (b: i32) -> a + b + a * b) 0 xs
  let (d, e) = scan (\(a1: i32) (a2: i32) (b1: i32) (b2: i32) ->
                 {a1 + b1, max a2 b2}) (0, -2147483648) xs xs
  let f = scan (\(a: [m]i32) (b: [m]i32) ->
            map (\(x: i32) (y: i32) -> x + y + x * y) a b)
          (replicate m 0) xss
  let g = map (\(row: [m]i32) ->
            scan (\(a: i32) (b: i32) -> a + b + a * b) 0 row) xss
  let h = map (\(row: [m]i32) ->
            scan (\(a: i32) (b: i32) -> max a b) row[1] row) xss
  in {a, b, c, d, e, f, g, h}
""",
    lambda: [_i32([3, 1, 4, 1, 5]),
             _i32([[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]])],
    emits=('np.array(_col', 'np.stack(_col', ', axis=1)', '[:, None]'),
)

#: A sequential kernel: loops, branches and scalar operators where
#: every value is uniform.
row(
    "stream-seq",
    r"""
fun main (xs: [n]f32): (f32, [n]f32) =
  stream_seq (\(q: i32) (acc: f32) (chunk: [q]f32) ->
      let s = loop (s = acc) for i < q do
                let v = chunk[i]
                in if v > 0.0 then s + sqrt v else s - f32 i
      let (c, j) = loop (c = q > 0, j = 0) while c do {j + 1 < q, j + 1}
      in {s + f32 j, map (\(v: f32) -> v + s) chunk}) 0.0 xs
""",
    lambda: [_f32([1, 4, -9, 16, 25, -36, 49])],
)

row(
    "stream-map",
    r"""
fun main (xs: [n]i32): [n]i32 =
  stream_map (\(q: i32) (chunk: [q]i32) ->
      let first = chunk[0]
      let ys = scan (\(a: i32) (b: i32) -> a + b) 0 chunk
      in map (\(y: i32) -> y - first) ys) xs
""",
    lambda: [_i32(np.arange(1, 12))],
)

#: Fig. 4c: per-chunk counting with an in-place accumulator, the lane
#: accumulators tree-combined by a vector addition — and a per-chunk
#: array result reassembled in stream order.
row(
    "stream-red",
    r"""
fun main (membership: [n]i32): ([4]i32, [n]i32) =
  stream_red (\(xv: [4]i32) (yv: [4]i32) ->
                map (\(x: i32) (y: i32) -> x + y) xv yv)
             (\(q: i32) (acc: *[4]i32) (chunk: [q]i32) ->
                let counts = loop (acc2 = acc) for i < q do
                               let c = chunk[i]
                               in acc2 with [c] <- acc2[c] + 1
                in {counts, map (\(c: i32) -> c * 2) chunk})
             (replicate 4 0) membership
""",
    lambda: [_i32([0, 1, 2, 3, 1, 1, 2, 0, 3, 3, 3])],
    emits=('R.lane_groups(', 'while _n', _AT),
)

row(
    "filter",
    r"""
fun main (xs: [n]i32): (i32, [k]i32) =
  let (k, evens) = filter (\(x: i32) -> x % 2 == 0) xs
  in {k, evens}
""",
    lambda: [_i32([1, 2, 3, 4, 6])],
)

#: A uniform ``filter`` predicate and a uniform result of a map inside
#: a batch: both are broadcast to the batch they were computed in.
row(
    "filter-uniform-predicate",
    r"""
fun main (xs: [n]i32) (lim: i32): (i32, [j]i32) =
  let (j, every) = filter (\(x: i32) -> lim > 0) xs
  in {j, every}
""",
    lambda: [_i32([1, 2, 3]), ScalarValue(1, I32)],
)

row(
    "map-uniform-result",
    r"""
fun main (xss: [n][m]i32) (lim: i32): ([n][m]i32, [n][m]i32) =
  map (\(row: [m]i32) -> map (\(v: i32) -> {lim, v + 1}) row) xss
""",
    lambda: [_i32([[1, 2, 3], [4, 5, 6]]), ScalarValue(1, I32)],
    pipeline="nest-intact",
)

#: SOACs and a loop in the arm of a divergent ``if``: the whole nest
#: runs on the lanes that take the arm, so no lane divides by zero.
row(
    "soacs-speculative",
    r"""
fun main (xss: [n][m]i32): ([n]i32, [n][m]i32) =
  map (\(row: [m]i32) ->
    let x = row[0]
    in if x != 0
       then let s = reduce (\(a: i32) (b: i32) -> a + b + a * b) 0 row
            let sc = scan (\(a: i32) (b: i32) -> a + b) 0 row
            let t = loop (t = s) for i < m do t + sc[i] / x
            in {t, map (\(v: i32) -> v / x) sc}
       else {0, row}) xss
""",
    lambda: [_i32([[1, 2], [0, 4], [5, 6]])],
    pipeline="nest-intact",
)


# -- accumulating loops --------------------------------------------------------
#
# ``acc[I] (+)= v`` over a ``for``: the prefix runs as a map over the
# iteration space and the accumulate is one ordered ``ufunc.at``
# (``control.gen_accumulate``).  ``ACCUMULATE`` names these rows: a
# test below runs each under the sequential lowering too and requires
# identical bits.

_PER_LANE = r"""
fun main (iss: [n][m]i32) (vss: [n][m]%(t)s): [n][3]%(t)s =
  map (\(is: [m]i32) (vs: [m]%(t)s) ->
    loop (acc = replicate 3 %(zero)s) for i < m do
      let c = %(c)s
      in acc with [c] <- %(cell)s) iss vss
"""

_BINS = [[0, 1, 2, 1], [2, 2, 0, 1]]


def _per_lane(
    t, zero, cell, c="is[i]", vss=([1, -2, 3, 4], [5, 6, -7, 8]), bins=_BINS
):
    mk = {"i32": _i32, "f32": _f32, "bool": _bool}[t]
    if t == "f32":
        vss = np.asarray(vss) * 0.37
    return (
        _PER_LANE % {"t": t, "zero": zero, "cell": cell, "c": c},
        lambda: [_i32(bins), mk(vss)],
    )


#: One row per operator NumPy can accumulate with (``_ufunc_src``).
for _name, _t, _zero, _cell in [
    ("add-i32", "i32", "0", "acc[c] + vs[i]"),
    ("add-f32", "f32", "0.0", "acc[c] + vs[i]"),
    ("mul", "f32", "1.0", "acc[c] * vs[i]"),
    ("min", "f32", "1.0e30", "min acc[c] vs[i]"),
    ("max", "i32", "(0 - 100)", "max acc[c] vs[i]"),
    ("xor", "i32", "0", "xor acc[c] vs[i]"),
]:
    row(f"accumulate-{_name}", *_per_lane(_t, _zero, _cell), emits=(_AT,),
        omits=(_STEP,))
for _name, _zero, _cell in [
    ("and", "true", "acc[c] && vs[i]"),
    ("or", "false", "acc[c] || vs[i]"),
]:
    row(f"accumulate-{_name}",
        *_per_lane("bool", _zero, _cell, vss=([1, 0, 1, 1], [0, 1, 1, 0])),
        emits=(_AT,), omits=(_STEP,))

#: An operator without a ufunc that keeps the loop's order (``-``), one
#: with a trap site (``/``), and ``+`` with the cell on the right
#: (``ufunc.at`` puts it on the left) stay sequential.
for _name, _zero, _cell in [
    ("sub", "0", "acc[c] - vs[i]"),
    ("div", "1000", "acc[c] / vs[i]"),
    ("swapped", "0", "vs[i] + acc[c]"),
]:
    row(f"sequential-{_name}", *_per_lane("i32", _zero, _cell),
        emits=(_STEP,), omits=(_AT,))

#: Outside any batch (a sequential kernel): a float and an integer
#: accumulator, the operand a gather and a constant.
row(
    "accumulate-uniform",
    r"""
fun main (is: [n]i32) (vs: [n]f32): ([4]f32, [4]i32) =
  stream_seq (\(q: i32) (sums: *[4]f32) (cnts: *[4]i32)
               (ic: [q]i32) (vc: [q]f32) ->
      let s2 = loop (a = sums) for i < q do
                 let c = ic[i]
                 in a with [c] <- a[c] + vc[i]
      let c2 = loop (a = cnts) for i < q do
                 let c = ic[i]
                 in a with [c] <- a[c] + 1
      in {s2, c2}) (replicate 4 0.0, replicate 4 0) is vs
""",
    lambda: [_i32([0, 1, 2, 3, 1, 1, 2, 0, 3, 3, 3]),
             _f32(np.arange(11) * 0.37)],
    emits=(_AT,),
    omits=(_STEP,),
)

#: In the arm of a divergent ``if``: the prefix runs on the lanes that
#: take the arm (the others' zero divisor is never computed).
row(
    "accumulate-speculative",
    r"""
fun main (iss: [n][m]i32) (vss: [n][m]i32) (gs: [n]i32): [n][3]i32 =
  map (\(is: [m]i32) (vs: [m]i32) (g: i32) ->
    if g > 0
    then loop (acc = replicate 3 g) for i < m do
           let c = is[i] % 3
           in acc with [c] <- acc[c] + vs[i] / g
    else replicate 3 0) iss vss gs
""",
    lambda: [_i32(_BINS), _i32([[1, 2, 3, 4], [5, 6, 7, 8]]), _i32([2, 0])],
    emits=(_AT, _COMPACT),
)

#: K-means' sums: a nest ``for i < m … for dd < d`` over cell
#: ``[c, dd]``, the row index a gather, the column the inner counter.
row(
    "accumulate-nested",
    r"""
fun main (iss: [n][m]i32) (pss: [n][m][d]f32): [n][3][d]f32 =
  map (\(is: [m]i32) (ps: [m][d]f32) ->
    loop (acc = replicate 3 (replicate d 0.0)) for i < m do
      let c = is[i]
      in loop (a = acc) for dd < d do
           a with [c, dd] <- a[c, dd] + ps[i, dd]) iss pss
""",
    lambda: [_i32(_BINS), _f32(np.arange(16).reshape(2, 4, 2) * 0.37)],
    emits=(_AT,),
    omits=(_STEP,),
)

#: A cell that is the same on every iteration, and one that follows
#: the counter.
for _name, _c in [("constant", "1"), ("counter", "i % 3")]:
    row(f"accumulate-{_name}-cell",
        *_per_lane("i32", "0", "acc[c] + vs[i]", c=_c),
        emits=(_AT,), omits=(_STEP,))

#: A lane's index out of range: one check over the whole index vector
#: hands the launch to the interpreter, which raises.
row(
    "trap-accumulate",
    *_per_lane("i32", "0", "acc[c] + vs[i]", bins=[[0, 1, 2, 1], [2, 5, 0, 1]]),
    fallbacks=1,
    raises=InterpError,
    emits=(_AT,),
)

#: 8 lanes x 4200 iterations is more than one block of the iteration
#: space (``ACCUMULATE_LANES``): two, in loop order.
row(
    "accumulate-blocks",
    r"""
fun main (iss: [n][m]i32): [n][5]i32 =
  map (\(is: [m]i32) ->
    loop (acc = replicate 5 0) for i < m do
      let c = is[i] % 5
      in acc with [c] <- acc[c] + i) iss
""",
    lambda: [_i32(np.arange(8 * 4200).reshape(8, 4200))],
    emits=(_AT, "32768 // "),
)

#: Shapes of loop that are not an accumulation keep the sequential
#: step: a second merge parameter, a per-lane bound, a ``while``, a
#: prefix that reads the accumulator, a row update, and a prefix that
#: cannot run as a map body (``filter`` is kernel-level only).
for _name, _src in [
    ("two-merge", r"""
fun main (iss: [n][m]i32) (vss: [n][m]i32): ([n][3]i32, [n]i32) =
  map (\(is: [m]i32) (vs: [m]i32) ->
    loop (acc = replicate 3 0, s = 0) for i < m do
      let c = is[i]
      in {acc with [c] <- acc[c] + vs[i], s + 1}) iss vss
"""),
    ("batched-bound", r"""
fun main (iss: [n][m]i32) (vss: [n][m]i32): [n][3]i32 =
  map (\(is: [m]i32) (vs: [m]i32) ->
    loop (acc = replicate 3 0) for i < is[0] + 2 do
      let c = is[i]
      in acc with [c] <- acc[c] + vs[i]) iss vss
"""),
    ("while", r"""
fun main (iss: [n][m]i32) (vss: [n][m]i32): [n][3]i32 =
  map (\(is: [m]i32) (vs: [m]i32) ->
    let (go, i, acc) =
      loop (go = m > 0, i = 0, acc = replicate 3 0) while go do
        let c = is[i]
        in {i + 1 < m, i + 1, acc with [c] <- acc[c] + vs[i]}
    in acc) iss vss
"""),
    ("reads-accumulator", r"""
fun main (iss: [n][m]i32) (vss: [n][m]i32): [n][3]i32 =
  map (\(is: [m]i32) (vs: [m]i32) ->
    loop (acc = replicate 3 0) for i < m do
      let c = is[i]
      let v = vs[i] + acc[0]
      in acc with [c] <- acc[c] + v) iss vss
"""),
    ("row-update", r"""
fun main (iss: [n][m]i32) (vss: [n][m]i32): [n][3][2]i32 =
  map (\(is: [m]i32) (vs: [m]i32) ->
    loop (acc = replicate 3 (replicate 2 0)) for i < m do
      let c = is[i]
      in acc with [c] <- replicate 2 vs[i]) iss vss
"""),
]:
    row(f"sequential-{_name}", _src,
        lambda: [_i32(_BINS), _i32([[1, -2, 3, 4], [5, 6, -7, 8]])],
        omits=(_AT,))

row(
    "sequential-filter-in-prefix",
    r"""
fun main (xs: [n]i32): [4]i32 =
  stream_seq (\(q: i32) (acc: *[4]i32) (chunk: [q]i32) ->
      loop (a = acc) for i < q do
        let (k, evens) = filter (\(x: i32) -> x % 2 == i % 2) chunk
        in a with [i % 4] <- a[i % 4] + k) (replicate 4 0) xs
""",
    lambda: [_i32([1, 2, 3, 4, 6, 7, 9])],
    emits=(_STEP,),
    omits=(_AT,),
)

#: The rows the accumulate rule lowers (``trap-accumulate`` included:
#: both lowerings must hand it over).
ACCUMULATE = [r.name for r in ROWS if _AT in r.emits]


# -- summing loops ---------------------------------------------------------------
#
# ``loop (acc) for j < m do acc + f(j)`` over scalar state in a batch:
# the terms run as a map over a block of the iteration space, and the
# lanes add them in lockstep (``control.gen_sum``).  ``SUMS`` names
# these rows: a test below runs each under the sequential lowering too
# and requires identical bits.

#: A row gather along the iteration from a per-lane row (3 lanes,
#: 5 counters).
row(
    "sum-f32",
    r"""
fun main (xss: [n][m]f32) (ys: [m]f32): [n]f32 =
  map (\(xs: [m]f32) ->
    loop (acc = 0.25f32) for j < m do acc + xs[j] * ys[j]) xss
""",
    lambda: [_f32(np.arange(15).reshape(3, 5) * 0.37 - 2.0),
             _f32(np.arange(5) * 1.3 + 0.1)],
    emits=(_SUM,),
    omits=(_STEP,),
)

#: MRI-Q's shape: two sums, ``(acc + a) - b`` and ``(acc + a) + b``,
#: over uniform rows (6 lanes, 4 counters).
row(
    "sum-two-chains",
    r"""
fun main (xs: [n]f32) (ks: [k]f32) (ps: [k]f32): ([n]f32, [n]f32) =
  map (\(x: f32) ->
    loop (qr = 0.0f32, qi = 1.0f32) for j < k do
      let a = ks[j] * x
      let c = cos a
      let s = sin a
      in {qr + ps[j] * c - ks[j] * s, qi + ps[j] * s + ks[j] * c}) xs
""",
    lambda: [_f32(np.arange(6) * 0.61 - 1.0), _f32([0.3, -1.2, 2.5, 0.7]),
             _f32([1.5, 0.25, -0.75, 3.0])],
    emits=(_SUM,),
    omits=(_STEP,),
)

#: ``(t + acc) - u`` in i32 across the wrap-around, both ways (2 lanes,
#: 7 counters).
row(
    "sum-i32-wraps",
    r"""
fun main (xss: [n][m]i32) (yss: [n][m]i32): [n]i32 =
  map (\(xs: [m]i32) (ys: [m]i32) ->
    loop (acc = 2147483000) for j < m do (xs[j] + acc) - ys[j]) xss yss
""",
    lambda: [_i32([[400, 500, -7, 2147483647, 3, 0, 9],
                   [-2147483647, -5, 6, 1, 2, 3, 4]]),
             _i32([[-300, 1, 2, 3, -2147483647, 5, 6],
                   [2147483647, 8, 9, -1, 0, 1, 2]])],
    emits=(_SUM,),
    omits=(_STEP,),
)

#: No trip: the seeds, as they came, with no block run and nothing
#: checked — in a buffer of the kernel's own, which the host then
#: updates in place.
row(
    "sum-zero-trips",
    r"""
fun main (xss: [n][m]f32) (t: i32): [n]f32 =
  let r = map (\(xs: [m]f32) ->
                loop (acc = 1.5f32) for j < t do acc + xs[j + 9]) xss
  let r[0] = 2.0f32
  in r
""",
    lambda: [_f32(np.ones((3, 2))), ScalarValue(0, I32)],
    emits=(_SUM,),
)

#: More trips than a row has: the block's counters run past its end,
#: and the launch is the interpreter's, which raises.
row(
    "trap-sum-row",
    r"""
fun main (xss: [n][m]f32) (t: i32): [n]f32 =
  map (\(xs: [m]f32) -> loop (acc = 0.0f32) for j < t do acc + xs[j]) xss
""",
    lambda: [_f32(np.ones((3, 2))), ScalarValue(3, I32)],
    fallbacks=1,
    raises=InterpError,
    emits=(_SUM,),
)

#: 8 lanes x 4200 counters is more than one block of the iteration
#: space (``ACCUMULATE_LANES``): two, the sum carried between them.
row(
    "sum-blocks",
    r"""
fun main (xss: [n][m]f32): [n]f32 =
  map (\(xs: [m]f32) ->
    loop (acc = 0.0f32) for j < m do acc + xs[j] / f32 (j + 1)) xss
""",
    lambda: [_f32(np.sin(np.arange(8 * 4200)).reshape(8, 4200))],
    emits=(_SUM, "32768 // "),
)

#: A term whose ``/`` traps on one lane and counter: one check over
#: the block hands the launch to the interpreter, which raises.
row(
    "trap-sum",
    r"""
fun main (xss: [n][m]i32) (dss: [n][m]i32): [n]i32 =
  map (\(xs: [m]i32) (ds: [m]i32) ->
    loop (acc = 0) for j < m do acc + xs[j] / ds[j]) xss dss
""",
    lambda: [_i32([[1, 2, 3], [4, 5, 6]]), _i32([[1, 1, 1], [1, 0, 1]])],
    fallbacks=1,
    raises=ZeroDivisionError,
    emits=(_SUM,),
)

#: In the arm of a divergent ``if``: the terms run on the lanes that
#: take it — the others' row index out of range and zero divisor are
#: never read (4 lanes, 3 counters).
row(
    "sum-speculative",
    r"""
fun main (yss: [k][m]i32) (gs: [n]i32): [n]i32 =
  map (\(g: i32) ->
    if g >= 0
    then loop (acc = g) for j < m do (acc + yss[g, j] / (g + 1)) - j
    else 0 - g) gs
""",
    lambda: [_i32([[7, -8, 9], [10, 11, -12]]), _i32([1, -1, 0, -2])],
    emits=(_SUM, _COMPACT),
)

#: Rows gathered from per-lane arrays: a row an inner map captured only
#: to index (each lane reads its own through the captured lanes), and
#: a lane's own matrix at a lane index (rows paired with the lanes).
row(
    "sum-lane-rows",
    r"""
fun main (xss: [n][m]i32) (yss: [n][k][m]i32) (cs: [n]i32) (js: [p]i32)
    : ([n][p]i32, [n]i32) =
  map (\(xs: [m]i32) (ys: [k][m]i32) (c: i32) ->
    let a = map (\(j: i32) -> loop (s = j) for i < m do s + xs[i]) js
    let b = loop (s = 0) for i < m do s - ys[c, i]
    in {a, b}) xss yss cs
""",
    lambda: [_i32([[1, 2, 3], [4, 5, 6]]),
             _i32(np.arange(12).reshape(2, 2, 3) - 5), _i32([1, 0]),
             _i32([10, 20, 30, 40])],
    pipeline="nest-intact",
    emits=(_SUM, "R.arange("),
    omits=(_STEP,),
)

#: Outside any batch (a sequential kernel) the loop is one lane's: it
#: keeps the step.
row(
    "sum-uniform",
    r"""
fun main (xs: [n]f32): [1]f32 =
  stream_seq (\(q: i32) (acc: *[1]f32) (c: [q]f32) ->
      let s = loop (a = acc[0]) for i < q do a - c[i] * 0.5f32
      in acc with [0] <- s) (replicate 1 0.0f32) xs
""",
    lambda: [_f32(np.arange(11) * 0.37 - 1.5)],
    emits=(_STEP,),
    omits=(_SUM,),
)

#: K-means' assignment: the distance is a sum, the argmin over it
#: reads its state in a comparison and keeps the sequential step.
row(
    "sum-in-argmin",
    r"""
fun main (pss: [n][d]f32) (cs: [k][d]f32): [n]i32 =
  map (\(p: [d]f32) ->
    let (bi, bd) =
      loop (bi = 0, bd = 1.0e30f32) for cl < k do
        let dist = loop (acc = 0.0f32) for dd < d do
                     let diff = p[dd] - cs[cl, dd]
                     in acc + diff * diff
        in if dist < bd then {cl, dist} else {bi, bd}
    in bi) pss
""",
    lambda: [_f32(np.arange(12).reshape(4, 3) * 0.7 - 3.0),
             _f32([[0.0, 1.0, 2.0], [-2.0, -1.0, 0.5], [4.0, 4.5, 5.0]])],
    emits=(_SUM, _STEP),
)

#: A sum whose terms cannot run as a map body (``iota`` of the counter
#: is batched there) keeps the step, whose checks of the lane index are
#: its own: nothing the rule computed before giving up is assumed.
row(
    "sum-falls-back-to-the-step",
    r"""
fun main (yss: [k][m]i32) (cs: [n]i32): [n]i32 =
  map (\(c: i32) ->
    loop (a = 0) for i < m do
      let r = reduce (\(x: i32) (y: i32) -> x + y) 0 (iota i)
      in a + yss[c, i] * r) cs
""",
    lambda: [_i32([[1, 2, 3, 4], [5, 6, 7, 8]]), _i32([1, 0, 1])],
    pipeline="nest-intact",
    emits=(_STEP,),
    omits=(_SUM,),
)

#: Shapes of scalar loop that are not a sum keep the sequential step:
#: a term that reads the state, a product, and ``t - acc``.
for _name, _body in [
    ("reads-state", "acc + xs[j] * acc"),
    ("product", "acc * xs[j]"),
    ("negated-head", "xs[j] - acc"),
]:
    row(f"sequential-sum-{_name}", r"""
fun main (xss: [n][m]i32): [n]i32 =
  map (\(xs: [m]i32) -> loop (acc = 1) for j < m do %s) xss
""" % _body,
        lambda: [_i32([[1, 2, 3], [-4, 5, 6]])],
        emits=(_STEP,), omits=(_SUM,))

#: The rows the sum rule lowers (``trap-sum`` included: both lowerings
#: must hand it over).
SUMS = [r.name for r in ROWS if _SUM in r.emits]


# -- checks decided once ---------------------------------------------------------
#
# A batched index is checked on its range — two ints computed once per
# value, before a loop that does not bind it — never per lane at the
# access; a guard on a uniform operand is a comparison on the scalar,
# on a constant it is decided at transpile time.

#: What computes a range, and the per-lane check it replaced.
_RANGE, _PER_LANE = ".min()), int(", ".size and (("

#: An index the loop does not bind, read in a batch (its range is
#: computed once, before the first loop) and in the arm of an ``if`` on
#: it (divergent, the arm ranges the index of its own lanes).  The
#: loops are sums, run as blocks (``gen_sum``), whose map bodies read
#: the lane index repeated; ``_INVARIANT_STEP`` takes a maximum, which
#: the sequential step runs.
_INVARIANT = r"""
fun main (is: [n]i32) (yss: [m][k]i32) (t: i32): ([n]i32, [n]i32) =
  map (\(i: i32) ->
    let a = loop (s = 0) for j < t do s + yss[i, j % k]
    let b = if i >= 0
            then loop (s = 0) for j < t do s + yss[i, j % k]
            else 0
    in {a, b}) is
"""
_INVARIANT_STEP = _INVARIANT.replace("s + yss", "max s yss")

row(
    "range-invariant",
    _INVARIANT,
    lambda: [_i32([0, 1, 1]), _i32([[1, 2, 3], [4, 5, 6]]),
             ScalarValue(4, I32)],
    pipeline="nest-intact",
    emits=(_RANGE,),
    omits=(_PER_LANE,),
)

row(
    "range-invariant-step",
    _INVARIANT_STEP,
    lambda: [_i32([0, 1, 1]), _i32([[1, 2, 3], [4, 5, 6]]),
             ScalarValue(4, I32)],
    pipeline="nest-intact",
    emits=(_RANGE, _STEP),
    omits=(_PER_LANE,),
)

#: The same loop over an index out of range: run zero times it reads
#: nothing — computing the range ahead of it traps nothing — and run
#: once it hands the launch over at the access.
row(
    "range-zero-trip",
    _INVARIANT,
    lambda: [_i32([0, 5, -1]), _i32([[1, 2, 3], [4, 5, 6]]),
             ScalarValue(0, I32)],
    pipeline="nest-intact",
    emits=(_RANGE,),
)

row(
    "range-trap",
    _INVARIANT,
    lambda: [_i32([0, 5, 1]), _i32([[1, 2, 3], [4, 5, 6]]),
             ScalarValue(2, I32)],
    pipeline="nest-intact",
    fallbacks=1,
    raises=InterpError,
)

#: An index carried through loop state: its range is the step's own.
row(
    "range-carried",
    r"""
fun main (is: [n]i32) (ys: [m]i32) (t: i32): [n]i32 =
  map (\(i: i32) ->
    let (c, s) = loop (c = i, s = 0) for j < t do {(c + 1) % m, s + ys[c]}
    in s) is
""",
    lambda: [_i32([0, 1, 2]), _i32([10, 20, 30]), ScalarValue(5, I32)],
    pipeline="nest-intact",
    emits=(_RANGE,),
    omits=(_PER_LANE,),
)

#: A gather in an arm run on its own lanes whose every lane is in range
#: (``spec-gather`` has a lane out of range that does not take it).
row(
    "spec-gather-in-range",
    r"""
fun main (is: [n]i32) (ys: [m]i32): [n]i32 =
  map (\(i: i32) -> if i > 0 then ys[i] else 0 - 1) is
""",
    lambda: [_i32([0, 1, 1]), _i32([10, 20])],
    emits=(_COMPACT,),
)

#: Constant divisors, exponent and shift counts that cannot trap emit
#: no guard, in a batch and in an arm run on every lane.
row(
    "constant-operands",
    r"""
fun main (xs: [n]i32) (fs: [n]f32): ([n]i32, [n]f32, [n]i32) =
  map (\(x: i32) (f: f32) ->
    {x / 3 + x % 2 + x ^ 2, f / 2.0,
     if x > 1 then shl x 2 + x % 3 else shr x 1}) xs fs
""",
    lambda: [_i32([1, -2, 3]), _f32([1.5, -2.5, 3])],
    omits=("zero divisor", "negative integer exponent", "shift count"),
)

#: A constant zero divisor hands over unconditionally — in the arm of
#: a divergent ``if`` (the inner one, taken by no lane the outer arm
#: runs on), only if a lane takes the arm.
row(
    "trap-constant-divisor",
    r"""
fun main (xs: [n]i32): [n]i32 =
  map (\(x: i32) -> x / 0) xs
""",
    lambda: [_i32([1, 2, 3])],
    fallbacks=1,
    raises=ZeroDivisionError,
    emits=('\n        raise JitFallback("zero divisor in batch")',),
    omits=("== 0)",),
)

_DISCARDED = r"""
fun main (xs: [n]%(t)s) (d: %(t)s): [n]%(t)s =
  map (\(x: %(t)s) ->
    if x < %(lim)s then (if x > %(big)s then %(op)s else x) else x) xs
"""

row(
    "spec-constant-divisor",
    _DISCARDED % {"t": "i32", "lim": "50", "big": "100", "op": "x / 0"},
    lambda: [_i32([1, 200, 3]), ScalarValue(1, I32)],
    emits=('raise JitFallback("zero divisor in batch")', _COMPACT),
    omits=("== 0).any()",),
)

#: A uniform shift count out of range and a uniform float divisor of 0:
#: a comparison on the scalar hands the launch over — in the arm of a
#: divergent ``if``, only if a lane takes the arm.
row(
    "trap-uniform-shift",
    r"""
fun main (xs: [n]i32) (k: i32): [n]i32 =
  map (\(x: i32) -> shl x k) xs
""",
    lambda: [_i32([1, 2, 3]), ScalarValue(40, I32)],
    fallbacks=1,
    emits=("if ((p0 < 0) | (p0 >= 32)):",),
    omits=(".any()",),
)

row(
    "spec-uniform-shift",
    _DISCARDED % {"t": "i32", "lim": "50", "big": "100", "op": "shl x d"},
    lambda: [_i32([1, 200, 3]), ScalarValue(40, I32)],
    emits=("if ((p0 < 0) | (p0 >= 32)):", _COMPACT),
    omits=(">= 32)).any()",),
)

row(
    "trap-uniform-float-divisor",
    r"""
fun main (xs: [n]f32) (d: f32): [n]f32 =
  map (\(x: f32) -> x / d) xs
""",
    lambda: [_f32([1, 2, 3]), ScalarValue(0.0, F32)],
    fallbacks=1,
    raises=ZeroDivisionError,
    emits=("if (p0 == 0):",),
)

row(
    "spec-uniform-float-divisor",
    _DISCARDED % {"t": "f32", "lim": "50.0", "big": "100.0", "op": "x / d"},
    lambda: [_f32([1, 200, 3]), ScalarValue(0.0, F32)],
    emits=("if (p0 == 0):", _COMPACT),
    omits=("== 0).any()",),
)


# -- outside the transpilable subset ---------------------------------------------

row(
    "inlined-call",
    r"""
fun double (x: i32): i32 = x + x
fun main (xs: [n]i32) (k: i32): ([n][k]i32, [n]i32) =
  map (\(x: i32) ->
    let a = map (\(i: i32) -> double x + i) (iota k)
    in {a, k + 1}) xs
""",
    lambda: [_i32([1, 2, 3]), ScalarValue(2, I32)],
    pipeline="unsimplified",
)

#: A recursive function is not inlined, and a call is not transpiled:
#: the kernel is unsupported at transpile time and every launch runs
#: on the interpreter.
row(
    "unsupported-call",
    r"""
fun fact (k: i32): i32 = if k <= 1 then 1 else k * fact (k - 1)
fun main (xs: [n]i32): [n]i32 =
  map (\(x: i32) -> fact x) xs
""",
    lambda: [_i32([1, 2, 5])],
    fallbacks=1,
)

#: ``filter``, ``scatter`` and the streams are transpiled at kernel
#: level only.
row(
    "unsupported-in-batch",
    r"""
fun main (xss: [n][m]i32) (is: [m]i32): ([n]i32, [n][m]i32, [n]i32) =
  let a = map (\(row: [m]i32) ->
            let (k, pos) = filter (\(x: i32) -> x > 2) row
            in k) xss
  let b = map (\(row: [m]i32) -> scatter (replicate m 0) is row) xss
  let c = map (\(row: [m]i32) ->
            stream_seq (\(q: i32) (acc: i32) (chunk: [q]i32) ->
                acc + chunk[0]) 0 row) xss
  in {a, b, c}
""",
    lambda: [_i32([[1, 2, 3], [4, 5, 6]]), _i32([2, 0, 1])],
    fallbacks=3,
)


# -- running a row ---------------------------------------------------------------

BY_NAME = {r.name: r for r in ROWS}
assert len(BY_NAME) == len(ROWS), "duplicate row name"


@dataclass
class Outcome:
    """What running a row produced: the interpreter's and the jit's
    result (a list of values or the exception raised), the number of
    launches that left the jit, the generated sources as one text,
    the ``(expression class, position)`` pairs whose emitter ran —
    ``U`` outside any batch, ``B`` inside one, ``C`` in an arm of a
    divergent ``if`` compacted to its own lanes (the rules no table row
    names under their functions' names) — and the text of every arm
    that ran on every lane of its batch."""

    expected: object
    got: object
    fallbacks: int
    text: str
    reached: Set[Tuple[object, str]]
    speculated: List[str]


def _attempt(run):
    try:
        return run()
    except Exception as ex:  # the outcome under comparison
        return ex


#: The rule modules of the four rules no table row names: ``gen_loop``
#: tries ``gen_sum`` and ``gen_accumulate`` first and runs a masked loop
#: as ``gen_live``; ``gen_reduce`` tries ``gen_select`` first.
_CONTROL = sys.modules[_LOWERING._GEN[A.LoopExp].__module__]
_FOLDS = sys.modules[_LOWERING._GEN[A.ReduceExp].__module__]
_LOOP_RULES = ("gen_sum", "gen_accumulate", "gen_live")
_RULES = {**{name: _CONTROL for name in _LOOP_RULES}, "gen_select": _FOLDS}


@contextlib.contextmanager
def _recording(reached: Set[Tuple[object, str]], speculated: List[str]):
    """Wrap every row of the dispatch table, the rules it does not name
    (recorded where they take the expression) and the arm of a
    divergent ``if`` (``control.run_arm``: what it emits on every lane
    is kept, and what is emitted on its own lanes is in position
    ``C``), for the duration."""
    table = _LOWERING._GEN
    saved = dict(table)
    rules = {name: getattr(mod, name) for name, mod in _RULES.items()}
    run_arm, compacted = _CONTROL.run_arm, []

    def position(cg):
        return "C" if compacted else "B" if cg.depth else "U"

    def spy(cls, emit):
        def wrapper(cg, e, scope):
            reached.add((cls, position(cg)))
            return emit(cg, e, scope)

        return wrapper

    def spy_rule(name, rule):
        def wrapper(cg, e, scope):
            out = rule(cg, e, scope)
            if out is not None:
                reached.add((name, position(cg)))
            return out

        return wrapper

    def spy_arm(cg, body, scope, lanes):
        if lanes is not None:
            compacted.append(lanes)
            try:
                return run_arm(cg, body, scope, lanes)
            finally:
                compacted.pop()
        start = len(cg.em.lines)
        try:
            return run_arm(cg, body, scope, lanes)
        finally:
            speculated.append(
                "\n".join(text for _, text in cg.em.lines[start:])
            )

    table.update({cls: spy(cls, emit) for cls, emit in saved.items()})
    for name, rule in rules.items():
        setattr(_RULES[name], name, spy_rule(name, rule))
    _CONTROL.run_arm = spy_arm
    try:
        yield
    finally:
        table.update(saved)
        for name, rule in rules.items():
            setattr(_RULES[name], name, rule)
        _CONTROL.run_arm = run_arm


def run_row(row: Row) -> Outcome:
    # The compiler's fresh-name counter is process-wide; pinned text
    # is what a fresh process generates.
    name_source.reset()
    prog = parse(row.src)
    expected = _attempt(lambda: list(run_program(prog, row.args())))
    compiled = compile_program(prog, PIPELINES[row.pipeline])
    reached: Set[Tuple[object, str]] = set()
    speculated: List[str] = []
    with _recording(reached, speculated), metering() as m:
        got = _attempt(
            lambda: list(compiled.execute(row.args(), policy=JIT)[0])
        )
    fallbacks = sum(
        int(v)
        for k, v in m.snapshot()["counters"].items()
        if k.startswith("vm.fallback")
    )
    return Outcome(
        expected, got, fallbacks, render_sources(compiled.host), reached,
        speculated,
    )


_OUTCOMES: Dict[str, Outcome] = {}


def outcome_of(row: Row) -> Outcome:
    """``run_row``, once per row per session: the row tests and the
    exhaustiveness test share the runs."""
    if row.name not in _OUTCOMES:
        _OUTCOMES[row.name] = run_row(row)
    return _OUTCOMES[row.name]


def check_digest(section: str, name: str, text: str, tmp_path) -> None:
    digest = hashlib.sha256(text.encode()).hexdigest()
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if os.environ.get("GOLDEN_UPDATE"):
        pinned.setdefault(section, {})[name] = digest
        DIGESTS.write_text(
            json.dumps(pinned, indent=1, sort_keys=True) + "\n"
        )
    if pinned.get(section, {}).get(name) != digest:
        regenerated = tmp_path / f"{name}.py"
        regenerated.write_text(text)
        raise AssertionError(
            f"{section} row {name!r}: generated Python drifted from the "
            f"digest pinned in {DIGESTS.name}; what was generated is in "
            f"{regenerated} (set GOLDEN_UPDATE=1 to re-pin after an "
            f"intentional change)"
        )


def check_row(row: Row, out: Outcome, tmp_path) -> None:
    if row.raises is not None:
        assert type(out.expected) is row.raises, out.expected
        assert type(out.got) is row.raises, out.got
    else:
        for side in (out.expected, out.got):
            if isinstance(side, Exception):
                raise side
        assert len(out.got) == len(out.expected)
        for e, g in zip(out.expected, out.got):
            assert values_equal(e, g, rtol=1e-5, atol=1e-6), (e, g)
    assert out.fallbacks == row.fallbacks, (
        f"{row.name}: {out.fallbacks} launches left the jit, "
        f"expected {row.fallbacks}"
    )
    for text in row.emits:
        assert text in out.text, (
            f"{row.name}: generated sources no longer contain {text!r}"
        )
    for text in row.omits:
        assert text not in out.text, (
            f"{row.name}: generated sources contain {text!r}"
        )
    check_digest("corpus", row.name, out.text, tmp_path)


# -- the tests ---------------------------------------------------------------------


@pytest.mark.parametrize("name", list(BY_NAME))
def test_row_agrees_with_the_interpreter_and_its_digest(name, tmp_path):
    row = BY_NAME[name]
    check_row(row, outcome_of(row), tmp_path)


_BENCHMARK_SOURCES: Dict[str, Tuple[str, Set[str]]] = {}


def benchmark_run(name: str) -> Tuple[str, Set[str]]:
    """``_generated_sources``, once per benchmark per session, and the
    functions that called the per-lane merge (``control.where``) while
    it transpiled."""
    if name not in _BENCHMARK_SOURCES:
        merge, callers = _CONTROL.where, set()

        def spy(cg, *args):
            callers.add(sys._getframe(1).f_code.co_name)
            return merge(cg, *args)

        _CONTROL.where = spy
        try:
            _BENCHMARK_SOURCES[name] = (_generated_sources(name), callers)
        finally:
            _CONTROL.where = merge
    return _BENCHMARK_SOURCES[name]


def benchmark_sources(name: str) -> str:
    return benchmark_run(name)[0]


@pytest.mark.parametrize("name", list(BENCHMARKS.names()))
def test_benchmark_matches_its_digest(name, tmp_path):
    check_digest("benchmarks", name, benchmark_sources(name), tmp_path)


#: A lane mask tested whole: ``.all()`` of anything, or ``.any()`` of
#: a local (a trap guard tests a parenthesised expression).
_WHOLE_MASK_TEST = re.compile(r"\.all\(\)|\b\w+\.any\(\)")


@pytest.mark.parametrize("name", list(BENCHMARKS.names()))
def test_branch_and_loop_masks_are_counted_once(name):
    """A divergent ``if`` and a masked loop step read one
    ``np.count_nonzero`` of their mask, never ``.all()`` then
    ``.any()``; trap guards keep their ``.any()``."""
    found = _WHOLE_MASK_TEST.findall(benchmark_sources(name))
    assert not found, found


@pytest.mark.parametrize("name", list(BENCHMARKS.names()))
def test_a_lane_that_stopped_computes_nothing(name):
    """No loop merges its state per lane: the only per-lane merge is a
    divergent ``if``'s.  A masked loop's body is emitted once — every
    state slot is handed its next value on one line — and runs over the
    live lanes (Mandelbrot's ``while``)."""
    text, mergers = benchmark_run(name)
    assert mergers <= {"gen_if"}, mergers
    for kernel in text.split("# ===== "):
        advances = re.findall(r"^\s*(_s\d+) = _n\d+$", kernel, re.M)
        assert len(advances) == len(set(advances)), advances
    assert (_LIVE in text) == (name == "Mandelbrot")


def test_nn_selects_its_neighbours_with_argmin():
    """NN's reduce keeps the least distance and its index: one
    ``np.argmin`` per launch, no pairwise tree."""
    text = benchmark_sources("NN")
    assert "np.argmin(" in text and "while _n" not in text


#: Where the corpus reaches each emitter (``U`` outside any batch,
#: ``B`` inside one, ``C`` in an arm run on its own lanes).  The streams,
#: ``filter`` and ``scatter`` are unsupported inside a batch and a call
#: everywhere: reaching them there is reaching the refusal.
POSITIONS = {
    A.AtomExp: "B",
    A.BinOpExp: "UBC",
    A.CmpOpExp: "UBC",
    A.UnOpExp: "UBC",
    A.ConvOpExp: "UBC",
    A.IfExp: "UBC",
    A.IndexExp: "UBC",
    A.UpdateExp: "UBC",
    A.IotaExp: "UB",
    A.ReplicateExp: "UBC",
    A.RearrangeExp: "UB",
    A.ReshapeExp: "UB",
    A.CopyExp: "UBC",
    A.ConcatExp: "UB",
    A.ApplyExp: "B",
    A.LoopExp: "UBC",
    A.MapExp: "UBC",
    A.ReduceExp: "UBC",
    A.ScanExp: "UBC",
    A.StreamMapExp: "U",
    A.StreamRedExp: "U",
    A.StreamSeqExp: "UB",
    A.FilterExp: "UB",
    A.ScatterExp: "UB",
    "gen_accumulate": "UBC",
    "gen_sum": "BC",
    "gen_live": "BC",
    "gen_select": "UBC",
}


def test_every_expression_has_an_emitter_and_the_corpus_reaches_it():
    table = _LOWERING._GEN
    expressions = set(get_args(A.Exp))
    assert set(table) == expressions, (
        "dispatch table and core.ast.Exp disagree: "
        f"{sorted(c.__name__ for c in set(table) ^ expressions)}"
    )
    assert set(POSITIONS) == expressions | set(_RULES)
    reached: Set[Tuple[object, str]] = set()
    for row in ROWS:
        reached |= outcome_of(row).reached
    unreached = [
        f"{getattr(cls, '__name__', cls)}:{pos}"
        for cls, positions in POSITIONS.items()
        for pos in positions
        if (cls, pos) not in reached
    ]
    assert not unreached, f"no corpus row reaches {unreached}"


def test_a_one_character_edit_fails_the_row_that_emits_it(
    monkeypatch, tmp_path
):
    """The digests are not vacuous: one space inserted into one
    emitted line fails a row that transpiles it — naming the row and
    leaving the regenerated source to diff — and no other."""
    monkeypatch.delenv("GOLDEN_UPDATE", raising=False)
    codegen = _LOWERING.KernelCodegen
    emit_line = codegen.line
    monkeypatch.setattr(
        codegen,
        "line",
        lambda self, text: emit_line(
            self, text.replace("np.where(", "np.where (")
        ),
    )
    row = BY_NAME["if-forms"]
    with pytest.raises(AssertionError, match="'if-forms'") as failure:
        check_row(row, run_row(row), tmp_path)
    regenerated = tmp_path / "if-forms.py"
    assert str(regenerated) in str(failure.value)
    assert "np.where (" in regenerated.read_text()
    untouched = BY_NAME["float-ops"]
    check_row(untouched, run_row(untouched), tmp_path)


def _same_bits(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return len(a) == len(b) and all(
        x.elem is y.elem and np.array_equal(x.data, y.data, equal_nan=True)
        for x, y in zip(a, b)
    )


def _three_lowerings(monkeypatch, compile_, make_args, rule="gen_accumulate"):
    """The jit's outputs (or error) and sources under a loop ``rule``,
    under it with blocks of one iteration, and without it."""

    def run():
        compiled = compile_()
        out = _attempt(
            lambda: list(compiled.execute(make_args(), policy=JIT)[0])
        )
        return out, render_sources(compiled.host)

    whole = run()
    monkeypatch.setattr(_CONTROL, "ACCUMULATE_LANES", 1)
    stepped = run()
    monkeypatch.setattr(_CONTROL, rule, lambda *a: None)
    return whole, stepped, run()


def _assert_bit_identical(whole, stepped, sequential, marker=_AT):
    assert marker in whole[1] and marker in stepped[1]
    assert marker not in sequential[1]
    assert _same_bits(whole[0], sequential[0]), (whole[0], sequential[0])
    assert _same_bits(stepped[0], sequential[0]), (stepped[0], sequential[0])


@pytest.mark.parametrize("name", ACCUMULATE)
def test_accumulate_is_the_sequential_loop_bit_for_bit(name, monkeypatch):
    """``ufunc.at`` applies in index order and the extended batch is
    row-major in loop order, so nothing is reassociated: floats too
    are ``array_equal``, at any block size."""
    row = BY_NAME[name]
    prog = parse(row.src)
    _assert_bit_identical(*_three_lowerings(
        monkeypatch,
        lambda: compile_program(prog, PIPELINES[row.pipeline]),
        row.args,
    ))


@pytest.mark.parametrize("name", SUMS)
def test_sum_is_the_sequential_loop_bit_for_bit(name, monkeypatch):
    """The lockstep adds in loop order, and ``x - y`` is ``x + (-y)``
    exactly, so nothing is reassociated: floats too are
    ``array_equal``, at any block size."""
    row = BY_NAME[name]
    prog = parse(row.src)
    _assert_bit_identical(*_three_lowerings(
        monkeypatch,
        lambda: compile_program(prog, PIPELINES[row.pipeline]),
        row.args,
        "gen_sum",
    ), _SUM)


def test_a_row_read_past_its_end_is_handed_over_by_its_check(monkeypatch):
    """The slice a block reads stops at the row's end; the counters
    running past it hand the launch over on the slice's own check, not
    on whatever the shorter slice breaks next."""
    reasons = []
    monkeypatch.setattr(
        JitRunner, "_note_fallback",
        lambda self, kernel, reason: reasons.append(reason),
    )
    row = BY_NAME["trap-sum-row"]
    compiled = compile_program(parse(row.src), PIPELINES[row.pipeline])
    with pytest.raises(InterpError):
        compiled.execute(row.args(), policy=JIT)
    assert reasons == ["uniform index out of bounds"]


@pytest.mark.parametrize("size", ["small", "perf"])
def test_kmeans_is_bit_identical_under_the_accumulate(size, monkeypatch):
    spec = BENCHMARKS["K-means"]
    args = getattr(spec, f"{size}_args")(np.random.default_rng(0))
    _assert_bit_identical(*_three_lowerings(
        monkeypatch, lambda: compile_program(spec.program()), lambda: args
    ))


def test_known_divergence_uniform_index_clamped_under_speculation():
    """A uniform index into a per-lane array in the arm of a divergent
    ``if`` is out of range on every lane, the ones that take the arm
    included: the arm runs on every lane, and its check hands the
    launch to the interpreter, which raises.  (The lowering used to
    clamp it and answer.)"""
    prog = parse(
        r"""
fun main (xss: [n][m]i32) (cs: [n]i32): [n]i32 =
  map (\(row: [m]i32) (c: i32) -> if c > 0 then row[7] else 0) xss cs
"""
    )
    args = lambda: [_i32([[1, 2, 3], [4, 5, 6]]), _i32([1, 0])]  # noqa: E731
    with pytest.raises(InterpError):
        run_program(prog, args())
    with pytest.raises(InterpError):
        compile_program(prog).execute(args(), policy=JIT)


def test_known_divergence_a_lane_that_keeps_a_substituted_result():
    """A lane that takes the arm of a divergent ``if`` and traps in it
    traps: ``x / y`` with ``x > 0, y = 0`` raises, as in the
    interpreter.  (The lowering used to run the arm on every lane with
    a substitute for the zero divisor, and that lane kept ``x``.)"""
    prog = parse(
        r"""
fun main (xs: [n]i32) (ys: [n]i32): [n]i32 =
  map (\(x: i32) (y: i32) -> if x > 0 then x / y else 0) xs ys
"""
    )
    args = lambda: [_i32([1, 2, -1]), _i32([1, 0, 1])]  # noqa: E731
    with pytest.raises(ZeroDivisionError):
        run_program(prog, args())
    got = _attempt(lambda: compile_program(prog).execute(args(), policy=JIT))
    assert isinstance(got, ZeroDivisionError), got


def enclosing_loops(text: str, marker: str):
    """For every line of generated ``text`` that contains ``marker``,
    how many ``for`` blocks enclose it."""
    lines = text.splitlines()
    depths = []
    for i, line in enumerate(lines):
        if marker not in line:
            continue
        indent, loops = len(line) - len(line.lstrip()), 0
        for above in reversed(lines[:i]):
            outer = len(above) - len(above.lstrip())
            if above.strip() and outer < indent:
                loops += above.lstrip().startswith("for ")
                indent = outer
        depths.append(loops)
    return depths


def test_a_range_is_computed_where_its_index_lives():
    """Before the loops an invariant index is read in (one range serves
    every step or block of the first loop, and another, over the lanes
    of the ``if`` arm the second is in, every one of the second), and
    inside the loop that carries the index."""
    stepped = outcome_of(BY_NAME["range-invariant-step"]).text
    assert enclosing_loops(stepped, _RANGE) == [0, 0]
    # Summed, the lane index is ranged once before each loop — its
    # repeat in a block's map keeps that range — and the counters'
    # ``j % k`` once per block.
    summed = outcome_of(BY_NAME["range-invariant"]).text
    assert enclosing_loops(summed, _RANGE) == [0, 1, 0, 1]
    assert not [ln for ln in summed.splitlines() if _RANGE in ln and "_xp" in ln]
    carried = outcome_of(BY_NAME["range-carried"]).text
    assert enclosing_loops(carried, _RANGE) == [1]
