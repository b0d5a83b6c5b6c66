"""Seeded differential test of the divergent ``if``.

Random ``if`` nests, up to three deep, inside a map: each arm is one of
the eleven operators that can trap (``/`` and ``%`` on integers, ``/``
on floats, ``^`` on both, ``shl``, ``shr``, ``log``, ``sqrt``, ``exp``,
float to int), a gather, an in-place update, an update or a read of
one uniform array every arm shares, a sum over a map, an operator that
cannot trap, or another ``if``; the conditions split the lanes at
random, all of them or none included.  Every operand draws, lane by
lane, a value some operator traps on, so the traps land on lanes that
take their arm and on lanes that do not.  The jit must agree with the reference
interpreter, which evaluates only the arm a lane takes: integers bit
for bit, floats at the differential tolerance, an error by its class.
A program the interpreter answers leaves no launch to it: a trap on a
lane that does not take its arm is never checked.

Seeds come from ``CHAOS_SEEDS`` (default ``0,1,2``; CI's ``chaos`` job
runs three more).
"""

import os

import numpy as np
import pytest

from repro.core.prim import F32, I32
from repro.core.values import array_value
from repro.frontend import parse
from repro.interp import run_program
from repro.pipeline import compile_program
from repro.runtime import ExecutionPolicy

SEEDS = [
    int(s) for s in os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")
]

#: Programs per element type and seed.
CASES = 12

SOURCE = r"""
fun main (xs: [n]%(T)s) (ys: [n]%(T)s) (fs: [n]f32) (cs: [n]i32)
    (is: [n]i32) (zs: [4]%(T)s): [n]%(T)s =
  map (\(x: %(T)s) (y: %(T)s) (f: f32) (c: i32) (i: i32) ->
    let r = replicate 3 %(zero)s in %(body)s)
    xs ys fs cs is
"""

_UPDATE = "(let a = (replicate 3 x) with [i] <- y in a[2])"
_SHARED = ("(let b = r with [1] <- %(seven)s in b[1])", "r[1]")
_MAP = (
    "(reduce (\\(a: %(T)s) (b: %(T)s) -> a + b) %(zero)s"
    " (map (\\(z: %(T)s) -> z / y) zs))"
)

#: The arms per element type: the operators that can trap first, then
#: a gather and an update (``i`` may be out of range), an update and a
#: read of ``r``, a map (a batch extended inside the arm), then ones
#: that cannot trap.
LEAVES = {
    I32: ("x / y", "x % y", "x ^ y", "shl x y", "shr x y", "i32 f",
          "zs[i]", _UPDATE, _SHARED[0] % {"seven": "7"},
          _SHARED[1], _MAP % {"T": "i32", "zero": "0"},
          "x + y", "min x c"),
    F32: ("x / y", "x ^ y", "log x", "sqrt x", "exp x", "f32 (i32 x)",
          "zs[i]", _UPDATE, _SHARED[0] % {"seven": "7.0"},
          _SHARED[1], _MAP % {"T": "f32", "zero": "0.0"},
          "x * y", "x + 1.5"),
}

#: Per operand, the values no operator traps on and the ones some do.
VALUES = {
    "int": ((1, 2, 3, 5, 9), (0, -1)),
    "float": ((0.5, 1.25, 2.0, 3.5), (0.0, -2.0, 1000.0, np.nan)),
    "index": ((0, 1, 2), (-1, 3, 7)),
}


def _arm(rng, elem, depth: int) -> str:
    if depth < 3 and rng.integers(3) == 0:
        return f"({_if(rng, elem, depth + 1)})"
    leaves = LEAVES[elem]
    return leaves[int(rng.integers(len(leaves)))]


def _if(rng, elem, depth: int) -> str:
    test = ("c", "i")[int(rng.integers(2))]
    return (
        f"if {test} > {int(rng.integers(-2, 3))} "
        f"then {_arm(rng, elem, depth)} else {_arm(rng, elem, depth)}"
    )


def _column(rng, kind: str, n: int, poison: float):
    good, bad = VALUES[kind]
    pick = np.where(
        rng.random(n) < poison,
        rng.choice(np.asarray(bad, dtype=float), n),
        rng.choice(np.asarray(good, dtype=float), n),
    )
    return pick


def _case(rng, elem):
    n = int(rng.integers(1, 40))
    poison = float(rng.choice([0.0, 0.05, 0.2]))
    kind = "float" if elem is F32 else "int"
    dtype = elem.to_dtype()
    src = SOURCE % {
        "T": elem.name, "zero": "0.0" if elem is F32 else "0",
        "body": _if(rng, elem, 1),
    }
    conds = rng.integers(-2, 3, n)
    args = lambda: [  # noqa: E731 - fresh arrays per run
        array_value(cols[0].astype(dtype), elem),
        array_value(cols[1].astype(dtype), elem),
        array_value(cols[2].astype(np.float32), F32),
        array_value(conds.astype(np.int32), I32),
        array_value(cols[3].astype(np.int32), I32),
        array_value(np.arange(1, 5).astype(dtype), elem),
    ]
    cols = [
        _column(rng, kind, n, poison),
        _column(rng, kind, n, poison),
        _column(rng, "float", n, poison),
        _column(rng, "index", n, poison),
    ]
    return src, args


def _attempt(run):
    try:
        return run()
    except Exception as ex:  # the outcome under comparison
        return ex


#: The interpreter rounds an overflowing float to the element type on
#: purpose (``exp 1000.0`` in f32 is ``inf``), and NumPy warns.
@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("seed", SEEDS)
def test_random_divergent_ifs_agree_with_the_interpreter(seed):
    rng = np.random.default_rng(seed)
    outcomes = set()
    for elem in (I32, F32):
        for _ in range(CASES):
            src, args = _case(rng, elem)
            prog = parse(src)
            expected = _attempt(lambda: list(run_program(prog, args())))
            got = _attempt(
                lambda: compile_program(prog).execute(
                    args(), policy=ExecutionPolicy(executor="jit")
                )
            )
            if isinstance(expected, Exception):
                outcomes.add("raises")
                assert type(got) is type(expected), (src, expected, got)
                continue
            outcomes.add("answers")
            assert not isinstance(got, Exception), (src, got)
            values, _cost, report = got
            assert report.fallbacks == 0, (src, report.summary())
            for e, g in zip(expected, values):
                assert g.elem is e.elem and g.data.shape == e.data.shape
                same = np.array_equal(g.data, e.data) if elem is I32 else (
                    np.allclose(g.data, e.data, rtol=1e-5, atol=1e-6,
                                equal_nan=True)
                )
                assert same, (src, g.data, e.data)
    assert outcomes == {"raises", "answers"}
