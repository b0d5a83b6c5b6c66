"""Seeded differential test of the summing-loop lowering.

Random ``+``/``-`` chains over one or two scalar accumulators — terms
that gather a per-lane row along the iteration, a uniform row, a
product of the two, a constant, the counter itself, or a gather at
another index — in f32 and in i32 (operands large enough to wrap),
over batches of 1 to 3000 lanes and 0 to 40 trips, run on the jit,
where the loop is a map over blocks of its iteration space whose
lanes add its terms in lockstep, and on the reference interpreter,
which steps through it.  Both add in loop order, so the two must agree exactly:
integers and floats bit for bit.

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
from repro.vm.jit import jit_cache_for

SEEDS = [
    int(s) for s in os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")
]

#: (fewest, most) lanes of a batch, and the most trips at that width:
#: the interpreter steps every lane through every trip, so the widest
#: batches run few.
SHAPES = ((1, 8, 40), (9, 120, 40), (121, 3000, 2))

SOURCE = r"""
fun main (xss: [w][t]%(T)s) (yss: [w][t]%(T)s) (zs: [t]%(T)s)
    : ([w]%(T)s, [w]%(T)s) =
  map (\(xs: [t]%(T)s) (ys: [t]%(T)s) ->
    let (a, b) =
      loop (a = %(a0)s, b = %(b0)s) for j < t do {%(a)s, %(b)s}
    in {a, b}) xss yss
"""

#: Terms per element type, the first four reading a lane's own row.
TERMS = {
    F32: ("xs[j]", "ys[j]", "xs[j] * zs[j]", "ys[j] - zs[t - 1 - j]",
          "zs[j]", "0.375f32", "f32 j", "zs[t - 1 - j]"),
    I32: ("xs[j]", "ys[j]", "xs[j] * zs[j]", "ys[j] - zs[t - 1 - j]",
          "zs[j]", "7", "j", "zs[t - 1 - j]"),
}


def _chain(rng, elem, head: str, lane: bool) -> str:
    """A left-nested chain of one to three terms headed by ``head``,
    the first one sometimes on the head's left (``t + head``) and, with
    ``lane``, one that reads a lane's own row: a loop whose terms are
    the same on every lane is not left in the map."""
    terms = TERMS[elem]
    expr = head
    for k in range(int(rng.integers(1, 4))):
        t = terms[int(rng.integers(4 if lane and k == 0 else len(terms)))]
        if k == 0 and rng.integers(3) == 0:
            expr = f"({t} + {expr})"
        else:
            expr = f"({expr} {'-' if rng.integers(2) else '+'} {t})"
    return expr


def _seed_literal(rng, elem) -> str:
    if elem is F32:
        return f"{rng.normal() * 10:.6f}f32"
    return str(int(rng.integers(0, 2**31)))


def _operands(rng, elem, shape):
    if elem is F32:
        data = (rng.normal(size=shape) * 10.0 ** rng.integers(-2, 5, shape))
        return array_value(data.astype(np.float32), F32)
    return array_value(
        rng.integers(-2**31, 2**31, shape, dtype=np.int64).astype(np.int32),
        I32,
    )


def _case(rng, elem, shape):
    low, high, most = shape
    w = int(np.exp(rng.uniform(np.log(low), np.log(high + 1))))
    t = int(rng.integers(0, most + 1))
    src = SOURCE % {
        "T": elem.name,
        "a0": _seed_literal(rng, elem),
        "b0": _seed_literal(rng, elem),
        "a": _chain(rng, elem, "a", lane=True),
        "b": _chain(rng, elem, "b", lane=False),
    }
    args = [
        _operands(rng, elem, (w, t)),
        _operands(rng, elem, (w, t)),
        _operands(rng, elem, (t,)),
    ]
    return src, args


@pytest.mark.parametrize("seed", SEEDS)
def test_random_sums_agree_with_the_interpreter_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for elem in (F32, I32):
        for shape in SHAPES:
            src, args = _case(rng, elem, shape)
            prog = parse(src)
            expected = run_program(prog, args)
            compiled = compile_program(prog)
            got, _cost, report = compiled.execute(
                args, policy=ExecutionPolicy(executor="jit")
            )
            assert report.fallbacks == 0, src
            sources = jit_cache_for(compiled.host).sources()
            assert any(
                "for _k" in s for by_sig in sources.values()
                for s in by_sig.values()
            ), f"not lowered as a sum:\n{src}"
            for e, g in zip(expected, got):
                assert g.elem is e.elem
                assert np.array_equal(g.data, e.data, equal_nan=True), (
                    src, g.data, e.data
                )
