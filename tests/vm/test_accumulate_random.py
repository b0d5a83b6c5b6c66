"""Seeded differential test of the accumulating-loop lowering.

Random per-lane histograms — every accumulator size and loop length of
a small grid, an operator drawn from the table NumPy can accumulate
with, one- and two-index cells, index streams that are random,
constant, uniform across the lanes, or out of range somewhere — run on
the jit, where the loop is one ``ufunc.at`` over the whole iteration
space, and on the reference interpreter, which steps through it.  The
accumulate preserves the loop's order, so the two must agree exactly,
floats included, and an out-of-range index must raise the same error
class from both.

Seeds come from ``CHAOS_SEEDS`` (default ``0,1,2``; CI's ``chaos`` job
runs three more).
"""

import os

import numpy as np
import pytest

from repro.core.prim import BOOL, F32, I32
from repro.core.values import array_value
from repro.frontend import parse
from repro.interp import run_program
from repro.pipeline import compile_program
from repro.runtime import ExecutionPolicy
from repro.vm.jit import jit_cache_for

from .test_codegen_corpus import _attempt

SEEDS = [
    int(s) for s in os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")
]
BINS = (1, 2, 5, 37)
LENGTHS = (0, 1, 2, 97, 1024)
LANES, INNER = 2, 3

#: (element type, neutral literal, cell update) per operator of
#: ``elementwise._ufunc_src``; ``{x}`` is the cell, ``{v}`` the operand.
OPERATORS = {
    "add-i32": (I32, "0", "{x} + {v}"),
    "add-f32": (F32, "0.0", "{x} + {v}"),
    "mul-i32": (I32, "1", "{x} * {v}"),
    "mul-f32": (F32, "1.0", "{x} * {v}"),
    "min-f32": (F32, "1.0e30", "min {x} {v}"),
    "max-i32": (I32, "(0 - 1000)", "max {x} {v}"),
    "xor": (I32, "0", "xor {x} {v}"),
    "and": (BOOL, "true", "{x} && {v}"),
    "or": (BOOL, "false", "{x} || {v}"),
}
STREAMS = ("random", "constant", "uniform", "out-of-range")

ONE_INDEX = r"""
fun main (iss: [l][n]i32) (vss: [l][n]%(t)s): [l][%(k)d]%(t)s =
  map (\(is: [n]i32) (vs: [n]%(t)s) ->
    loop (acc = replicate %(k)d %(zero)s) for i < n do
      let c = %(c)s
      in acc with [c] <- %(cell)s) iss vss
"""

TWO_INDEX = r"""
fun main (iss: [l][n]i32) (vss: [l][n][%(d)d]%(t)s)
    : [l][%(k)d][%(d)d]%(t)s =
  map (\(is: [n]i32) (vs: [n][%(d)d]%(t)s) ->
    loop (acc = replicate %(k)d (replicate %(d)d %(zero)s)) for i < n do
      let c = %(c)s
      in loop (a = acc) for j < %(d)d do
           a with [c, j] <- %(cell)s) iss vss
"""


def _case(rng, k: int, n: int, stream: str):
    """A random program over a ``k``-bin accumulator and ``n``
    iterations, a factory of its arguments, and whether an index is
    out of range."""
    op = rng.choice(sorted(OPERATORS))
    elem, zero, update = OPERATORS[op]
    two = bool(rng.integers(2))
    x, v = ("a[c, j]", "vs[i, j]") if two else ("acc[c]", "vs[i]")
    src = (TWO_INDEX if two else ONE_INDEX) % {
        "t": elem.name,
        "k": k,
        "d": INNER,
        "zero": zero,
        "c": {"constant": str(int(rng.integers(k))), "uniform": f"i % {k}"}
        .get(stream, "is[i]"),
        "cell": update.format(x=x, v=v),
    }
    bins = rng.integers(0, k, (LANES, n))
    traps = stream == "out-of-range" and n > 0
    if traps:
        bins[rng.integers(LANES), rng.integers(n)] = rng.choice([-1, k, k + 7])
    shape = (LANES, n, INNER) if two else (LANES, n)
    if elem is F32:
        operands = rng.normal(size=shape).astype(np.float32)
    elif elem is BOOL:
        operands = rng.integers(0, 2, shape).astype(np.bool_)
    else:
        operands = rng.integers(-50, 50, shape).astype(np.int32)
    return (
        src,
        lambda: [
            array_value(bins.astype(np.int32), I32),
            array_value(operands, elem),
        ],
        traps,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_random_histograms_agree_with_the_interpreter_exactly(seed):
    rng = np.random.default_rng(seed)
    trapped = 0
    for row, k in enumerate(BINS):
        for col, n in enumerate(LENGTHS):
            # Each length meets all four stream kinds, one per bin count.
            stream = STREAMS[(seed + row + col) % len(STREAMS)]
            src, make_args, traps = _case(rng, k, n, stream)
            prog = parse(src)
            expected = _attempt(lambda: run_program(prog, make_args()))
            compiled = compile_program(prog)
            got = _attempt(
                lambda: compiled.execute(
                    make_args(), policy=ExecutionPolicy(executor="jit")
                )[0]
            )
            sources = jit_cache_for(compiled.host).sources()
            assert any(
                ".at(" in s for by_sig in sources.values()
                for s in by_sig.values()
            ), f"not lowered as an accumulate:\n{src}"
            if traps:
                trapped += 1
                assert isinstance(expected, Exception), src
                assert type(got) is type(expected), (src, got, expected)
                continue
            for side in (expected, got):
                if isinstance(side, Exception):
                    raise side
            (e,), (g,) = expected, got
            assert g.elem is e.elem
            assert np.array_equal(g.data, e.data, equal_nan=True), (
                src, g.data, e.data
            )
    assert trapped, "no case had a trapping index"
