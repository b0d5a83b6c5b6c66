"""Seeded differential test of the range facts.

A batched index is checked on its range — two ints computed once per
value, before a loop that does not bind it, inside the loop that
carries it (``arrays.index_range``, ``control.preheader``).  Random
index vectors — in range, out by one at either end, or empty — are
used in a ``for`` of 0, 1 or several trips, invariant (the range
computed before the loop) or carried through its state (recomputed per
step), directly or in the arm of a divergent ``if`` whose lanes with an
out-of-range index are the ones that discard it (the clamp applies, or
is skipped when every lane is in range).  Jit and interpreter must
agree exactly, and an out-of-range index that a running loop reads
must raise the same error class from both — handed over by the jit's
own bounds check, never by an exception it did not expect.

Seeds come from ``CHAOS_SEEDS`` (default ``0,1,2``; CI's ``chaos`` job
runs three more).
"""

import itertools
import os

import numpy as np
import pytest

from repro.core.prim import I32
from repro.core.values import ScalarValue, array_value
from repro.frontend import parse
from repro.interp import run_program
from repro.pipeline import compile_program
from repro.runtime import ExecutionPolicy
from repro.vm.jit import jit_cache_for
from repro.vm.jit.engine import JitEngine

from .test_codegen_corpus import _RANGE, PIPELINES, _attempt

SEEDS = [
    int(s) for s in os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")
]
TRIPS = (0, 1, 5)
VECTORS = ("in-range", "one-below", "one-above", "empty")
ROWS, COLS, LANES = 4, 3, 6

PROGRAM = r"""
fun main (is: [n]i32) (yss: [m][k]i32) (t: i32): [n]i32 =
  map (\(i: i32) -> %s) is
"""

#: The loop over an index it does not bind, and over one it carries
#: (``{step}`` moves it, modulo the rows, after the first step).
LOOPS = {
    "invariant": "loop (s = 0) for j < t do s + yss[i, j % k] * (j + 1)",
    "carried": "let (c, s) = loop (c = i, s = 0) for j < t do "
               "{(c + {step}) % m, s + yss[c, j % k] * (j + 1)} in s",
}


def _indices(rng, vector: str) -> np.ndarray:
    if vector == "empty":
        return np.zeros(0, dtype=np.int32)
    idx = rng.integers(0, ROWS, LANES)
    if vector != "in-range":
        idx[rng.integers(LANES)] = -1 if vector == "one-below" else ROWS
    return idx.astype(np.int32)


def _case(rng, use: str, guarded: bool, trips: int, vector: str):
    body = LOOPS[use].replace("{step}", str(int(rng.integers(3))))
    if guarded:
        body = f"if i >= 0 && i < m then {body} else 0 - 1"
    table = rng.integers(-50, 50, (ROWS, COLS)).astype(np.int32)
    idx = _indices(rng, vector)
    return PROGRAM % body, lambda: [
        array_value(idx.copy(), I32),
        array_value(table.copy(), I32),
        ScalarValue(trips, I32),
    ]


#: Why a launch may leave the jit: an empty batch, or the bounds check.
HAND_OVERS = {"map without vectorizable extent", "out-of-bounds gather in batch"}


@pytest.mark.parametrize("seed", SEEDS)
def test_random_index_ranges_agree_with_the_interpreter_exactly(
    seed, monkeypatch
):
    reasons = []
    monkeypatch.setattr(
        JitEngine, "_note_fallback",
        lambda self, kernel, reason: reasons.append(reason),
    )
    rng = np.random.default_rng(seed)
    trapped = 0
    cases = itertools.product(LOOPS, (False, True), TRIPS)
    for k, (use, guarded, trips) in enumerate(cases):
        # Each loop shape meets all four index vectors across the trips.
        vector = VECTORS[(seed + k) % len(VECTORS)]
        src, make_args = _case(rng, use, guarded, trips, vector)
        prog = parse(src)
        reasons.clear()
        expected = _attempt(lambda: run_program(prog, make_args()))
        compiled = compile_program(prog, PIPELINES["nest-intact"])
        got = _attempt(
            lambda: compiled.execute(
                make_args(), policy=ExecutionPolicy(executor="jit")
            )[0]
        )
        sources = jit_cache_for(compiled.host).sources()
        assert any(
            _RANGE in s for by_sig in sources.values() for s in by_sig.values()
        ), f"no index range computed:\n{src}"
        assert set(reasons) <= HAND_OVERS, (src, vector, reasons)
        if isinstance(expected, Exception):
            trapped += 1
            assert type(got) is type(expected), (src, vector, got, expected)
            continue
        if isinstance(got, Exception):
            raise got
        (e,), (g,) = expected, got
        assert np.array_equal(g.data, e.data), (src, vector, g.data, e.data)
        assert not reasons or vector == "empty", (src, vector, reasons)
    assert trapped, "no case read an index out of range"
