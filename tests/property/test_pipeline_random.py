"""Property-based end-to-end testing: hypothesis generates random
(well-typed) programs over a vector input — chains of maps, optional
scans/reduces, optional nesting into a matrix — and the full compiler
pipeline must produce the same results as the reference interpreter,
with every optimisation enabled or disabled.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProgBuilder, array, array_value, values_equal
from repro.core.prim import F32, I32
from repro.core.types import Prim
from repro.checker import check_program
from repro.interp import run_program
from repro.pipeline import CompilerOptions, compile_program

# -- program generator -------------------------------------------------------

_SCALAR_OPS = ["add", "sub", "mul", "min", "max"]


@st.composite
def _map_stage(draw):
    op = draw(st.sampled_from(_SCALAR_OPS))
    const = draw(st.integers(-3, 3))
    return ("map", op, const)


@st.composite
def _terminal(draw):
    kind = draw(st.sampled_from(["none", "reduce", "scan"]))
    op = draw(st.sampled_from(["add", "min", "max"]))
    return (kind, op)


@st.composite
def programs(draw):
    """A random pipeline over xs: [n]i32: 1-4 map stages, then
    optionally a reduce or scan."""
    stages = draw(st.lists(_map_stage(), min_size=1, max_size=4))
    terminal = draw(_terminal())
    return stages, terminal


_NEUTRAL = {"add": 0, "min": 2**31 - 1, "max": -(2**31)}


def build_program(spec):
    stages, (terminal, top) = spec
    pb = ProgBuilder()
    with pb.function("main") as fb:
        xs = fb.param("xs", array(I32, "n"))
        cur = xs
        for _, op, const in stages:
            with fb.lam([("x", Prim(I32))]) as lb:
                (x,) = lb.params
                lb.ret(lb.binop(op, x, lb.i32(const)))
            cur = fb.map(lb.fn, cur)
        if terminal != "none":
            with fb.lam([("a", Prim(I32)), ("b", Prim(I32))]) as rb:
                a, b = rb.params
                rb.ret(rb.binop(top, a, b))
            ne = fb.i32(_NEUTRAL[top])
            if terminal == "reduce":
                cur = fb.reduce(rb.fn, [ne], cur, comm=True)
            else:
                cur = fb.scan(rb.fn, [ne], cur)
        fb.ret(cur)
    return pb.build()


def reference_model(spec, data):
    stages, (terminal, top) = spec
    out = data.astype(np.int64)
    for _, op, const in stages:
        if op == "add":
            out = out + const
        elif op == "sub":
            out = out - const
        elif op == "mul":
            out = out * const
        elif op == "min":
            out = np.minimum(out, const)
        else:
            out = np.maximum(out, const)
    fns = {"add": np.add, "min": np.minimum, "max": np.maximum}
    if terminal == "reduce":
        out = fns[top].reduce(out, initial=_NEUTRAL[top])
    elif terminal == "scan":
        out = fns[top].accumulate(
            np.concatenate([[_NEUTRAL[top]], out])
        )[1:]
    return out


# -- the properties ---------------------------------------------------------


@given(
    programs(),
    st.lists(st.integers(-100, 100), min_size=1, max_size=20),
)
@settings(max_examples=40, deadline=None)
def test_pipeline_matches_interpreter_and_numpy(spec, data):
    prog = build_program(spec)
    check_program(prog)
    arr = array_value(np.array(data, dtype=np.int32), I32)

    expected = run_program(prog, [arr])
    compiled = compile_program(prog)
    got, report = compiled.run([arr])

    for e, g in zip(expected, got):
        assert values_equal(e, g)
    # (a fully simplified-away program may cost nothing at all)
    assert report.total_us >= 0

    # Against the independent numpy model (modulo i32 wraparound:
    # inputs/constants are small enough not to overflow here).
    from repro.core import to_python

    model = reference_model(spec, np.array(data, dtype=np.int32))
    out = np.asarray(to_python(got[0]), dtype=np.int64)
    assert np.array_equal(out.ravel(),
                          np.asarray(model, dtype=np.int64).ravel())


@given(programs(), st.lists(st.integers(-50, 50), min_size=1, max_size=12))
@settings(max_examples=15, deadline=None)
def test_all_ablations_agree(spec, data):
    prog = build_program(spec)
    arr = array_value(np.array(data, dtype=np.int32), I32)
    expected = run_program(prog, [arr])
    for options in (
        CompilerOptions(disabled_passes=("fusion",)),
        CompilerOptions(distribute=False),
        CompilerOptions(disabled_passes=("coalescing", "tiling")),
    ):
        got, _ = compile_program(prog, options).run([arr])
        for e, g in zip(expected, got):
            assert values_equal(e, g)


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=16),
       st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_nested_rowsum_random(data, width):
    """Random matrices through a map-of-reduce (segmented reduction)."""
    rows = [data[i:i + width] for i in range(0, len(data), width)]
    rows = [r + [0] * (width - len(r)) for r in rows]
    mat = np.array(rows, dtype=np.int32)

    pb = ProgBuilder()
    with pb.function("main") as fb:
        m = fb.param("m", array(I32, "r", "c"))
        with fb.lam([("row", array(I32, "c"))]) as ob:
            (row,) = ob.params
            with ob.lam([("a", Prim(I32)), ("b", Prim(I32))]) as rb:
                a, b = rb.params
                rb.ret(rb.add(a, b))
            ob.ret(ob.reduce(rb.fn, [ob.i32(0)], row))
        sums = fb.map(ob.fn, m)
        fb.ret(sums)
    prog = pb.build()

    arr = array_value(mat, I32)
    got, _ = compile_program(prog).run([arr])
    assert np.array_equal(got[0].data, mat.sum(axis=1, dtype=np.int32))


@given(programs(), st.lists(st.integers(-40, 40), min_size=1, max_size=10))
@settings(max_examples=20, deadline=None)
def test_pretty_parse_roundtrip_random(spec, data):
    """Randomly generated programs survive pretty-print → re-parse
    with identical semantics."""
    from repro.core import pretty_prog
    from repro.frontend import parse

    prog = build_program(spec)
    reparsed = parse(pretty_prog(prog))
    check_program(reparsed)
    arr = array_value(np.array(data, dtype=np.int32), I32)
    a = run_program(prog, [arr])
    b = run_program(reparsed, [arr])
    for x, y in zip(a, b):
        assert values_equal(x, y)
