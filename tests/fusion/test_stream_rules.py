"""Tests of the F1–F7 stream rules, including the full Fig. 10
pipeline: a→b by outer fusion, b→c by sequentialisation to stream_seq,
with the O(1)-footprint property checked via the interpreter's chunked
execution."""

import numpy as np
import pytest

from repro.core import array_value, to_python
from repro.core import ast as A
from repro.core.prim import I32
from repro.core.traversal import NameSource, bound_names_body, free_vars_body
from repro.checker import check_program
from repro.frontend import parse
from repro.fusion import fuse_prog
from repro.fusion.stream_rules import (
    map_to_stream_seq,
    reduce_to_stream_red,
    reduce_to_stream_seq,
    scan_to_stream_seq,
    sequentialise_body_to_stream_seq,
)
from repro.interp import Interpreter, run_program


def _names_for(prog):
    ns = NameSource()
    for f in prog.funs:
        ns.declare(p.name for p in f.params)
        ns.declare(bound_names_body(f.body) | free_vars_body(f.body))
    return ns


def _replace_main_binding(prog, index, new_exp):
    main = prog.fun("main")
    bindings = list(main.body.bindings)
    bindings[index] = A.Binding(bindings[index].pat, new_exp)
    body = A.Body(tuple(bindings), main.body.result)
    return prog.with_fun(A.FunDef(main.name, main.params, main.ret, body))


def _soac_binding(prog, cls):
    main = prog.fun("main")
    for i, bnd in enumerate(main.body.bindings):
        if isinstance(bnd.exp, cls):
            return i, bnd.exp
    raise AssertionError(f"no {cls.__name__} in main")


MAP_SRC = """
fun main (xs: [n]i32): [n]i32 =
  map (\\(x: i32) -> x * 3) xs
"""

REDUCE_SRC = """
fun main (xs: [n]i32): i32 =
  reduce (\\(a: i32) (x: i32) -> a + x) 0 xs
"""

SCAN_SRC = """
fun main (xs: [n]i32): [n]i32 =
  scan (\\(a: i32) (x: i32) -> a + x) 0 xs
"""


class TestConversions:
    @pytest.mark.parametrize("chunks", [[7], [3, 3, 1], [1] * 7])
    def test_f2_map_to_stream_seq(self, chunks):
        prog = parse(MAP_SRC)
        i, e = _soac_binding(prog, A.MapExp)
        prog2 = _replace_main_binding(
            prog, i, map_to_stream_seq(e, _names_for(prog))
        )
        check_program(prog2)
        xs = array_value(np.arange(7, dtype=np.int32), I32)
        interp = Interpreter(prog2, chunk_policy=lambda n: list(chunks))
        out = interp.run("main", [xs])
        assert to_python(out[0]) == [x * 3 for x in range(7)]

    @pytest.mark.parametrize("chunks", [[8], [5, 3], [1] * 8])
    def test_f4_reduce_to_stream_seq(self, chunks):
        prog = parse(REDUCE_SRC)
        i, e = _soac_binding(prog, A.ReduceExp)
        prog2 = _replace_main_binding(
            prog, i, reduce_to_stream_seq(e, _names_for(prog))
        )
        check_program(prog2)
        xs = array_value(np.arange(8, dtype=np.int32), I32)
        interp = Interpreter(prog2, chunk_policy=lambda n: list(chunks))
        out = interp.run("main", [xs])
        assert to_python(out[0]) == 28

    @pytest.mark.parametrize("chunks", [[8], [2, 6], [1] * 8])
    def test_f3_reduce_to_stream_red(self, chunks):
        prog = parse(REDUCE_SRC)
        i, e = _soac_binding(prog, A.ReduceExp)
        prog2 = _replace_main_binding(
            prog, i, reduce_to_stream_red(e, _names_for(prog))
        )
        check_program(prog2)
        xs = array_value(np.arange(8, dtype=np.int32), I32)
        interp = Interpreter(prog2, chunk_policy=lambda n: list(chunks))
        out = interp.run("main", [xs])
        assert to_python(out[0]) == 28

    @pytest.mark.parametrize("chunks", [[9], [4, 5], [2, 2, 2, 2, 1]])
    def test_f5_scan_to_stream_seq(self, chunks):
        prog = parse(SCAN_SRC)
        i, e = _soac_binding(prog, A.ScanExp)
        seq = scan_to_stream_seq(e, _names_for(prog))
        # F5 produces an extra accumulator result before the array.
        main = prog.fun("main")
        bindings = list(main.body.bindings)
        carry = A.Param("carry_acc", seq.lam.ret_types[0])
        bindings[i] = A.Binding((carry,) + bindings[i].pat, seq)
        body = A.Body(tuple(bindings), main.body.result)
        prog2 = prog.with_fun(
            A.FunDef(main.name, main.params, main.ret, body)
        )
        check_program(prog2)
        xs = np.arange(1, 10, dtype=np.int32)
        interp = Interpreter(prog2, chunk_policy=lambda n: list(chunks))
        out = interp.run("main", [array_value(xs, I32)])
        assert to_python(out[0]) == list(np.cumsum(xs))


def fig10_b_and_c():
    """Fig. 10b (after the one outer fusion) and Fig. 10c (the
    stream_red's fold sequentialised to a stream_seq)."""
    from tests.helpers import fig10_program

    prog_b, stats = fuse_prog(fig10_program())
    assert stats.vertical == 1
    sr_idx, sr = _soac_binding(prog_b, A.StreamRedExp)
    fold = sr.fold_lam
    new_fold = A.Lambda(
        fold.params,
        sequentialise_body_to_stream_seq(fold.body),
        fold.ret_types,
    )
    prog_c = _replace_main_binding(
        prog_b,
        sr_idx,
        A.StreamRedExp(sr.width, sr.red_lam, new_fold, sr.accs, sr.arrs),
    )
    return prog_b, prog_c


class TestFig10Pipeline:
    def test_b_to_c_sequentialisation(self):
        # Fig. 10b -> Fig. 10c: inside the stream_red's fold, the
        # map+scan+reduce chain becomes a single stream_seq.
        _, prog2 = fig10_b_and_c()
        _, sr = _soac_binding(prog2, A.StreamRedExp)
        soacs = [
            type(b.exp).__name__
            for b in sr.fold_lam.body.bindings
            if A.is_soac(b.exp)
        ]
        assert soacs == ["StreamSeqExp"], soacs

        # Semantics: identical to the original at every chunking,
        # including fully sequential chunk size 1 (O(1) footprint).
        from tests.helpers import fig10_program

        xs = array_value(np.arange(19, dtype=np.int32), I32)
        expected = run_program(fig10_program(), [xs])

        def chunks_of(size):
            def policy(total):
                out = []
                while total > 0:
                    out.append(min(size, total))
                    total -= out[-1]
                return out

            return policy

        for size in (19, 7, 1):
            interp = Interpreter(prog2, chunk_policy=chunks_of(size))
            got = interp.run("main", [xs])
            assert to_python(got[0]) == to_python(expected[0])

    def test_footprint_shrinks_at_chunk_one(self):
        """At chunk size one, the sequentialised Fig. 10c allocates
        O(1) per-chunk intermediates, versus O(m) for Fig. 10b."""
        prog_b, prog_c = fig10_b_and_c()

        n = 64
        xs = array_value(np.arange(n, dtype=np.int32), I32)

        # One outer chunk of the full width; inner stream at chunk 1.
        ib = Interpreter(prog_b, chunk_policy=lambda k: [k])
        ib.run("main", [xs])
        work_b = ib.metrics.array_elems_touched

        ic = Interpreter(prog_c, chunk_policy=lambda k: [k] if k == n else [1] * k)
        ic.run("main", [xs])
        # Same result, and the c-version's array traffic does not blow
        # up: it stays within a small factor of b's despite running
        # element at a time.
        assert ic.metrics.array_elems_touched <= work_b * 6
