"""The simplifier's fixpoint converges, and early exit changes nothing.

Each sub-pass reports "changed" exactly when it returns a new object,
the engine stops after the first quiet round, and the result equals
what running every sub-pass for the full ``_MAX_ROUNDS`` produces.

(Simplifying the 16 benchmarks draws no fresh names — no static ``if``
is spliced — so results of separate runs can be compared with ``==``.)
"""

import functools
import threading

import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import ast as A
from repro.flatten import flatten_prog
from repro.frontend import parse
from repro.fusion import fuse_prog
from repro.obs import Tracer, tracing
from repro.pipeline import compile_program
from repro.simplify import (
    cse_body,
    dce_body,
    hoist_body,
    inline_prog,
    simplify_body_once,
    simplify_prog,
)
from repro.simplify import engine

SUB_PASSES = [simplify_body_once, cse_body, hoist_body, dce_body]

#: The pipeline's three simplifier invocations: (input stage, hoisting).
SITES = [("inlined", True), ("fused", True), ("flattened", False)]

@functools.lru_cache(maxsize=None)
def site_inputs(name):
    """The programs the three invocations see for one benchmark."""
    inlined = inline_prog(BENCHMARKS[name].program())
    fused, _ = fuse_prog(simplify_prog(inlined))
    flattened = flatten_prog(simplify_prog(fused))
    return {"inlined": inlined, "fused": fused, "flattened": flattened}


def reference_simplify(prog, hoisting):
    """What the engine computed before it could stop early: every
    sub-pass, all ``_MAX_ROUNDS`` rounds, no exit test, no shared memo."""
    funs = []
    for fun in prog.funs:
        body = fun.body
        for _ in range(engine._MAX_ROUNDS):
            body, _ = simplify_body_once(body)
            body, _ = cse_body(body)
            if hoisting:
                body, _ = hoist_body(body)
            body, _ = dce_body(body)
        funs.append(A.FunDef(fun.name, fun.params, fun.ret, body))
    return A.Prog(tuple(funs))


ALL_SITES = [
    pytest.param(name, stage, hoisting, id=f"{name}-{stage}")
    for name in BENCHMARKS.names()
    for stage, hoisting in SITES
]


@pytest.mark.parametrize("name,stage,hoisting", ALL_SITES)
def test_converges_quickly_to_the_full_length_result(name, stage, hoisting):
    prog = site_inputs(name)[stage]
    rounds = []
    out = simplify_prog(prog, hoisting=hoisting, rounds=rounds)
    assert len(rounds) == len(prog.funs)
    assert max(rounds) <= 4 < engine._MAX_ROUNDS
    assert out == reference_simplify(prog, hoisting)
    # A fixpoint is handed back as the very object that came in.
    again = []
    assert simplify_prog(out, hoisting=hoisting, rounds=again) is out
    assert set(again) == {1}


def engine_steps(prog, hoisting):
    """Every ``(sub_pass, body_in, body_out, changed)`` step the engine
    takes on ``prog`` — bodies that still have work and bodies that
    have none, for each sub-pass."""
    for fun in prog.funs:
        body = fun.body
        for _ in range(engine._MAX_ROUNDS):
            before = body
            for sub_pass in SUB_PASSES:
                if sub_pass is hoist_body and not hoisting:
                    continue
                out, changed = sub_pass(body)
                yield sub_pass, body, out, changed
                body = out
            if body is before:
                break


#: The benchmarks leave no dead code for ``dce_body`` (rules and CSE
#: drop what they replace), so one program brings its own, at every depth.
DEAD_CODE = """
    fun main (n: i32) (xs: [n]i32): [n]i32 =
      let dead = n * n
      in map (\\(x: i32) ->
                let unused = x * x
                in loop (a = x) for i < n do
                     let ignored = a * i in a + i)
             xs
"""


def test_sub_passes_report_change_iff_they_return_a_new_object():
    cases = [
        (f"{name}-{stage}", site_inputs(name)[stage], hoisting)
        for name in BENCHMARKS.names()
        for stage, hoisting in SITES
    ]
    cases.append(("dead-code", parse(DEAD_CODE), True))
    outcomes = {sub_pass: set() for sub_pass in SUB_PASSES}
    for case, prog, hoisting in cases:
        for sub_pass, body, out, changed in engine_steps(prog, hoisting):
            assert changed == (out is not body), (case, sub_pass)
            # ... and a new object is never a mere copy.
            assert changed == (out != body), (case, sub_pass)
            outcomes[sub_pass].add(changed)
    # The suite exercises both answers of every sub-pass.
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def test_nested_scopes_keep_their_identity_too():
    prog = simplify_prog(parse("""
        fun main (n: i32) (xs: [n]i32): [n]i32 =
          map (\\(x: i32) ->
                 loop (a = x) for i < n do if a > i then a + i else a)
              xs
    """))
    body = prog.fun("main").body
    assert any(isinstance(b.exp, A.MapExp) for b in body.bindings)
    for sub_pass in SUB_PASSES:
        out, changed = sub_pass(body)
        assert out is body and changed is False


def test_concurrent_simplification_matches_single_threaded():
    """Two threads simplifying different programs share nothing: the
    free-variable memo belongs to one ``simplify_prog`` call."""
    jobs = [
        (site_inputs(name)[stage], hoisting)
        for name in ("K-means", "LocVolCalib", "SRAD", "Fluid")
        for stage, hoisting in SITES
    ]
    expected = [simplify_prog(p, hoisting=h) for p, h in jobs]
    results = {}
    start = threading.Barrier(2)

    def work(tid, order):
        start.wait(timeout=30)
        for _ in range(3):
            results[tid] = [
                simplify_prog(jobs[i][0], hoisting=jobs[i][1]) for i in order
            ]

    forward = list(range(len(jobs)))
    threads = [
        threading.Thread(target=work, args=(0, forward)),
        threading.Thread(target=work, args=(1, forward[::-1])),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert results[0] == expected
    assert results[1] == expected[::-1]


def test_rounds_are_recorded_on_every_simplify_span():
    tracer = Tracer()
    with tracing(tracer):
        compile_program(BENCHMARKS["SRAD"].program(), artifact_cache=None)
    for site in ("simplify", "post-fusion-simplify", "post-flatten-simplify"):
        (span,) = tracer.find(f"pass:{site}")
        assert 1 <= span.attrs["simplify_rounds"] <= 4


def test_hitting_the_round_limit_is_logged(monkeypatch):
    # A sub-pass that always reports work keeps the engine from ever
    # seeing a quiet round.
    def restless(body):
        return A.Body(body.bindings, body.result), True

    monkeypatch.setattr(engine, "cse_body", restless)
    prog = parse("fun main (x: i32): i32 = x + 1")
    rounds = []
    tracer = Tracer()
    with tracing(tracer):  # log events are mirrored as trace instants
        simplify_prog(prog, rounds=rounds)
    assert rounds == [engine._MAX_ROUNDS]
    (event,) = tracer.find("log:no-fixpoint")
    assert event.attrs["level"] == "info"
    assert event.attrs["rounds"] == engine._MAX_ROUNDS
