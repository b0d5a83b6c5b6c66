"""Rules of the kernel lowering that must hold between its modules.

*Trap agreement.*  A fold may apply its operator out of the
interpreter's order, and a divergent ``if`` may run its arms on every
lane, only if nothing in them can trap on some lanes and not on
others, and ``_trap_free`` is what answers that — so its operator sets
must be exactly the operators whose batched lowering carries a trap
check.  For every entry of ``BINOPS``/``UNOPS``/``CMPOPS`` and every
numeric conversion the batched lowering is emitted on a bare
:class:`KernelCodegen`: its text hands the launch to the interpreter
(``raise JitFallback``) iff ``_trap_free`` calls the operator
trapping.  The same holds with the second operand uniform (its guard
is a comparison on the scalar, no reduction over lanes) and a
constant (decided at transpile time: a constant that cannot trap has
no guard at all).  The other direction holds over whole arms: an arm
of a corpus row that runs on every lane hands over on nothing but a
uniform index.

*Checks decided once.*  Over the text generated for all 16
benchmarks: no bounds check reduces over lanes, and the two kernels
the rule was written for compute their checks where the value lives.

*What the benchmarks hold.*  No launch of the 16 programs leaves the
jit at ``small``, nor of the four ``run_perf`` programs at ``perf``;
no divergent ``if`` of theirs runs its arms on their own lanes; and the
lowering, ``host.py`` aside, is the size pinned here.
"""

import pathlib
import re


import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import ast as A
from repro.core.prim import (
    BINOPS, BOOL, CMPOPS, F32, FLOAT_TYPES, I32, INT_TYPES, UNOPS,
)
from repro.core.types import Prim
from repro.frontend import parse
from repro.pipeline import compile_program
from repro.runtime import ExecutionPolicy
from repro.vm.jit import codegen, jit_cache_for
from repro.vm.jit.codegen.core import KernelCodegen
from repro.vm.jit.codegen.elementwise import _trap_free
from repro.vm.jit.codegen.values import JVal, _Scope
from repro.vm.jit.engine import JitRunner

from .test_codegen_corpus import (
    _COMPACT, _PER_LANE, _RANGE, BY_NAME, ROWS, benchmark_sources,
    enclosing_loops, outcome_of,
)
from .test_golden_pycode import _generated_sources

X, Y = A.Var("x"), A.Var("y")
NUMERIC = INT_TYPES + FLOAT_TYPES

OPERATORS = (
    [A.BinOpExp(op, X, Y, t) for op in BINOPS for t in (I32, F32, BOOL)]
    + [A.CmpOpExp(op, X, Y, t) for op in CMPOPS for t in (I32, F32)]
    + [A.UnOpExp(op, X, t) for op in UNOPS for t in (I32, F32)]
    + [A.ConvOpExp(to, X, frm) for frm in NUMERIC for to in NUMERIC]
)

#: Constant second operands per type: ones no operator traps on, and
#: zero, a negative and a too-wide shift count.
CONSTANTS = {I32: (2, 0, -1, 40), F32: (2.0, 0.5, 0.0), BOOL: (True, False)}

#: Every binary operator and comparison with its second operand uniform
#: (``y`` a scalar), and with it each constant of its type.
SECOND_OPERANDS = [
    (e, "S") for e in OPERATORS if isinstance(e, (A.BinOpExp, A.CmpOpExp))
] + [
    (A.BinOpExp(e.op, X, A.Const(c, e.t), e.t), "B")
    for e in OPERATORS if isinstance(e, A.BinOpExp)
    for c in CONSTANTS[e.t]
]


def _id(e) -> str:
    if isinstance(e, A.ConvOpExp):
        return f"{e.from_t}-to-{e.to_t}"
    return f"{e.op}-{e.t}"


def _second_id(case) -> str:
    e, y_kind = case
    if isinstance(e.y, A.Const):
        return f"{_id(e)}-constant-{e.y.value}"
    return f"{_id(e)}-uniform"


def _batched_lowering(e, y_kind: str = "B") -> str:
    """The text the lowering emits for ``e`` over lane operands (``y``
    of kind ``y_kind``)."""
    operand_t = e.from_t if isinstance(e, A.ConvOpExp) else e.t
    cg = KernelCodegen(kernel=None, sig=())
    scope = _Scope()
    scope.bind("x", JVal("B", operand_t, 0, "x"))
    scope.bind("y", JVal(y_kind, operand_t, 0, "y"))
    with cg.batch("_lanes"):
        cg.gen_exp(e, scope)
    return "\n".join(text for _indent, text in cg.em.lines)


def _operator(e) -> A.Lambda:
    """``e`` as the body of a fold operator."""
    result_t = Prim(e.to_t if isinstance(e, A.ConvOpExp) else e.t)
    operand_t = Prim(e.from_t if isinstance(e, A.ConvOpExp) else e.t)
    body = A.Body((A.Binding((A.Param("r", result_t),), e),), (A.Var("r"),))
    params = (A.Param("x", operand_t), A.Param("y", operand_t))
    return A.Lambda(params, body, (result_t,))


@pytest.mark.parametrize("e", OPERATORS, ids=_id)
def test_trap_free_agrees_with_the_checks_the_lowering_emits(e):
    traps = "raise JitFallback" in _batched_lowering(e)
    assert traps == (not _trap_free(_operator(e).body)), (
        f"{_id(e)}: the batched lowering "
        f"{'has a' if traps else 'has no'} trap check, but _trap_free "
        f"says the operator {'cannot' if traps else 'can'} trap"
    )


@pytest.mark.parametrize("case", SECOND_OPERANDS, ids=_second_id)
def test_trap_free_agrees_on_uniform_and_constant_operands(case):
    e, y_kind = case
    text = _batched_lowering(e, y_kind=y_kind)
    trap_free = _trap_free(_operator(e).body)
    assert ("raise JitFallback" in text) == (not trap_free), text
    if e.op == "pow" and e.t.is_float:
        return  # its trap reads both operands: per lane, as batched
    if y_kind == "S":
        # The scalar is compared as it is, never reduced over lanes.
        assert ".any()" not in text, text
    else:
        # Decided now: no run-time condition guards a constant — the
        # hand-over, if any, is unconditional.
        assert "\nif (" not in "\n" + text, text


def test_an_arm_run_on_every_lane_hands_over_on_nothing_but_a_uniform_index():
    """Every arm ``_trap_free`` lets run on every lane, across the
    corpus, emits no hand-over but a uniform index check: the same on
    every lane, so the lanes that do not take the arm never decide it
    alone."""
    arms = [text for row in ROWS for text in outcome_of(row).speculated]
    assert any("uniform index out of bounds" in text for text in arms)
    for text in arms:
        reasons = set(re.findall(r'raise JitFallback\("([^"]*)"\)', text))
        assert reasons <= {"uniform index out of bounds"}, text


def test_hoisted_constants_are_read_only():
    """A constant a batched operator reads is one module-level 0-d
    array shared by every launch: nothing may write to it."""
    row = BY_NAME["constant-operands"]
    compiled = compile_program(parse(row.src))
    compiled.execute(row.args(), policy=ExecutionPolicy(executor="jit"))
    arrays = []
    for by_sig in jit_cache_for(compiled.host).sources().values():
        for src in by_sig.values():
            namespace = {}
            exec(compile(src, "<generated>", "exec"), namespace)
            arrays += [
                (name, v) for name, v in namespace.items()
                if isinstance(v, np.ndarray)
            ]
    assert arrays
    for name, v in arrays:
        assert v.ndim == 0 and not v.flags.writeable, name
        with pytest.raises(ValueError):
            v[()] = 0


def _loop_body(text: str, marker: str) -> str:
    """The body of the innermost ``for`` enclosing the first line that
    contains ``marker``."""
    lines = text.splitlines()
    at = next(i for i, ln in enumerate(lines) if marker in ln)
    indent = len(lines[at]) - len(lines[at].lstrip())
    head = next(
        i for i in range(at - 1, -1, -1)
        if lines[i].lstrip().startswith("for ")
        and len(lines[i]) - len(lines[i].lstrip()) < indent
    )
    depth = len(lines[head]) - len(lines[head].lstrip())
    body = []
    for ln in lines[head + 1:]:
        if ln.strip() and len(ln) - len(ln.lstrip()) <= depth:
            break
        body.append(ln)
    return "\n".join(body)


def test_every_benchmark_checks_its_indices_once():
    texts = {name: _generated_sources(name) for name in BENCHMARKS.names()}
    for name, text in texts.items():
        assert _PER_LANE not in text, f"{name}: a per-lane bounds check"
    # LavaMD's neighbour vector is ranged once per outer step, before
    # the inner loop — a summing loop, run as blocks of its iteration
    # space — that gathers rows with it four times per block.
    lava = texts["LavaMD"]
    assert enclosing_loops(lava, "for _i") == [0]
    assert enclosing_loops(lava, "for _lo") == [1]
    assert sorted(set(enclosing_loops(lava, _RANGE))) == [0, 1]
    # OptionPricing's bit loop guards a shift count that is the loop
    # counter and a modulus by 2: nothing is reduced over lanes.
    bits = _loop_body(texts["OptionPricing"], "np.right_shift(")
    assert ").any()" not in bits and "astype(bool)" not in bits, bits


@pytest.mark.parametrize("size", ["small", "perf"])
def test_no_benchmark_launch_leaves_the_jit(size, monkeypatch):
    """At ``small`` for all 16 programs and at ``perf`` for the four the
    e2e harness's ``run_perf`` runs, every launch runs transpiled."""
    names = BENCHMARKS.names() if size == "small" else (
        "K-means", "NN", "LavaMD", "Mandelbrot")
    handed = []
    monkeypatch.setattr(
        JitRunner, "_note_fallback",
        lambda self, kernel, reason: handed.append((kernel.name, reason)),
    )
    for name in names:
        spec = BENCHMARKS[name]
        args = getattr(spec, f"{size}_args")(np.random.default_rng(0))
        compile_program(spec.program()).execute(
            args, policy=ExecutionPolicy(executor="jit")
        )
        assert not handed, (name, handed)


@pytest.mark.parametrize("name", list(BENCHMARKS.names()))
def test_no_benchmark_runs_an_arm_on_its_own_lanes(name):
    """The divergent ``if``s of the 16 programs (CFD, K-means, LavaMD,
    OptionPricing) have arms that cannot trap on some lanes only: they
    run on every lane and merge with ``np.where``."""
    assert _COMPACT not in benchmark_sources(name)


#: Lines of the kernel lowering, ``vm/jit/codegen/`` without ``host.py``.
#: A change that moves it updates the pin and says why in CHANGES.md.
CODEGEN_LINES = 2994


def test_the_kernel_lowering_is_the_size_it_is_pinned_at():
    package = pathlib.Path(codegen.__file__).parent
    lines = sum(
        len(path.read_text().splitlines())
        for path in package.glob("*.py") if path.name != "host.py"
    )
    assert lines == CODEGEN_LINES, (
        f"vm/jit/codegen/ without host.py is {lines} lines, pinned at "
        f"{CODEGEN_LINES}"
    )
