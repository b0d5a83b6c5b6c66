"""Rules of the kernel lowering that must hold between its modules.

*Trap agreement.*  A fold may apply its operator out of the
interpreter's order only if the operator cannot trap, and
``_trap_free`` is what answers that — so its operator sets must be
exactly the operators whose batched lowering carries a trap check.
For every entry of ``BINOPS``/``UNOPS``/``CMPOPS`` and every numeric
conversion the batched lowering is emitted on a bare
:class:`KernelCodegen`: outside speculation its text hands the launch
to the interpreter (``raise JitFallback``) iff ``_trap_free`` calls
the operator trapping; in speculative position it never does (the
trapping lanes are substituted, their results discarded).
"""

import pytest

from repro.core import ast as A
from repro.core.prim import (
    BINOPS, BOOL, CMPOPS, F32, FLOAT_TYPES, I32, INT_TYPES, UNOPS,
)
from repro.core.types import Prim
from repro.vm.jit.codegen.core import KernelCodegen
from repro.vm.jit.codegen.elementwise import _trap_free
from repro.vm.jit.codegen.values import JVal, _Scope

X, Y = A.Var("x"), A.Var("y")
NUMERIC = INT_TYPES + FLOAT_TYPES

OPERATORS = (
    [A.BinOpExp(op, X, Y, t) for op in BINOPS for t in (I32, F32, BOOL)]
    + [A.CmpOpExp(op, X, Y, t) for op in CMPOPS for t in (I32, F32)]
    + [A.UnOpExp(op, X, t) for op in UNOPS for t in (I32, F32)]
    + [A.ConvOpExp(to, X, frm) for frm in NUMERIC for to in NUMERIC]
)


def _id(e) -> str:
    if isinstance(e, A.ConvOpExp):
        return f"{e.from_t}-to-{e.to_t}"
    return f"{e.op}-{e.t}"


def _batched_lowering(e, spec: bool) -> str:
    """The text the lowering emits for ``e`` over lane operands."""
    operand_t = e.from_t if isinstance(e, A.ConvOpExp) else e.t
    cg = KernelCodegen(kernel=None, sig=())
    scope = _Scope()
    for name in ("x", "y"):
        scope.bind(name, JVal("B", operand_t, 0, name))
    with cg.batch("_lanes"):
        cg.gen_exp(e, scope, spec)
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
    traps = "raise JitFallback" in _batched_lowering(e, spec=False)
    assert traps == (not _trap_free(_operator(e))), (
        f"{_id(e)}: the batched lowering "
        f"{'has a' if traps else 'has no'} trap check, but _trap_free "
        f"says the operator {'cannot' if traps else 'can'} trap"
    )
    assert "raise JitFallback" not in _batched_lowering(e, spec=True), (
        f"{_id(e)}: the speculative lowering hands the launch over"
    )
