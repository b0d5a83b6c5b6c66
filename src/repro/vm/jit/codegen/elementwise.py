"""Scalar operators — uniform and batched — and the trap guard.

A uniform operand pair calls the interpreter's own ``eval_*``; a
batched one emits ufuncs over the lanes.  Every batched operator that
can trap hands the launch to the interpreter where it would, and a
trap site on one operand is guarded as what that operand is
(:func:`guarded_operand`): per lane, by a scalar comparison, or — a
constant — not at run time at all.  Which bodies have no trap site
that can fire on some lanes only is what :func:`_trap_free` answers,
for the folds that want to apply an operator out of order and for the
divergent ``if`` that wants to run its arms on every lane
(``tests/vm/test_codegen_rules.py`` holds the two to each other).
"""

from __future__ import annotations

from typing import AbstractSet, Callable, NamedTuple, Optional

import numpy as np

from ....core import ast as A
from ....core.prim import BINOPS, BOOL, PrimType
from .values import JitUnsupported, JVal, _Scope

_NP_CMP_SRC = {
    "eq": "np.equal",
    "neq": "np.not_equal",
    "lt": "np.less",
    "le": "np.less_equal",
    "gt": "np.greater",
    "ge": "np.greater_equal",
}

#: Binary operators that are one ufunc call, no trap.
_NP_BIN_SRC = {
    "min": "np.minimum",
    "max": "np.maximum",
    "xor": "np.bitwise_xor",
}

_NP_UN_SRC = {
    "neg": "np.negative",
    "not": "np.logical_not",
    "abs": "np.abs",
    "sgn": "np.sign",
    "exp": "np.exp",
    "log": "np.log",
    "sqrt": "np.sqrt",
    "sin": "np.sin",
    "cos": "np.cos",
    "tan": "np.tan",
    "atan": "np.arctan",
    "floor": "np.floor",
    "ceil": "np.ceil",
}


# -- operator classification -------------------------------------------------


def _simple_op(lam: A.Lambda) -> Optional[str]:
    """Recognize ``\\(a, b) -> a op b``, possibly lifted elementwise
    through nested maps (the shape fusion gives vector-valued reduce
    operators).  Returns the operator name, or None."""
    if len(lam.params) != 2:
        return None
    a, b = lam.params
    body = lam.body
    if len(body.bindings) != 1 or len(body.result) != 1:
        return None
    bnd = body.bindings[0]
    res = body.result[0]
    if len(bnd.pat) != 1:
        return None
    if not (isinstance(res, A.Var) and res.name == bnd.pat[0].name):
        return None
    e = bnd.exp
    if isinstance(e, A.BinOpExp):
        if not (isinstance(e.x, A.Var) and isinstance(e.y, A.Var)):
            return None
        names = (e.x.name, e.y.name)
        if names == (a.name, b.name):
            return e.op
        if names == (b.name, a.name) and BINOPS[e.op].commutative:
            return e.op
        return None
    if isinstance(e, A.MapExp):
        names = tuple(v.name for v in e.arrs)
        if names == (a.name, b.name):
            return _simple_op(e.lam)
        if names == (b.name, a.name):
            op = _simple_op(e.lam)
            if op is not None and BINOPS[op].commutative:
                return op
    return None


def _ufunc_src(op: Optional[str], elem: PrimType) -> Optional[str]:
    """Source text of the NumPy ufunc that can run a fold with operator
    ``op`` natively, or None.  ``and``/``or`` short-circuit on integers,
    so only their boolean (logical) forms are safe to lift."""
    if op is None:
        return None
    if op in ("add", "mul") and not elem.is_bool:
        return "np.add" if op == "add" else "np.multiply"
    if op == "min":
        return "np.minimum"
    if op == "max":
        return "np.maximum"
    if op == "xor" and not elem.is_float:
        return "np.bitwise_xor"
    if op in ("and", "or") and elem.is_bool:
        return "np.logical_and" if op == "and" else "np.logical_or"
    return None


_TRAPPING_BINOPS = frozenset(("div", "idiv", "imod", "pow", "shl", "shr"))
_TRAPPING_UNOPS = frozenset(("exp", "log", "sqrt"))


class _Trap(NamedTuple):
    """A trap site on one operand: ``bad`` maps the operand's name to
    the condition under which the operator traps on it.  It reads the
    same on an ndarray (per lane), on a Python scalar and on a
    constant."""

    bad: Callable[[str], str]
    reason: str


#: The trap sites of the unary operators and the conversion on their
#: (always batched) operand.
_UNOP_TRAPS = {
    "log": _Trap(
        lambda v: f"({v} <= 0)", "log of non-positive value in batch"
    ),
    "sqrt": _Trap(lambda v: f"({v} < 0)", "sqrt of negative value in batch"),
}
_FLOAT_TO_INT_TRAP = _Trap(
    lambda v: f"(~np.isfinite({v}))", "non-finite float to int conversion"
)


def _operand_trap(op: str, t: PrimType) -> Optional[_Trap]:
    """The trap site a binary operator has on its second operand alone
    (divisor, integer exponent, shift count), or None."""
    if op in ("div", "idiv", "imod"):
        return _Trap(lambda y: f"({y} == 0)", "zero divisor in batch")
    if op == "pow" and not t.is_float:
        return _Trap(
            lambda y: f"({y} < 0)", "negative integer exponent in batch"
        )
    if op in ("shl", "shr"):
        return _Trap(
            lambda y: f"(({y} < 0) | ({y} >= {t.bitwidth}))",
            "out-of-range shift count in batch",
        )
    return None


def _const_operand(c: A.Const, t: PrimType) -> np.ndarray:
    """The 0-d array a constant operand is at run time, built now."""
    return np.asarray(c.type.coerce(c.value), dtype=t.to_dtype())


def _traps_on(trap: _Trap, value: np.ndarray) -> bool:
    """Whether the guard of ``trap`` fires on a constant operand —
    decided at transpile time by evaluating the very text the run-time
    guard would."""
    return bool(eval(trap.bad("v"), {"np": np, "v": value}))


def _trap_free(body: A.Body, uniform: AbstractSet[str] = frozenset()) -> bool:
    """True when the batched lowering of ``body`` has no trap site that
    can fire on some lanes and not on others: scalar operators that
    cannot trap — a divisor that is a non-zero constant included —
    ``if``, an index whose every index is a constant or a name in
    ``uniform`` (its check reads the same on every lane), and the same
    lifted through ``map``.  Only such a fold operator may be applied to
    partial results the left-to-right fold never forms — any other
    could raise, or hide, a trap the interpreter's order would not —
    and only such arms of a divergent ``if`` run on every lane."""

    def ok_body(b: A.Body) -> bool:
        return all(ok(bnd.exp) for bnd in b.bindings)

    def ok(e: A.Exp) -> bool:
        if isinstance(e, (A.AtomExp, A.CmpOpExp)):
            return True
        if isinstance(e, A.BinOpExp):
            if e.op not in _TRAPPING_BINOPS:
                return True
            trap = _operand_trap(e.op, e.t)
            return (
                trap is not None
                and isinstance(e.y, A.Const)
                and not _traps_on(trap, _const_operand(e.y, e.t))
            )
        if isinstance(e, A.UnOpExp):
            return e.op not in _TRAPPING_UNOPS
        if isinstance(e, A.ConvOpExp):
            return not (e.from_t.is_float and e.to_t.is_integral)
        if isinstance(e, A.IndexExp):
            return all(
                isinstance(i, A.Const) or i.name in uniform for i in e.idxs
            )
        if isinstance(e, A.IfExp):
            return ok_body(e.t_body) and ok_body(e.f_body)
        if isinstance(e, A.MapExp):
            return ok_body(e.lam.body)
        return False

    return ok_body(body)


# -- shared emitters ---------------------------------------------------------


def guarded_operand(cg, v: JVal, t: PrimType, trap: _Trap) -> str:
    """The scalar operand ``v`` as an ndarray expression of type ``t``,
    behind the hand-over of ``trap``.  The guard is computed as what
    ``v`` is: on a batched operand, one reduction over its lanes; on a
    uniform one, a Python comparison on the scalar; on a constant,
    nothing at run time — decided now, it is no guard at all, or the
    hand-over unconditionally."""
    operand = scalar_operand(cg, t, v)
    const = cg.constant(v)
    if const is None:
        bad = trap.bad(v.var)
        cg.hand_over_if(bad if v.kind == "S" else f"{bad}.any()", trap.reason)
    elif _traps_on(trap, _const_operand(const, t)):
        cg.line(f'raise JitFallback("{trap.reason}")')
    return operand


def require_scalar(v: JVal) -> JVal:
    if v.kind == "A" or v.rank != 0:
        raise JitUnsupported("expected scalar operand")
    return v


def scalar_operand(cg, t: PrimType, v: JVal) -> str:
    return cg._asarray(require_scalar(v), t)


def dtype_fix(cg, var: str, t: PrimType) -> None:
    dt = cg._dt(t)
    cg.line(f"if {var}.dtype != {dt}:")
    with cg.indented():
        cg.line(f"{var} = {var}.astype({dt})")


def np_binop(cg, op: str, t: PrimType, x: JVal, y: JVal) -> str:
    """Emit the batched operator with its trap checks, returning
    the local holding the (pre-dtype-fix) result.  A trap site on the
    second operand alone is guarded as what that operand is
    (:func:`guarded_operand`)."""
    out = cg.fresh()
    xd = cg._asarray(x, t)
    trap = _operand_trap(op, t)
    yd = guarded_operand(cg, y, t, trap) if trap else cg._asarray(y, t)
    if op in ("add", "sub", "mul"):
        sym = {"add": "+", "sub": "-", "mul": "*"}[op]
        cg.line(f"{out} = {xd} {sym} {yd}")
        return out
    if op in ("div", "idiv", "imod"):
        expr = {"div": f"{xd} / {yd}", "idiv": f"{xd} // {yd}",
                "imod": f"np.mod({xd}, {yd})"}[op]
        cg.line(f"{out} = {expr}")
        return out
    if op in _NP_BIN_SRC:
        cg.line(f"{out} = {_NP_BIN_SRC[op]}({xd}, {yd})")
        return out
    if op == "pow" and not t.is_float:
        cg.line(f"{out} = np.power({xd}, {yd})")
        return out
    if op == "pow":
        # The trap depends on both operands: always per lane.
        xv, yv = cg.fresh("_x"), cg.fresh("_y")
        cg.line(f"{xv} = {xd}")
        cg.line(f"{yv} = {yd}")
        cg.hand_over_if(
            f"(({xv} < 0) & (np.mod({yv}, 1) != 0)).any()",
            "fractional power of negative base",
        )
        cg.line(f"{out} = np.power({xv}, {yv})")
        cg.hand_over_if(
            f"(np.isinf({out}) & np.isfinite({xv}) "
            f"& np.isfinite({yv})).any()",
            "float pow overflow in batch",
        )
        return out
    if op in ("and", "or"):
        xv = cg.fresh("_x")
        cg.line(f"{xv} = {xd}")
        truthy = xv if t.is_bool else f"({xv} != 0)"
        if op == "and":
            cg.line(f"{out} = np.where({truthy}, {yd}, {xv})")
        else:
            cg.line(f"{out} = np.where({truthy}, {xv}, {yd})")
        return out
    if op in ("shl", "shr"):
        fn = "np.left_shift" if op == "shl" else "np.right_shift"
        cg.line(f"{out} = {fn}({xd}, {yd})")
        return out
    raise JitUnsupported(f"unknown binary operator {op}")


# -- rules -------------------------------------------------------------------


def gen_atomexp(cg, e: A.AtomExp, scope: _Scope):
    return [cg.atom(scope, e.atom)]


def gen_binop(cg, e: A.BinOpExp, scope: _Scope):
    x = cg.atom(scope, e.x)
    y = cg.atom(scope, e.y)
    if x.kind == "S" and y.kind == "S":
        out = cg.fresh()
        cg.line(
            f"{out} = eval_binop({cg._bop(e.op)}, {cg._t(e.t)}, "
            f"{x.var}, {y.var})"
        )
        return [JVal("S", e.t, 0, out)]
    out = np_binop(cg, e.op, e.t, require_scalar(x), require_scalar(y))
    dtype_fix(cg, out, e.t)
    return [JVal("B", e.t, 0, out, True)]


def gen_cmpop(cg, e: A.CmpOpExp, scope: _Scope):
    x = cg.atom(scope, e.x)
    y = cg.atom(scope, e.y)
    if x.kind == "S" and y.kind == "S":
        out = cg.fresh()
        cg.line(
            f"{out} = eval_cmpop({cg._cop(e.op)}, {x.var}, {y.var})"
        )
        return [JVal("S", BOOL, 0, out)]
    xd = scalar_operand(cg, e.t, x)
    yd = scalar_operand(cg, e.t, y)
    out = cg.fresh()
    cg.line(f"{out} = {_NP_CMP_SRC[e.op]}({xd}, {yd})")
    return [JVal("B", BOOL, 0, out, True)]


def gen_unop(cg, e: A.UnOpExp, scope: _Scope):
    x = cg.atom(scope, e.x)
    if x.kind == "S":
        out = cg.fresh()
        cg.line(f"{out} = eval_unop({cg._uop(e.op)}, {cg._t(e.t)}, {x.var})")
        return [JVal("S", e.t, 0, out)]
    xv = scalar_operand(cg, e.t, x)
    src = _NP_UN_SRC.get(e.op)
    if src is None:
        raise JitUnsupported(f"unknown unary operator {e.op}")
    if e.op in _UNOP_TRAPS:
        xv = guarded_operand(cg, x, e.t, _UNOP_TRAPS[e.op])
    out = cg.fresh()
    cg.line(f"{out} = {src}({xv})")
    if e.op == "exp":
        cg.hand_over_if(
            f"(np.isinf({out}) & np.isfinite({xv})).any()",
            "exp overflow in batch",
        )
    dtype_fix(cg, out, e.t)
    return [JVal("B", e.t, 0, out, True)]


def gen_convop(cg, e: A.ConvOpExp, scope: _Scope):
    x = cg.atom(scope, e.x)
    if x.kind == "S":
        out = cg.fresh()
        cg.line(f"{out} = eval_convop({cg._conv(e.to_t)}, {x.var})")
        return [JVal("S", e.to_t, 0, out)]
    xv = scalar_operand(cg, e.from_t, x)
    if e.from_t.is_float and e.to_t.is_integral:
        xv = guarded_operand(cg, x, e.from_t, _FLOAT_TO_INT_TRAP)
    out = cg.fresh()
    cg.line(f"{out} = {xv}.astype({cg._dt(e.to_t)})")
    return [JVal("B", e.to_t, 0, out, True)]


RULES = {
    A.AtomExp: gen_atomexp,
    A.BinOpExp: gen_binop,
    A.CmpOpExp: gen_cmpop,
    A.UnOpExp: gen_unop,
    A.ConvOpExp: gen_convop,
}
