"""Scalar operators — uniform and batched — and the trap guard.

A uniform operand pair calls the interpreter's own ``eval_*``; a
batched one emits ufuncs over the lanes.  Every batched operator that
can trap guards its operand through :func:`trap_guard`; which
operators those are is also what :func:`_trap_free` answers, for the
folds that want to apply an operator out of order
(``tests/vm/test_codegen_rules.py`` holds the two to each other).
"""

from __future__ import annotations

from typing import Optional

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


def _trap_free(lam: A.Lambda) -> bool:
    """True when the batched lowering of ``lam`` has no data-dependent
    trap site: scalar operators that cannot trap, ``if``, and the same
    lifted through ``map``.  Only such an operator may be applied to
    partial results the left-to-right fold never forms — any other
    could raise, or hide, a trap the interpreter's order would not."""

    def ok_body(body: A.Body) -> bool:
        return all(ok(bnd.exp) for bnd in body.bindings)

    def ok(e: A.Exp) -> bool:
        if isinstance(e, (A.AtomExp, A.CmpOpExp)):
            return True
        if isinstance(e, A.BinOpExp):
            return e.op not in _TRAPPING_BINOPS
        if isinstance(e, A.UnOpExp):
            return e.op not in _TRAPPING_UNOPS
        if isinstance(e, A.ConvOpExp):
            return not (e.from_t.is_float and e.to_t.is_integral)
        if isinstance(e, A.IfExp):
            return ok_body(e.t_body) and ok_body(e.f_body)
        if isinstance(e, A.MapExp):
            return ok_body(e.lam.body)
        return False

    return ok_body(lam.body)


# -- shared emitters ---------------------------------------------------------


def trap_guard(
    cg, var: str, bad: str, safe: str, reason: str, spec: bool
) -> None:
    """Guard the operand held in local ``var`` against the lanes where
    ``bad`` holds.  In speculative position they get the value ``safe``
    — they discard their result in the merge; anywhere else they hand
    the launch to the interpreter."""
    cg.line(f"if {bad}.any():")
    with cg.indented():
        if spec:
            cg.line(f"{var} = {safe}")
        else:
            cg.line(f'raise JitFallback("{reason}")')


def scalar_operand(cg, t: PrimType, v: JVal) -> str:
    if v.kind == "A" or (v.kind == "B" and v.rank != 0):
        raise JitUnsupported("expected scalar operand")
    if v.kind == "B":
        return v.var
    return f"np.asarray({v.var}, dtype={cg._dt(t)})"


def uniform_op(cg, call: str, op_name: str, spec: bool) -> str:
    out = cg.fresh()
    if spec:
        cg.line("try:")
        with cg.indented():
            cg.line(f"{out} = {call}")
        cg.line("except Exception as _ex:")
        with cg.indented():
            cg.line(
                "raise JitFallback("
                f'f"uniform {op_name} trapped: {{_ex}}")'
            )
    else:
        cg.line(f"{out} = {call}")
    return out


def dtype_fix(cg, var: str, t: PrimType) -> None:
    dt = cg._dt(t)
    cg.line(f"if {var}.dtype != {dt}:")
    with cg.indented():
        cg.line(f"{var} = {var}.astype({dt})")


def np_binop(cg, op: str, t: PrimType, x: str, y: str, spec: bool) -> str:
    """Emit the batched operator with its trap checks, returning
    the local holding the (pre-dtype-fix) result."""
    out = cg.fresh()
    if op in ("add", "sub", "mul"):
        sym = {"add": "+", "sub": "-", "mul": "*"}[op]
        cg.line(f"{out} = {x} {sym} {y}")
        return out
    if op in ("div", "idiv", "imod"):
        yv = cg.fresh("_y")
        cg.line(f"{yv} = {y}")
        trap_guard(
            cg, yv, f"({yv} == 0)",
            f"np.where({yv} == 0, {yv}.dtype.type(1), {yv})",
            "zero divisor in batch", spec,
        )
        expr = {"div": f"{x} / {yv}", "idiv": f"{x} // {yv}",
                "imod": f"np.mod({x}, {yv})"}[op]
        cg.line(f"{out} = {expr}")
        return out
    if op in _NP_BIN_SRC:
        cg.line(f"{out} = {_NP_BIN_SRC[op]}({x}, {y})")
        return out
    if op == "pow":
        xv, yv = cg.fresh("_x"), cg.fresh("_y")
        cg.line(f"{xv} = {x}")
        cg.line(f"{yv} = {y}")
        if t.is_float:
            bad = cg.fresh("_bad")
            cg.line(f"{bad} = ({xv} < 0) & (np.mod({yv}, 1) != 0)")
            trap_guard(
                cg, xv, bad, f"np.where({bad}, -{xv}, {xv})",
                "fractional power of negative base", spec,
            )
            cg.line(f"{out} = np.power({xv}, {yv})")
            if not spec:
                cg.hand_over_if(
                    f"(np.isinf({out}) & np.isfinite({xv}) "
                    f"& np.isfinite({yv})).any()",
                    "float pow overflow in batch",
                )
            return out
        trap_guard(
            cg, yv, f"({yv} < 0)", f"np.where({yv} < 0, 0, {yv})",
            "negative integer exponent in batch", spec,
        )
        cg.line(f"{out} = np.power({xv}, {yv})")
        return out
    if op in ("and", "or"):
        xv = cg.fresh("_x")
        cg.line(f"{xv} = {x}")
        truthy = xv if t.is_bool else f"({xv} != 0)"
        if op == "and":
            cg.line(f"{out} = np.where({truthy}, {y}, {xv})")
        else:
            cg.line(f"{out} = np.where({truthy}, {xv}, {y})")
        return out
    if op in ("shl", "shr"):
        yv = cg.fresh("_y")
        cg.line(f"{yv} = {y}")
        trap_guard(
            cg, yv, f"(({yv} < 0) | ({yv} >= {t.bitwidth}))",
            f"np.clip({yv}, 0, {t.bitwidth - 1})",
            "out-of-range shift count in batch", spec,
        )
        fn = "np.left_shift" if op == "shl" else "np.right_shift"
        cg.line(f"{out} = {fn}({x}, {yv})")
        return out
    raise JitUnsupported(f"unknown binary operator {op}")


# -- rules -------------------------------------------------------------------


def gen_atomexp(cg, e: A.AtomExp, scope: _Scope, spec: bool):
    return [cg.atom(scope, e.atom)]


def gen_binop(cg, e: A.BinOpExp, scope: _Scope, spec: bool):
    x = cg.atom(scope, e.x)
    y = cg.atom(scope, e.y)
    if x.kind == "S" and y.kind == "S":
        call = (
            f"eval_binop({cg._bop(e.op)}, {cg._t(e.t)}, "
            f"{x.var}, {y.var})"
        )
        return [JVal("S", e.t, 0, uniform_op(cg, call, e.op, spec))]
    xd = scalar_operand(cg, e.t, x)
    yd = scalar_operand(cg, e.t, y)
    out = np_binop(cg, e.op, e.t, xd, yd, spec)
    dtype_fix(cg, out, e.t)
    return [JVal("B", e.t, 0, out)]


def gen_cmpop(cg, e: A.CmpOpExp, scope: _Scope, spec: bool):
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
    return [JVal("B", BOOL, 0, out)]


def gen_unop(cg, e: A.UnOpExp, scope: _Scope, spec: bool):
    x = cg.atom(scope, e.x)
    if x.kind == "S":
        call = f"eval_unop({cg._uop(e.op)}, {cg._t(e.t)}, {x.var})"
        return [JVal("S", e.t, 0, uniform_op(cg, call, e.op, spec))]
    xv = scalar_operand(cg, e.t, x)
    src = _NP_UN_SRC.get(e.op)
    if src is None:
        raise JitUnsupported(f"unknown unary operator {e.op}")
    if e.op in ("log", "sqrt"):
        xv = cg.fresh("_x")
        cg.line(f"{xv} = {x.var}")
        if e.op == "log":
            cond = f"{xv} <= 0"
            safe = f"np.where({cond}, {xv}.dtype.type(1), {xv})"
            word = "log of non-positive value"
        else:
            cond = f"{xv} < 0"
            safe = f"np.where({cond}, -{xv}, {xv})"
            word = "sqrt of negative value"
        trap_guard(cg, xv, f"({cond})", safe, f"{word} in batch", spec)
    out = cg.fresh()
    cg.line(f"{out} = {src}({xv})")
    if e.op == "exp" and not spec:
        cg.hand_over_if(
            f"(np.isinf({out}) & np.isfinite({xv})).any()",
            "exp overflow in batch",
        )
    dtype_fix(cg, out, e.t)
    return [JVal("B", e.t, 0, out)]


def gen_convop(cg, e: A.ConvOpExp, scope: _Scope, spec: bool):
    x = cg.atom(scope, e.x)
    if x.kind == "S":
        out = cg.fresh()
        cg.line(f"{out} = eval_convop({cg._conv(e.to_t)}, {x.var})")
        return [JVal("S", e.to_t, 0, out)]
    xv = scalar_operand(cg, e.from_t, x)
    if e.from_t.is_float and e.to_t.is_integral:
        xv = cg.fresh("_x")
        cg.line(f"{xv} = {x.var}")
        trap_guard(
            cg, xv, f"(~np.isfinite({xv}))",
            f"np.where(~np.isfinite({xv}), {xv}.dtype.type(0), {xv})",
            "non-finite float to int conversion", spec,
        )
    out = cg.fresh()
    cg.line(f"{out} = {xv}.astype({cg._dt(e.to_t)})")
    return [JVal("B", e.to_t, 0, out)]


RULES = {
    A.AtomExp: gen_atomexp,
    A.BinOpExp: gen_binop,
    A.CmpOpExp: gen_cmpop,
    A.UnOpExp: gen_unop,
    A.ConvOpExp: gen_convop,
}
