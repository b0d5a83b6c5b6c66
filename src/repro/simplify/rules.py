"""Rule-based simplification: constant folding, copy propagation,
algebraic identities, branch elimination, and index-construction
shortcuts.

One call to :func:`simplify_body_once` performs a single top-to-bottom
pass (recursing into sub-bodies and lambdas); the engine iterates it to
a fixpoint.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..core import ast as A
from ..core.prim import (
    BINOPS,
    BOOL,
    CMPOPS,
    UNOPS,
    ConvOp,
    eval_binop,
    eval_cmpop,
    eval_convop,
    eval_unop,
)
from ..core.traversal import (
    alpha_rename_body,
    map_exp_atoms,
    map_exp_scopes,
    name_source,
    substitute_exp,
)

__all__ = ["simplify_body_once"]


def simplify_body_once(body: A.Body) -> Tuple[A.Body, bool]:
    """One simplification pass over a body.  Returns the new body and
    whether anything changed — ``body`` itself when nothing did."""
    changed = False
    env: Dict[str, A.Atom] = {}
    new_bindings: List[A.Binding] = []

    def subst(a: A.Atom) -> A.Atom:
        while isinstance(a, A.Var) and a.name in env:
            a = env[a.name]
        return a

    for bnd in body.bindings:
        exp = bnd.exp
        # Copy/constant propagation: both direct operands and free
        # occurrences inside sub-bodies and lambdas (a kernel lambda
        # may reference a propagated binding as a free variable).
        if env:
            exp = substitute_exp(exp, env)
        # Recurse into sub-structures first (bottom-up simplification).
        exp = map_exp_scopes(exp, _simplify_scope)

        rewritten = _rewrite(exp, env)
        if rewritten is not None:
            kind, payload = rewritten
            changed = True
            if kind == "atom":
                if len(bnd.pat) == 1:
                    env[bnd.pat[0].name] = subst(payload)
                    continue
                raise AssertionError("atom rewrite of multi-binding")
            if kind == "atoms":
                for p, a in zip(bnd.pat, payload):
                    env[p.name] = subst(a)
                continue
            if kind == "exp":
                new_bindings.append(A.Binding(bnd.pat, payload))
                continue
            if kind == "splice":
                spliced_bindings, result_atoms = payload
                new_bindings.extend(spliced_bindings)
                for p, a in zip(bnd.pat, result_atoms):
                    env[p.name] = subst(a)
                continue
            raise AssertionError(kind)

        if exp is not bnd.exp:
            changed = True
            bnd = A.Binding(bnd.pat, exp)
        new_bindings.append(bnd)

    if not changed:
        return body, False
    result = tuple(subst(a) for a in body.result)
    return A.Body(tuple(new_bindings), result), True


def _simplify_scope(body: A.Body) -> A.Body:
    return simplify_body_once(body)[0]


def _const(a: A.Atom) -> Optional[A.Const]:
    return a if isinstance(a, A.Const) else None


def _rewrite(e: A.Exp, env: Dict[str, A.Atom]):
    """Try to rewrite ``e``.  Returns None (no change) or a pair:

    - ("atom", atom): the binding reduces to an atom;
    - ("atoms", [atom...]): a multi-value binding reduces to atoms;
    - ("exp", exp): replaced by another expression;
    - ("splice", (bindings, result_atoms)): replaced by inlined
      bindings whose results feed the pattern (used for static ifs and
      zero-trip loops).
    """
    if isinstance(e, A.AtomExp):
        return ("atom", e.atom)

    if isinstance(e, A.BinOpExp):
        return _rewrite_binop(e)

    if isinstance(e, A.CmpOpExp):
        x, y = _const(e.x), _const(e.y)
        if x is not None and y is not None:
            v = eval_cmpop(CMPOPS[e.op], x.value, y.value)
            return ("atom", A.Const(v, BOOL))
        if (
            isinstance(e.x, A.Var)
            and isinstance(e.y, A.Var)
            and e.x.name == e.y.name
        ):
            if e.op in ("eq", "le", "ge"):
                return ("atom", A.Const(True, BOOL))
            if e.op in ("neq", "lt", "gt"):
                return ("atom", A.Const(False, BOOL))
        return None

    if isinstance(e, A.UnOpExp):
        x = _const(e.x)
        if x is not None:
            try:
                v = eval_unop(UNOPS[e.op], e.t, x.value)
            except (ValueError, TypeError, OverflowError):
                return None
            return ("atom", A.Const(v, e.t))
        return None

    if isinstance(e, A.ConvOpExp):
        x = _const(e.x)
        if x is not None:
            v = eval_convop(ConvOp("conv", e.to_t), x.value)
            return ("atom", A.Const(v, e.to_t))
        if e.to_t == e.from_t:
            return ("atom", e.x)
        return None

    if isinstance(e, A.IfExp):
        c = _const(e.cond)
        if c is not None:
            branch = e.t_body if c.value else e.f_body
            branch = alpha_rename_body(branch, name_source)
            return ("splice", (list(branch.bindings), list(branch.result)))
        if _bodies_trivially_equal(e.t_body, e.f_body):
            branch = alpha_rename_body(e.t_body, name_source)
            return ("splice", (list(branch.bindings), list(branch.result)))
        return None

    if isinstance(e, A.LoopExp):
        if isinstance(e.form, A.ForLoop):
            b = _const(e.form.bound)
            if b is not None and b.value <= 0:
                return ("atoms", list(e.merge_init))
        return None

    if isinstance(e, A.RearrangeExp):
        if e.perm == tuple(range(len(e.perm))):
            return ("atom", e.arr)
        return None

    if isinstance(e, A.MapExp):
        # map (\x -> x) xs  ==>  xs   (identity map)
        lam = e.lam
        if (
            not lam.body.bindings
            and len(lam.params) == len(e.arrs)
            and tuple(p.name for p in lam.params)
            == tuple(a.name if isinstance(a, A.Var) else None
                     for a in lam.body.result)
        ):
            return ("atoms", list(e.arrs))
        return None

    return None


def _rewrite_binop(e: A.BinOpExp):
    x, y = _const(e.x), _const(e.y)
    if x is not None and y is not None:
        try:
            v = eval_binop(BINOPS[e.op], e.t, x.value, y.value)
        except (ZeroDivisionError, ValueError, OverflowError):
            return None
        return ("atom", A.Const(v, e.t))

    def is_zero(c):
        return c is not None and not c.type.is_bool and c.value == 0

    def is_one(c):
        return c is not None and not c.type.is_bool and c.value == 1

    if e.op == "add":
        if is_zero(x):
            return ("atom", e.y)
        if is_zero(y):
            return ("atom", e.x)
    elif e.op == "sub":
        if is_zero(y):
            return ("atom", e.x)
    elif e.op == "mul":
        if is_one(x):
            return ("atom", e.y)
        if is_one(y):
            return ("atom", e.x)
        # x * 0 == 0 only for integers (floats have NaN/inf).
        if e.t.is_integral and (is_zero(x) or is_zero(y)):
            return ("atom", A.Const(0, e.t))
    elif e.op in ("div", "idiv"):
        if is_one(y):
            return ("atom", e.x)
    elif e.op == "and":
        if x is not None:
            return ("atom", e.y if x.value else A.Const(False, BOOL))
        if y is not None and y.value:
            return ("atom", e.x)
    elif e.op == "or":
        if x is not None:
            return ("atom", A.Const(True, BOOL) if x.value else e.y)
        if y is not None and not y.value:
            return ("atom", e.x)
    return None


def _bodies_trivially_equal(b1: A.Body, b2: A.Body) -> bool:
    return not b1.bindings and not b2.bindings and b1.result == b2.result
