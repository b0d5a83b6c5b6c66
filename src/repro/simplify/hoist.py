"""Hoisting of invariant bindings out of loops and SOAC lambdas
(let-floating, [43] in the paper).

A binding is hoisted when its free variables are all defined outside
the enclosing loop/lambda body.  Consuming expressions (in-place
updates, scatter, calls with unique parameters) are never hoisted —
moving a consumption point would change what the uniqueness rules see —
and neither are bindings that (transitively) depend on un-hoisted ones.

Like Futhark, the pass hoists allocations (``replicate``/``iota``) and
dynamic checks speculatively: a check hoisted out of a zero-trip loop
may fail earlier than strictly required, which the paper accepts as
part of its hybrid checking strategy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Set, Tuple

from ..checker.uniqueness import body_directly_consumes, exp_directly_consumes
from ..core import ast as A
from ..core.traversal import (
    FreeVars,
    map_exp_bodies,
    map_exp_lambdas,
    type_free_vars,
)

__all__ = ["hoist_body"]


def hoist_body(
    body: A.Body, free_vars: Optional[FreeVars] = None
) -> Tuple[A.Body, bool]:
    """Hoist invariant bindings out of the loops/lambdas bound in this
    body (recursively, innermost first).  Returns ``body`` itself and
    False when nothing moved.  ``free_vars`` lets a caller that runs the
    pass repeatedly share one memo across the runs."""
    if free_vars is None:
        free_vars = FreeVars()
    changed = False
    new_bindings: List[A.Binding] = []

    def on_body(b: A.Body) -> A.Body:
        return hoist_body(b, free_vars)[0]

    def on_lambda(lam: A.Lambda) -> A.Lambda:
        hoisted, kept = _split_hoistable(
            on_body(lam.body), {p.name for p in lam.params}, free_vars
        )
        new_bindings.extend(hoisted)
        if kept is lam.body:
            return lam
        return A.Lambda(lam.params, kept, lam.ret_types)

    for bnd in body.bindings:
        exp = map_exp_bodies(bnd.exp, on_body)
        exp = map_exp_lambdas(exp, on_lambda)

        if isinstance(exp, A.LoopExp):
            bound_here = {p.name for p, _ in exp.merge}
            if isinstance(exp.form, A.ForLoop):
                bound_here.add(exp.form.ivar)
            hoisted, kept = _split_hoistable(exp.body, bound_here, free_vars)
            if hoisted:
                new_bindings.extend(hoisted)
                exp = replace(exp, body=kept)

        if exp is not bnd.exp:
            changed = True
            bnd = A.Binding(bnd.pat, exp)
        new_bindings.append(bnd)
    if not changed:
        return body, False
    return A.Body(tuple(new_bindings), body.result), True


def _consumes(e: A.Exp) -> bool:
    if isinstance(e, (A.UpdateExp, A.ScatterExp)):
        return True
    return bool(exp_directly_consumes(e))


def _split_hoistable(
    body: A.Body, bound_here: Set[str], free_vars: FreeVars
) -> Tuple[List[A.Binding], A.Body]:
    """Partition a body's bindings into (hoistable, remaining body) —
    ``body`` itself when nothing is hoistable.

    A binding whose value is consumed later in the body must stay: the
    consumption would otherwise become an (illegal) consumption of a
    variable free in the lambda/loop, and semantically the value must
    be fresh per iteration.
    """
    consumed_later: Optional[Set[str]] = None  # scanned on first need
    stuck: Set[str] = set(bound_here)
    hoisted: List[A.Binding] = []
    kept: List[A.Binding] = []
    for bnd in body.bindings:
        stays = (
            not stuck.isdisjoint(free_vars.exp(bnd.exp))
            or any(type_free_vars(p.type) & stuck for p in bnd.pat)
            or _consumes(bnd.exp)
        )
        if not stays:
            if consumed_later is None:
                consumed_later = body_directly_consumes(body)
            stays = any(name in consumed_later for name in bnd.names())
        if stays:
            stuck.update(bnd.names())
            kept.append(bnd)
        else:
            hoisted.append(bnd)
    if not hoisted:
        return hoisted, body
    return hoisted, A.Body(tuple(kept), body.result)
