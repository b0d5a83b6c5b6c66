"""Dead-code removal.

The language is pure, so a binding whose names are never used can be
dropped (its only possible effect is a dynamic check, which Futhark
also removes when the result is dead).  Works bottom-up through nested
bodies and lambdas, and also drops unused functions from the program.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..core import ast as A
from ..core.traversal import (
    FreeVars,
    exp_bodies,
    exp_lambdas,
    map_exp_scopes,
    type_free_vars,
)

__all__ = ["dce_body", "dce_prog"]


def dce_body(
    body: A.Body, free_vars: Optional[FreeVars] = None
) -> Tuple[A.Body, bool]:
    """Remove dead bindings from a body (recursively).  Returns ``body``
    itself and False when nothing was dead.  ``free_vars`` lets a caller
    that runs the pass repeatedly share one memo across the runs."""
    if free_vars is None:
        free_vars = FreeVars()
    changed = False

    def dce_scope(b: A.Body) -> A.Body:
        return dce_body(b, free_vars)[0]

    # First recurse, so uses removed deeper don't keep bindings alive.
    new_bindings = []
    for bnd in body.bindings:
        exp = map_exp_scopes(bnd.exp, dce_scope)
        if exp is not bnd.exp:
            changed = True
            bnd = A.Binding(bnd.pat, exp)
        new_bindings.append(bnd)

    used: Set[str] = {
        a.name for a in body.result if isinstance(a, A.Var)
    }
    kept = []
    for bnd in reversed(new_bindings):
        if any(p.name in used for p in bnd.pat):
            kept.append(bnd)
            used |= free_vars.exp(bnd.exp)
            for p in bnd.pat:
                used |= type_free_vars(p.type)
        else:
            changed = True
    if not changed:
        return body, False
    kept.reverse()
    return A.Body(tuple(kept), body.result), True


def dce_prog(prog: A.Prog, roots: Tuple[str, ...] = ("main",)) -> A.Prog:
    """Remove functions unreachable from the roots."""
    reachable: Set[str] = set()
    work = [r for r in roots if any(f.name == r for f in prog.funs)]
    by_name = {f.name: f for f in prog.funs}
    while work:
        name = work.pop()
        if name in reachable:
            continue
        reachable.add(name)
        for callee in _called_functions(by_name[name].body):
            if callee in by_name:
                work.append(callee)
    if not reachable:  # no main: keep everything
        return prog
    return A.Prog(tuple(f for f in prog.funs if f.name in reachable))


def _called_functions(body: A.Body) -> Set[str]:
    out: Set[str] = set()

    def visit_body(b: A.Body) -> None:
        for bnd in b.bindings:
            visit_exp(bnd.exp)

    def visit_exp(e: A.Exp) -> None:
        if isinstance(e, A.ApplyExp):
            out.add(e.fname)
        for sub in exp_bodies(e):
            visit_body(sub)
        for lam in exp_lambdas(e):
            visit_body(lam.body)

    visit_body(body)
    return out
