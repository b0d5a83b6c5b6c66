"""Common-subexpression elimination.

Restricted to *scalar-producing* expressions: merging two bindings of
equal array-producing expressions could identify buffers that the
uniqueness discipline relies on being distinct (e.g. two ``copy``
expressions that are each updated in place later), so arrays are left
to the fusion engine instead.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core import ast as A
from ..core.traversal import map_exp_scopes, substitute_exp
from ..core.types import Prim

__all__ = ["cse_body"]


def cse_body(body: A.Body) -> Tuple[A.Body, bool]:
    """Eliminate repeated scalar computations within one body (and,
    recursively, nested bodies; tables do not cross scope boundaries,
    which keeps the pass trivially sound under shadowing).  Returns
    ``body`` itself and False when there was nothing to eliminate."""
    changed = False
    seen: Dict[A.Exp, Tuple[str, ...]] = {}
    env: Dict[str, A.Atom] = {}
    new_bindings = []

    def subst(a: A.Atom) -> A.Atom:
        if isinstance(a, A.Var) and a.name in env:
            return env[a.name]
        return a

    for bnd in body.bindings:
        exp = substitute_exp(bnd.exp, env) if env else bnd.exp
        exp = map_exp_scopes(exp, _cse_scope)

        if _cse_candidate(exp, bnd.pat):
            names = bnd.names()
            try:
                # One hash of the candidate: look up and claim at once.
                prior = seen.setdefault(exp, names)
            except TypeError:  # an unhashable constant
                prior = names
            if prior is not names:
                for p, name in zip(bnd.pat, prior):
                    env[p.name] = A.Var(name)
                changed = True
                continue
        if exp is not bnd.exp:
            changed = True
            bnd = A.Binding(bnd.pat, exp)
        new_bindings.append(bnd)

    if not changed:
        return body, False
    result = tuple(subst(a) for a in body.result)
    return A.Body(tuple(new_bindings), result), True


def _cse_candidate(e: A.Exp, pat) -> bool:
    return all(isinstance(p.type, Prim) for p in pat) and not isinstance(
        e, (A.UpdateExp, A.ScatterExp, A.ApplyExp)
    )


def _cse_scope(body: A.Body) -> A.Body:
    return cse_body(body)[0]
