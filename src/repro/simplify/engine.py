"""The simplification engine: iterate the individual passes to a
fixpoint (Fig. 3's "apply simplification rules / merge common
subexpressions / hoisting / remove dead code" box).

Every sub-pass returns the *same object* it was given when it had
nothing to do, so a quiet round costs one traversal and ends the
iteration, and the free-variable memo shared by the sub-passes keeps
answering for every subtree that did not change.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core import ast as A
from ..core.traversal import FreeVars
from ..obs import get_logger
from .cse import cse_body
from .dce import dce_body
from .hoist import hoist_body
from .rules import simplify_body_once

__all__ = ["simplify_fun", "simplify_prog"]

_MAX_ROUNDS = 12


def _fixpoint(
    body: A.Body, hoisting: bool, free_vars: FreeVars
) -> Tuple[A.Body, int]:
    """Run rounds of the four sub-passes until one changes nothing;
    returns the body and the number of rounds run (``_MAX_ROUNDS`` when
    the iteration was cut off, which is logged)."""
    for rounds in range(1, _MAX_ROUNDS + 1):
        before = body
        body, _ = simplify_body_once(body)
        body, _ = cse_body(body)
        if hoisting:
            body, _ = hoist_body(body, free_vars)
        body, _ = dce_body(body, free_vars)
        if body is before:
            return body, rounds
    get_logger("simplify").info("no-fixpoint", rounds=_MAX_ROUNDS)
    return body, _MAX_ROUNDS


def simplify_body(body: A.Body, hoisting: bool = True) -> A.Body:
    return _fixpoint(body, hoisting, FreeVars())[0]


def simplify_fun(fun: A.FunDef, hoisting: bool = True) -> A.FunDef:
    """Simplify one function to a fixpoint."""
    return simplify_prog(A.Prog((fun,)), hoisting).funs[0]


def simplify_prog(
    prog: A.Prog, hoisting: bool = True, rounds: Optional[List[int]] = None
) -> A.Prog:
    """Simplify every function in the program; returns ``prog`` itself
    when it already is a fixpoint.  ``rounds``, when given, receives the
    number of rounds each function took."""
    free_vars = FreeVars()
    funs = []
    for fun in prog.funs:
        body, n = _fixpoint(fun.body, hoisting, free_vars)
        if body is not fun.body:
            fun = A.FunDef(fun.name, fun.params, fun.ret, body)
        funs.append(fun)
        if rounds is not None:
            rounds.append(n)
    if all(new is old for new, old in zip(funs, prog.funs)):
        return prog
    return A.Prog(tuple(funs))
