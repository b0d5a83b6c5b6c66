"""Function inlining (the first stage of the Fig. 3 pipeline).

Every call to a non-recursive function is replaced by an alpha-renamed
copy of its body with arguments substituted for parameters.  The paper
inlines aggressively: kernel extraction operates on a program without
function calls.  (Mutually) recursive functions are left alone — the
core language has loops for iteration, so recursion is rare.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..core import ast as A
from ..core.traversal import (
    alpha_rename_body,
    bound_names_body,
    free_vars_body,
    map_exp_scopes,
    name_source,
    substitute_body,
)
from .dce import _called_functions, dce_prog

__all__ = ["inline_prog"]


def inline_prog(prog: A.Prog, keep: str = "main") -> A.Prog:
    """Inline calls until only recursive calls (if any) remain, then
    drop functions unreachable from ``keep``."""
    by_name = {f.name: f for f in prog.funs}
    recursive = _recursive_functions(prog)

    # Seed the name source with every name in the program so renamed
    # copies cannot collide.
    for f in prog.funs:
        name_source.declare(p.name for p in f.params)
        name_source.declare(bound_names_body(f.body))
        name_source.declare(free_vars_body(f.body))

    # Process callees before callers so inlining is single-pass.
    order = _topo_order(prog, recursive)
    inlined: Dict[str, A.FunDef] = {}
    for name in order:
        fun = by_name[name]
        new_body = _inline_body(fun.body, inlined, recursive)
        inlined[name] = A.FunDef(fun.name, fun.params, fun.ret, new_body)

    new_prog = A.Prog(tuple(inlined[f.name] for f in prog.funs))
    return dce_prog(new_prog, roots=(keep,))


def _recursive_functions(prog: A.Prog) -> Set[str]:
    """Functions on a call-graph cycle."""
    graph = {
        f.name: _called_functions(f.body) & {g.name for g in prog.funs}
        for f in prog.funs
    }
    recursive: Set[str] = set()
    for start in graph:
        # DFS from each function looking for a path back to itself.
        stack = list(graph[start])
        seen: Set[str] = set()
        while stack:
            cur = stack.pop()
            if cur == start:
                recursive.add(start)
                break
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(graph.get(cur, ()))
    return recursive


def _topo_order(prog: A.Prog, recursive: Set[str]) -> List[str]:
    graph = {
        f.name: _called_functions(f.body) & {g.name for g in prog.funs}
        for f in prog.funs
    }
    order: List[str] = []
    state: Dict[str, int] = {}

    def visit(name: str) -> None:
        if state.get(name, 0) == 2:
            return
        if state.get(name, 0) == 1:
            return  # cycle; members are in `recursive` and not inlined
        state[name] = 1
        for callee in graph.get(name, ()):
            visit(callee)
        state[name] = 2
        order.append(name)

    for f in prog.funs:
        visit(f.name)
    return order


def _inline_body(
    body: A.Body,
    inlined: Dict[str, A.FunDef],
    recursive: Set[str],
) -> A.Body:
    new_bindings: List[A.Binding] = []
    for bnd in body.bindings:
        exp = map_exp_scopes(
            bnd.exp, lambda b: _inline_body(b, inlined, recursive)
        )
        if (
            isinstance(exp, A.ApplyExp)
            and exp.fname in inlined
            and exp.fname not in recursive
        ):
            callee = inlined[exp.fname]
            fresh = alpha_rename_body(callee.body, name_source)
            # Substitute arguments for parameters (dims included).
            subst = {
                p.name: arg for p, arg in zip(callee.params, exp.args)
            }
            fresh = substitute_body(fresh, subst)
            new_bindings.extend(fresh.bindings)
            for p, res in zip(bnd.pat, fresh.result):
                new_bindings.append(A.Binding((p,), A.AtomExp(res)))
        else:
            new_bindings.append(A.Binding(bnd.pat, exp))
    return A.Body(tuple(new_bindings), body.result)
