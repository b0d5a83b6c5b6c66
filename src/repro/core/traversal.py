"""Generic traversals over the core IR.

Provides the facilities every compiler pass builds on:

* enumeration and rewriting of the atoms of an expression,
* enumeration and rewriting of sub-bodies and sub-lambdas,
* free-variable computation (including size variables in types),
* capture-avoiding substitution and alpha-renaming,
* a fresh-name source.

Because the IR is in A-normal form, substitution maps *names* to
*atoms*; positions that syntactically require a variable (e.g. the array
operand of a SOAC) only accept variable replacements.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Set,
    Tuple,
)

from . import ast as A
from .types import Array, Dim, Prim, Type, substitute_dims

__all__ = [
    "NameSource",
    "name_source",
    "exp_atoms",
    "map_exp_atoms",
    "exp_lambdas",
    "map_exp_lambdas",
    "exp_bodies",
    "map_exp_bodies",
    "map_exp_scopes",
    "FreeVars",
    "free_vars_exp",
    "free_vars_body",
    "free_vars_lambda",
    "bound_names_body",
    "substitute_body",
    "substitute_exp",
    "substitute_lambda",
    "alpha_rename_body",
    "alpha_rename_lambda",
    "type_free_vars",
]


class NameSource:
    """Generates fresh variable names.

    Freshness is guaranteed by a monotone counter suffix; ``declare``
    seeds the source with already-used names so that freshening an
    existing program never collides.  Only declared names the counter
    can still reach are remembered: generated names never collide with
    each other, and a declared ``base_<k>`` with ``k`` below the counter
    can never be generated again — so recompiling a program, whose
    passes re-declare the names earlier passes generated, does not grow
    the set.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Restart the counter and forget every declared name."""
        self._counter = itertools.count()
        #: A lower bound on the counter's next value (exact in one
        #: thread; under concurrent ``fresh`` calls it may lag, which
        #: only makes ``declare`` remember more than it needs to).
        self._floor = 0
        self._used: Set[str] = set()

    def declare(self, names: Iterable[str]) -> None:
        floor = self._floor
        for name in names:
            suffix = name.rpartition("_")[2]
            if not (suffix.isdecimal() and int(suffix) < floor):
                self._used.add(name)

    def fresh(self, base: str = "t") -> str:
        base = base.rstrip("_0123456789") or "t"
        while True:
            n = next(self._counter)
            self._floor = n + 1
            name = f"{base}_{n}"
            if name not in self._used:
                return name


#: A process-wide default name source, convenient for tests and passes
#: that do not thread their own.
name_source = NameSource()


def type_free_vars(t: Type) -> Set[str]:
    """Size variables occurring in a type."""
    if isinstance(t, Array):
        return {d for d in t.shape if isinstance(d, str)}
    return set()


def _atom_vars(atoms: Iterable[A.Atom]) -> Set[str]:
    return {a.name for a in atoms if isinstance(a, A.Var)}


# ---------------------------------------------------------------------------
# Atom enumeration / rewriting (direct operands only, not sub-bodies)
# ---------------------------------------------------------------------------


def exp_atoms(e: A.Exp) -> Iterator[A.Atom]:
    """All atoms that are direct operands of ``e`` (excluding atoms inside
    sub-bodies and lambdas)."""
    if isinstance(e, A.AtomExp):
        yield e.atom
    elif isinstance(e, (A.BinOpExp, A.CmpOpExp)):
        yield e.x
        yield e.y
    elif isinstance(e, A.UnOpExp):
        yield e.x
    elif isinstance(e, A.ConvOpExp):
        yield e.x
    elif isinstance(e, A.IfExp):
        yield e.cond
    elif isinstance(e, A.IndexExp):
        yield e.arr
        yield from e.idxs
    elif isinstance(e, A.UpdateExp):
        yield e.arr
        yield from e.idxs
        yield e.value
    elif isinstance(e, A.IotaExp):
        yield e.n
    elif isinstance(e, A.ReplicateExp):
        yield e.n
        yield e.value
    elif isinstance(e, A.RearrangeExp):
        yield e.arr
    elif isinstance(e, A.ReshapeExp):
        yield from e.shape
        yield e.arr
    elif isinstance(e, A.CopyExp):
        yield e.arr
    elif isinstance(e, A.ConcatExp):
        yield from e.arrs
    elif isinstance(e, A.ApplyExp):
        yield from e.args
    elif isinstance(e, A.LoopExp):
        yield from (a for _, a in e.merge)
        if isinstance(e.form, A.ForLoop):
            yield e.form.bound
    elif isinstance(e, A.MapExp):
        yield e.width
        yield from e.arrs
    elif isinstance(e, (A.ReduceExp, A.ScanExp)):
        yield e.width
        yield from e.neutral
        yield from e.arrs
    elif isinstance(e, A.StreamMapExp):
        yield e.width
        yield from e.arrs
    elif isinstance(e, (A.StreamRedExp, A.StreamSeqExp)):
        yield e.width
        yield from e.accs
        yield from e.arrs
    elif isinstance(e, A.FilterExp):
        yield e.width
        yield e.arr
    elif isinstance(e, A.ScatterExp):
        yield e.width
        yield e.dest
        yield e.idx_arr
        yield e.val_arr
    else:
        raise TypeError(f"exp_atoms: unhandled expression {type(e).__name__}")


def _as_var(a: A.Atom, what: str) -> A.Var:
    if not isinstance(a, A.Var):
        raise TypeError(f"{what} must be a variable, got {a}")
    return a


def map_exp_atoms(e: A.Exp, f: Callable[[A.Atom], A.Atom]) -> A.Exp:
    """Rewrite the direct atom operands of ``e`` with ``f``.

    Positions that require a variable (array operands) reject non-Var
    replacements with a TypeError.
    """

    def fv(a: A.Atom, what: str) -> A.Var:
        return _as_var(f(a), what)

    if isinstance(e, A.AtomExp):
        return A.AtomExp(f(e.atom))
    if isinstance(e, (A.BinOpExp, A.CmpOpExp)):
        return replace(e, x=f(e.x), y=f(e.y))
    if isinstance(e, A.UnOpExp):
        return replace(e, x=f(e.x))
    if isinstance(e, A.ConvOpExp):
        return replace(e, x=f(e.x))
    if isinstance(e, A.IfExp):
        return replace(e, cond=f(e.cond))
    if isinstance(e, A.IndexExp):
        return A.IndexExp(fv(e.arr, "indexed array"), tuple(f(i) for i in e.idxs))
    if isinstance(e, A.UpdateExp):
        return A.UpdateExp(
            fv(e.arr, "updated array"),
            tuple(f(i) for i in e.idxs),
            f(e.value),
        )
    if isinstance(e, A.IotaExp):
        return A.IotaExp(f(e.n))
    if isinstance(e, A.ReplicateExp):
        return A.ReplicateExp(f(e.n), f(e.value))
    if isinstance(e, A.RearrangeExp):
        return A.RearrangeExp(e.perm, fv(e.arr, "rearranged array"))
    if isinstance(e, A.ReshapeExp):
        return A.ReshapeExp(tuple(f(s) for s in e.shape), fv(e.arr, "reshaped array"))
    if isinstance(e, A.CopyExp):
        return A.CopyExp(fv(e.arr, "copied array"))
    if isinstance(e, A.ConcatExp):
        return A.ConcatExp(tuple(fv(a, "concatenated array") for a in e.arrs))
    if isinstance(e, A.ApplyExp):
        return A.ApplyExp(e.fname, tuple(f(a) for a in e.args))
    if isinstance(e, A.LoopExp):
        merge = tuple((p, f(a)) for p, a in e.merge)
        form = e.form
        if isinstance(form, A.ForLoop):
            form = A.ForLoop(form.ivar, f(form.bound))
        return replace(e, merge=merge, form=form)
    if isinstance(e, A.MapExp):
        return replace(
            e,
            width=f(e.width),
            arrs=tuple(fv(a, "map input") for a in e.arrs),
        )
    if isinstance(e, (A.ReduceExp, A.ScanExp)):
        return replace(
            e,
            width=f(e.width),
            neutral=tuple(f(n) for n in e.neutral),
            arrs=tuple(fv(a, "SOAC input") for a in e.arrs),
        )
    if isinstance(e, A.StreamMapExp):
        return replace(
            e,
            width=f(e.width),
            arrs=tuple(fv(a, "stream input") for a in e.arrs),
        )
    if isinstance(e, (A.StreamRedExp, A.StreamSeqExp)):
        return replace(
            e,
            width=f(e.width),
            accs=tuple(f(a) for a in e.accs),
            arrs=tuple(fv(a, "stream input") for a in e.arrs),
        )
    if isinstance(e, A.FilterExp):
        return A.FilterExp(
            f(e.width), e.lam, fv(e.arr, "filter input"), e.size_name
        )
    if isinstance(e, A.ScatterExp):
        return A.ScatterExp(
            f(e.width),
            fv(e.dest, "scatter destination"),
            fv(e.idx_arr, "scatter indices"),
            fv(e.val_arr, "scatter values"),
        )
    raise TypeError(f"map_exp_atoms: unhandled expression {type(e).__name__}")


# ---------------------------------------------------------------------------
# Sub-lambda and sub-body enumeration / rewriting
# ---------------------------------------------------------------------------


def exp_lambdas(e: A.Exp) -> Iterator[A.Lambda]:
    if isinstance(e, A.MapExp):
        yield e.lam
    elif isinstance(e, (A.ReduceExp, A.ScanExp)):
        yield e.lam
    elif isinstance(e, A.StreamMapExp):
        yield e.lam
    elif isinstance(e, A.StreamRedExp):
        yield e.red_lam
        yield e.fold_lam
    elif isinstance(e, A.StreamSeqExp):
        yield e.lam
    elif isinstance(e, A.FilterExp):
        yield e.lam


def map_exp_lambdas(e: A.Exp, f: Callable[[A.Lambda], A.Lambda]) -> A.Exp:
    """Rewrite the lambdas of ``e`` with ``f``; returns ``e`` itself
    when ``f`` returned every lambda unchanged (the same object)."""
    if isinstance(
        e,
        (A.MapExp, A.ReduceExp, A.ScanExp, A.StreamMapExp,
         A.StreamSeqExp, A.FilterExp),
    ):
        lam = f(e.lam)
        return e if lam is e.lam else replace(e, lam=lam)
    if isinstance(e, A.StreamRedExp):
        red_lam, fold_lam = f(e.red_lam), f(e.fold_lam)
        if red_lam is e.red_lam and fold_lam is e.fold_lam:
            return e
        return replace(e, red_lam=red_lam, fold_lam=fold_lam)
    return e


def exp_bodies(e: A.Exp) -> Iterator[A.Body]:
    """Sub-bodies *not* under a lambda (if branches, loop bodies)."""
    if isinstance(e, A.IfExp):
        yield e.t_body
        yield e.f_body
    elif isinstance(e, A.LoopExp):
        yield e.body


def map_exp_bodies(e: A.Exp, f: Callable[[A.Body], A.Body]) -> A.Exp:
    """Rewrite the sub-bodies of ``e`` with ``f``; returns ``e`` itself
    when ``f`` returned every body unchanged (the same object)."""
    if isinstance(e, A.IfExp):
        t_body, f_body = f(e.t_body), f(e.f_body)
        if t_body is e.t_body and f_body is e.f_body:
            return e
        return replace(e, t_body=t_body, f_body=f_body)
    if isinstance(e, A.LoopExp):
        body = f(e.body)
        return e if body is e.body else replace(e, body=body)
    return e


def map_exp_scopes(e: A.Exp, f: Callable[[A.Body], A.Body]) -> A.Exp:
    """Rewrite every scope nested in ``e`` — its sub-bodies and the
    bodies of its lambdas — with ``f``; returns ``e`` itself when ``f``
    returned every body unchanged (the same object)."""

    def on_lambda(lam: A.Lambda) -> A.Lambda:
        body = f(lam.body)
        if body is lam.body:
            return lam
        return A.Lambda(lam.params, body, lam.ret_types)

    return map_exp_lambdas(map_exp_bodies(e, f), on_lambda)


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------


class FreeVars:
    """Free-variable analysis memoised on node identity.

    Rewrites return the same object for an unchanged subtree, so one
    instance answers repeated queries over successive versions of a
    program by visiting only what changed.  An instance is an explicit,
    caller-owned object (``simplify_prog`` makes one per call; nothing
    is stored on the AST nodes or in the process), and every entry
    keeps its node alive, so an ``id`` is never reused under it.
    Results are shared frozensets.
    """

    def __init__(self) -> None:
        self._memo: Dict[int, Tuple[object, FrozenSet[str]]] = {}

    def _memoised(self, node, compute) -> FrozenSet[str]:
        hit = self._memo.get(id(node))
        if hit is None:
            hit = self._memo[id(node)] = (node, frozenset(compute(node)))
        return hit[1]

    def exp(self, e: A.Exp) -> FrozenSet[str]:
        return self._memoised(e, self._exp)

    def body(self, body: A.Body) -> FrozenSet[str]:
        return self._memoised(body, self._body)

    def lam(self, lam: A.Lambda) -> FrozenSet[str]:
        return self._memoised(lam, self._lam)

    def _lam(self, lam: A.Lambda) -> Set[str]:
        free = set(self.body(lam.body))
        for p in lam.params:
            free |= type_free_vars(p.type)
        for t in lam.ret_types:
            free |= type_free_vars(t)
        return free - {p.name for p in lam.params}

    def _exp(self, e: A.Exp) -> Set[str]:
        free = _atom_vars(exp_atoms(e))
        for lam in exp_lambdas(e):
            free |= self.lam(lam)
        if isinstance(e, A.IfExp):
            free |= self.body(e.t_body) | self.body(e.f_body)
            for t in e.ret_types:
                free |= type_free_vars(t)
        elif isinstance(e, A.LoopExp):
            bound = {p.name for p, _ in e.merge}
            for p, _ in e.merge:
                free |= type_free_vars(p.type)
            if isinstance(e.form, A.ForLoop):
                bound.add(e.form.ivar)
            free |= self.body(e.body) - bound
        return free

    def _body(self, body: A.Body) -> Set[str]:
        free: Set[str] = set()
        bound: Set[str] = set()
        for bnd in body.bindings:
            free |= self.exp(bnd.exp) - bound
            for p in bnd.pat:
                free |= type_free_vars(p.type) - bound
            bound.update(bnd.names())
        free |= _atom_vars(body.result) - bound
        return free


class _Unmemoised(FreeVars):
    """The same analysis with nothing remembered, for one-off queries:
    stateless, so the one instance below serves every thread."""

    exp = FreeVars._exp
    body = FreeVars._body
    lam = FreeVars._lam


_ONE_OFF = _Unmemoised()


def free_vars_lambda(lam: A.Lambda) -> Set[str]:
    return _ONE_OFF.lam(lam)


def free_vars_exp(e: A.Exp) -> Set[str]:
    return _ONE_OFF.exp(e)


def free_vars_body(body: A.Body) -> Set[str]:
    return _ONE_OFF.body(body)


def bound_names_body(body: A.Body) -> Set[str]:
    """All names bound anywhere inside a body (including nested scopes)."""
    names: Set[str] = set()

    def visit_body(b: A.Body) -> None:
        for bnd in b.bindings:
            names.update(bnd.names())
            visit_exp(bnd.exp)

    def visit_exp(e: A.Exp) -> None:
        for sub in exp_bodies(e):
            visit_body(sub)
        for lam in exp_lambdas(e):
            names.update(p.name for p in lam.params)
            visit_body(lam.body)
        if isinstance(e, A.LoopExp):
            names.update(p.name for p, _ in e.merge)
            if isinstance(e.form, A.ForLoop):
                names.add(e.form.ivar)

    visit_body(body)
    return names


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def _subst_atom(env: Mapping[str, A.Atom], a: A.Atom) -> A.Atom:
    if isinstance(a, A.Var) and a.name in env:
        return env[a.name]
    return a


def _subst_dims(env: Mapping[str, A.Atom], t: Type) -> Type:
    if not isinstance(t, Array):
        return t
    dim_env: Dict[str, Dim] = {}
    for name, atom in env.items():
        if isinstance(atom, A.Var):
            dim_env[name] = atom.name
        elif isinstance(atom, A.Const) and isinstance(atom.value, int):
            dim_env[name] = atom.value
    return substitute_dims(t, dim_env)


def _subst_param(env: Mapping[str, A.Atom], p: A.Param) -> A.Param:
    return A.Param(p.name, _subst_dims(env, p.type), p.unique)


def substitute_exp(e: A.Exp, env: Mapping[str, A.Atom]) -> A.Exp:
    """Substitute free variables of ``e`` according to ``env``.

    Substitution assumes the program has unique bound names (the ANF
    convention maintained by all passes), so no capture can occur; bound
    names shadowing an ``env`` key are still respected defensively.
    """
    if not env:
        return e
    e = map_exp_atoms(e, lambda a: _subst_atom(env, a))

    def in_lambda(lam: A.Lambda) -> A.Lambda:
        inner = {k: v for k, v in env.items()
                 if k not in {p.name for p in lam.params}}
        return A.Lambda(
            tuple(_subst_param(env, p) for p in lam.params),
            substitute_body(lam.body, inner),
            tuple(_subst_dims(env, t) for t in lam.ret_types),
        )

    e = map_exp_lambdas(e, in_lambda)

    if isinstance(e, A.IfExp):
        e = replace(
            e,
            t_body=substitute_body(e.t_body, env),
            f_body=substitute_body(e.f_body, env),
            ret_types=tuple(_subst_dims(env, t) for t in e.ret_types),
        )
    elif isinstance(e, A.LoopExp):
        bound = {p.name for p, _ in e.merge}
        if isinstance(e.form, A.ForLoop):
            bound.add(e.form.ivar)
        inner = {k: v for k, v in env.items() if k not in bound}
        e = replace(
            e,
            merge=tuple((_subst_param(env, p), a) for p, a in e.merge),
            body=substitute_body(e.body, inner),
        )
    return e


def substitute_body(body: A.Body, env: Mapping[str, A.Atom]) -> A.Body:
    if not env:
        return body
    env = dict(env)
    new_bindings: List[A.Binding] = []
    for bnd in body.bindings:
        new_exp = substitute_exp(bnd.exp, env)
        new_pat = tuple(_subst_param(env, p) for p in bnd.pat)
        new_bindings.append(A.Binding(new_pat, new_exp))
        for name in bnd.names():
            env.pop(name, None)
    result = tuple(_subst_atom(env, a) for a in body.result)
    return A.Body(tuple(new_bindings), result)


def substitute_lambda(lam: A.Lambda, env: Mapping[str, A.Atom]) -> A.Lambda:
    inner = {k: v for k, v in env.items()
             if k not in {p.name for p in lam.params}}
    return A.Lambda(
        tuple(_subst_param(env, p) for p in lam.params),
        substitute_body(lam.body, inner),
        tuple(_subst_dims(env, t) for t in lam.ret_types),
    )


# ---------------------------------------------------------------------------
# Alpha renaming (used when duplicating code, e.g. inlining)
# ---------------------------------------------------------------------------


def alpha_rename_body(body: A.Body, names: NameSource) -> A.Body:
    """Freshen every name bound inside ``body``."""
    return _rename_body(body, {}, names)


def alpha_rename_lambda(lam: A.Lambda, names: NameSource) -> A.Lambda:
    env: Dict[str, A.Atom] = {}
    new_params = []
    for p in lam.params:
        fresh = names.fresh(p.name)
        env[p.name] = A.Var(fresh)
        new_params.append(A.Param(fresh, _subst_dims(env, p.type), p.unique))
    return A.Lambda(
        tuple(new_params),
        _rename_body(lam.body, env, names),
        tuple(_subst_dims(env, t) for t in lam.ret_types),
    )


def _rename_body(
    body: A.Body, env: Dict[str, A.Atom], names: NameSource
) -> A.Body:
    env = dict(env)
    new_bindings: List[A.Binding] = []
    for bnd in body.bindings:
        new_exp = _rename_exp(bnd.exp, env, names)
        new_pat = []
        for p in bnd.pat:
            fresh = names.fresh(p.name)
            new_pat.append(A.Param(fresh, _subst_dims(env, p.type), p.unique))
            env[p.name] = A.Var(fresh)
        # Types of later pattern elements may refer to earlier ones; a
        # second dim-substitution pass resolves that.
        new_pat = [_subst_param(env, p) for p in new_pat]
        new_bindings.append(A.Binding(tuple(new_pat), new_exp))
    result = tuple(_subst_atom(env, a) for a in body.result)
    return A.Body(tuple(new_bindings), result)


def _rename_exp(
    e: A.Exp, env: Dict[str, A.Atom], names: NameSource
) -> A.Exp:
    e = map_exp_atoms(e, lambda a: _subst_atom(env, a))

    def in_lambda(lam: A.Lambda) -> A.Lambda:
        inner = dict(env)
        new_params = []
        for p in lam.params:
            fresh = names.fresh(p.name)
            inner[p.name] = A.Var(fresh)
            new_params.append(A.Param(fresh, _subst_dims(inner, p.type), p.unique))
        return A.Lambda(
            tuple(new_params),
            _rename_body(lam.body, inner, names),
            tuple(_subst_dims(inner, t) for t in lam.ret_types),
        )

    e = map_exp_lambdas(e, in_lambda)

    if isinstance(e, A.IfExp):
        e = replace(
            e,
            t_body=_rename_body(e.t_body, env, names),
            f_body=_rename_body(e.f_body, env, names),
            ret_types=tuple(_subst_dims(env, t) for t in e.ret_types),
        )
    elif isinstance(e, A.LoopExp):
        inner = dict(env)
        new_merge = []
        for p, a in e.merge:
            fresh = names.fresh(p.name)
            inner[p.name] = A.Var(fresh)
            new_merge.append(
                (A.Param(fresh, _subst_dims(inner, p.type), p.unique), a)
            )
        form = e.form
        if isinstance(form, A.ForLoop):
            fresh_i = names.fresh(form.ivar)
            inner[form.ivar] = A.Var(fresh_i)
            form = A.ForLoop(fresh_i, form.bound)
        else:
            cond_atom = inner.get(form.cond)
            if isinstance(cond_atom, A.Var):
                form = A.WhileLoop(cond_atom.name)
        e = replace(e, merge=tuple(new_merge), form=form,
                    body=_rename_body(e.body, inner, names))
    return e
