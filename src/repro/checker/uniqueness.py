"""In-place update checking — the occurrence-trace system of Fig. 6.

An expression gives rise to an *occurrence trace* ``⟨C, O⟩`` of consumed
and observed variables.  Two traces are sequenced by the judgment

    ⟨C1, O1⟩ ≫ ⟨C2, O2⟩ : ⟨C1 ∪ C2, O1 ∪ O2⟩   iff (O2 ∪ C2) ∩ C1 = ∅

i.e. nothing consumed on the left may be used (or consumed again) on
the right.  An in-place update ``va with [is] ← vv`` consumes
``aliases(va)`` and observes ``aliases(vv)`` (SAFE-UPDATE).

For a ``map``, the function body's trace is transformed by the
Δ-judgment with ``P`` mapping the lambda's parameters to the alias sets
of the corresponding input arrays: a consumed parameter becomes
consumption of the whole input array (OBSERVE-PARAM), while a consumed
*free* variable is not derivable — it would be consumed once per
iteration — and is reported as an error (Fig. 7's second example).
Do-loops and the streaming SOACs are checked the same way; stream
accumulator parameters must carry the ``*`` attribute to be consumable
(Fig. 4c).

A function may consume only those of its parameters declared unique,
and a unique (``*``) result must not alias any non-unique parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

from ..core import ast as A
from ..core.prim import I32
from ..core.traversal import exp_bodies
from ..core.types import Array, Prim, Type, row_type
from ..core.typeinfer import atom_type
from .alias import EMPTY, AliasAnalysis, AliasSet
from .errors import UniquenessError

__all__ = [
    "Trace",
    "UniquenessChecker",
    "check_uniqueness",
    "exp_directly_consumes",
    "body_directly_consumes",
]


@dataclass(frozen=True)
class Trace:
    """An occurrence trace ⟨C, O⟩."""

    consumed: AliasSet = EMPTY
    observed: AliasSet = EMPTY

    def restrict(self, scope: Set[str]) -> "Trace":
        """Forget names not visible in the enclosing scope."""
        return Trace(
            frozenset(self.consumed & scope),
            frozenset(self.observed & scope),
        )


def seq_traces(t1: Trace, t2: Trace, where: str) -> Trace:
    """The OCCURRENCE-SEQ judgment; raises if not derivable."""
    overlap = (t2.observed | t2.consumed) & t1.consumed
    if overlap:
        name = sorted(overlap)[0]
        raise UniquenessError(
            f"{where}: variable {name!r} used after being consumed"
        )
    return Trace(t1.consumed | t2.consumed, t1.observed | t2.observed)


class UniquenessChecker:
    """Joint alias analysis and in-place-update checking for a program
    assumed to be otherwise type-correct."""

    def __init__(self, prog: A.Prog) -> None:
        self.prog = prog
        self._sig_decls = {f.name: (f.params, f.ret) for f in prog.funs}
        self._aliases = AliasAnalysis(self._sig_decls)

    # -- public -----------------------------------------------------------

    def check(self) -> None:
        for fun in self.prog.funs:
            self._check_fun(fun)

    # -- function level -----------------------------------------------------

    def _check_fun(self, fun: A.FunDef) -> None:
        sigma: Dict[str, AliasSet] = {}
        types: Dict[str, Type] = {}
        for p in fun.params:
            sigma[p.name] = EMPTY
            types[p.name] = p.type
            if isinstance(p.type, Array):
                for d in p.type.shape:
                    if isinstance(d, str) and d not in sigma:
                        sigma[d] = EMPTY
                        types[d] = Prim(I32)
        where = f"function {fun.name}"
        trace, result_sets = self._check_body(fun.body, sigma, types, where)

        # A function may consume only its unique parameters.
        nonunique = {
            p.name
            for p in fun.params
            if not p.unique and isinstance(p.type, Array)
        }
        bad = trace.consumed & nonunique
        if bad:
            raise UniquenessError(
                f"{where}: consumes non-unique parameter "
                f"{sorted(bad)[0]!r} (declare it *{types[sorted(bad)[0]]})"
            )

        # A unique result must not alias any non-unique parameter.
        for i, (decl, s) in enumerate(zip(fun.ret, result_sets)):
            if decl.unique:
                shared = s & nonunique
                if shared:
                    raise UniquenessError(
                        f"{where}: unique result #{i} aliases non-unique "
                        f"parameter {sorted(shared)[0]!r}"
                    )

    # -- bodies ------------------------------------------------------------

    def _check_body(
        self,
        body: A.Body,
        sigma: Dict[str, AliasSet],
        types: Dict[str, Type],
        where: str,
    ) -> Tuple[Trace, List[AliasSet]]:
        """Returns the body's trace (over all names, caller restricts)
        and the alias sets of its results."""
        sigma = dict(sigma)
        types = dict(types)
        trace = Trace()
        for bnd in body.bindings:
            exp_trace, sets = self._check_exp(bnd.exp, sigma, types, where)
            trace = seq_traces(trace, exp_trace, where)
            if len(sets) != len(bnd.pat):
                # Type checking reports arity errors; be safe anyway.
                sets = list(sets) + [EMPTY] * (len(bnd.pat) - len(sets))
            for p, s in zip(bnd.pat, sets):
                sigma[p.name] = frozenset(s)
                types[p.name] = p.type
        result_sets = [
            self._aliases.atom_aliases(a, sigma) for a in body.result
        ]
        observe = Trace(EMPTY, frozenset().union(*result_sets) if result_sets else EMPTY)
        trace = seq_traces(trace, observe, where)
        return trace, result_sets

    def _body_alias_callback(self, types: Dict[str, Type]):
        def cb(body: A.Body, sigma: Mapping[str, AliasSet]) -> List[AliasSet]:
            _, sets = self._check_body(
                body, dict(sigma), dict(types), "alias-subquery"
            )
            return sets

        return cb

    # -- the Δ judgment ------------------------------------------------------

    def _delta(
        self,
        trace: Trace,
        param_map: Mapping[str, AliasSet],
        consumable: Mapping[str, bool],
        scope: Set[str],
        where: str,
    ) -> Trace:
        """Transform a lambda/loop body trace through ``P`` (Fig. 6).

        ``param_map`` maps parameter names to the alias sets of the
        values they are bound to; ``consumable`` says which parameters
        may be consumed at all (stream accumulators require ``*``).
        Locals (names in neither ``param_map`` nor ``scope``) are
        dropped from observations; consuming a non-parameter that is
        free in the enclosing scope is an error.
        """
        observed: Set[str] = set()
        for v in trace.observed:
            if v in param_map:
                observed |= param_map[v]  # OBSERVE-PARAM
            elif v in scope:
                observed.add(v)  # OBSERVE-NONPARAM
            # else: a local of the body — forgotten.
        consumed: Set[str] = set()
        for v in trace.consumed:
            if v in param_map:
                if not consumable.get(v, True):
                    raise UniquenessError(
                        f"{where}: parameter {v!r} is consumed but not "
                        f"declared unique (*)"
                    )
                consumed |= param_map[v]
            elif v in scope:
                # Not derivable: would consume a free variable once per
                # application (Fig. 7, second example).
                raise UniquenessError(
                    f"{where}: function consumes free variable {v!r}; "
                    f"only parameters may be consumed"
                )
            # else: a local of the body — already freed.
        return Trace(frozenset(consumed), frozenset(observed))

    # -- expressions ----------------------------------------------------------

    def _check_exp(
        self,
        e: A.Exp,
        sigma: Dict[str, AliasSet],
        types: Dict[str, Type],
        where: str,
    ) -> Tuple[Trace, List[AliasSet]]:
        aa = self._aliases
        scope = set(sigma)

        def observe_atoms(atoms: Sequence[A.Atom]) -> Trace:
            obs: Set[str] = set()
            for a in atoms:
                obs |= aa.atom_aliases(a, sigma)
            return Trace(EMPTY, frozenset(obs))

        # --- in-place update: SAFE-UPDATE -------------------------------
        if isinstance(e, A.UpdateExp):
            consumed = aa.atom_aliases(e.arr, sigma)
            observed = aa.atom_aliases(e.value, sigma)
            for i in e.idxs:
                observed |= aa.atom_aliases(i, sigma)
            value_t = atom_type(e.value, types)
            if isinstance(value_t, Array) and (observed & consumed):
                raise UniquenessError(
                    f"{where}: update value aliases the updated array "
                    f"{e.arr.name!r}"
                )
            trace = Trace(frozenset(consumed), frozenset(observed))
            return trace, aa.exp_aliases(
                e, sigma, types, self._body_alias_callback(types)
            )

        # --- scatter consumes its destination ----------------------------
        if isinstance(e, A.ScatterExp):
            consumed = aa.atom_aliases(e.dest, sigma)
            observed = aa.atom_aliases(e.idx_arr, sigma) | aa.atom_aliases(
                e.val_arr, sigma
            )
            trace = Trace(frozenset(consumed), frozenset(observed))
            return trace, aa.exp_aliases(
                e, sigma, types, self._body_alias_callback(types)
            )

        # --- function application: SAFE-APPLY ----------------------------
        if isinstance(e, A.ApplyExp):
            if e.fname not in self._sig_decls:
                raise UniquenessError(
                    f"{where}: call of unknown function {e.fname!r}"
                )
            params, _ = self._sig_decls[e.fname]
            consumed: Set[str] = set()
            observed: Set[str] = set()
            for p, a in zip(params, e.args):
                if p.unique:
                    consumed |= aa.atom_aliases(a, sigma)
                else:
                    observed |= aa.atom_aliases(a, sigma)
            trace = Trace(frozenset(consumed), frozenset(observed))
            return trace, aa.exp_aliases(
                e, sigma, types, self._body_alias_callback(types)
            )

        # --- if: SAFE-IF ---------------------------------------------------
        if isinstance(e, A.IfExp):
            cond = observe_atoms([e.cond])
            t_trace, t_sets = self._check_body(e.t_body, sigma, types, where)
            f_trace, f_sets = self._check_body(e.f_body, sigma, types, where)
            t_trace = seq_traces(cond, t_trace.restrict(scope), where)
            f_trace = seq_traces(cond, f_trace.restrict(scope), where)
            trace = Trace(
                t_trace.consumed | f_trace.consumed,
                t_trace.observed | f_trace.observed,
            )
            sets = [t | f for t, f in zip(t_sets, f_sets)]
            sets = [s & frozenset(scope) for s in sets]
            return trace, sets

        # --- loops -----------------------------------------------------------
        if isinstance(e, A.LoopExp):
            inner_sigma = dict(sigma)
            inner_types = dict(types)
            param_map: Dict[str, AliasSet] = {}
            consumable: Dict[str, bool] = {}
            init_obs: Set[str] = set()
            for p, init in e.merge:
                aliases = aa.atom_aliases(init, sigma)
                param_map[p.name] = aliases
                # Loop merge parameters are always consumable: the loop
                # owns its merge state (its initial value is handed over).
                consumable[p.name] = True
                inner_sigma[p.name] = EMPTY
                inner_types[p.name] = p.type
                init_obs |= aliases
            if isinstance(e.form, A.ForLoop):
                inner_sigma[e.form.ivar] = EMPTY
                inner_types[e.form.ivar] = Prim(I32)
                bound_obs = observe_atoms([e.form.bound])
            else:
                bound_obs = Trace()
            body_trace, body_sets = self._check_body(
                e.body, inner_sigma, inner_types, where
            )
            # Iterating twice must be legal: sequencing the body trace
            # with itself catches a loop body that consumes a free
            # variable *and* observes it again, etc.  The Δ judgment
            # below reports free-variable consumption directly.
            trace = self._delta(
                body_trace, param_map, consumable, scope, where
            )
            trace = seq_traces(bound_obs, trace, where)
            merge_names = {p.name for p, _ in e.merge}
            sets = [
                (s - merge_names) & frozenset(scope) for s in body_sets
            ]
            return trace, sets

        # --- SOACs with lambdas ------------------------------------------------
        if isinstance(e, A.MapExp):
            return self._check_soac_lambda(
                e.lam,
                list(zip(e.lam.params, [self._input_aliases(a, sigma) for a in e.arrs])),
                consumable_accs=(),
                inputs=e.arrs,
                extra_observed=[e.width],
                sigma=sigma,
                types=types,
                where=f"{where}/map",
                input_row_types=self._row_types(e.arrs, types),
                exp=e,
            )

        if isinstance(e, (A.ReduceExp, A.ScanExp)):
            what = "reduce" if isinstance(e, A.ReduceExp) else "scan"
            # The operator lambda of reduce/scan is applied many times;
            # it may consume nothing.
            inner_sigma = dict(sigma)
            inner_types = dict(types)
            n_acc = len(e.neutral)
            acc_row = list(e.lam.params[:n_acc])
            arr_row = list(e.lam.params[n_acc:])
            for p, at in zip(
                acc_row + arr_row,
                [atom_type(a, types) for a in e.neutral]
                + self._row_types(e.arrs, types),
            ):
                inner_sigma[p.name] = EMPTY
                inner_types[p.name] = p.type
            body_trace, _ = self._check_body(
                e.lam.body, inner_sigma, inner_types, where
            )
            lam_consumed = body_trace.consumed & {
                p.name for p in e.lam.params
            }
            if lam_consumed:
                raise UniquenessError(
                    f"{where}: {what} operator may not consume its "
                    f"parameters ({sorted(lam_consumed)[0]!r})"
                )
            free_consumed = body_trace.consumed & scope
            if free_consumed:
                raise UniquenessError(
                    f"{where}: {what} operator consumes free variable "
                    f"{sorted(free_consumed)[0]!r}"
                )
            observed = (body_trace.observed & scope) | frozenset()
            obs = observe_atoms(list(e.neutral) + list(e.arrs) + [e.width])
            trace = Trace(EMPTY, observed | obs.observed)
            return trace, aa.exp_aliases(
                e, sigma, types, self._body_alias_callback(types)
            )

        if isinstance(e, (A.StreamMapExp, A.StreamSeqExp, A.StreamRedExp)):
            return self._check_stream(e, sigma, types, where)

        if isinstance(e, A.FilterExp):
            return self._check_soac_lambda(
                e.lam,
                [(e.lam.params[0], self._input_aliases(e.arr, sigma))],
                consumable_accs=(),
                inputs=(e.arr,),
                extra_observed=[e.width],
                sigma=sigma,
                types=types,
                where=f"{where}/filter",
                input_row_types=self._row_types((e.arr,), types),
                exp=e,
            )

        # --- everything else just observes its operands --------------------
        from ..core.traversal import exp_atoms

        trace = observe_atoms(list(exp_atoms(e)))
        return trace, aa.exp_aliases(
            e, sigma, types, self._body_alias_callback(types)
        )

    # -- SOAC helpers ------------------------------------------------------------

    def _input_aliases(self, a: A.Var, sigma) -> AliasSet:
        return self._aliases.atom_aliases(a, sigma)

    def _row_types(self, arrs: Sequence[A.Var], types) -> List[Type]:
        out = []
        for a in arrs:
            t = types.get(a.name)
            if isinstance(t, Array):
                out.append(row_type(t))
            else:
                out.append(Prim(I32))
        return out

    def _check_soac_lambda(
        self,
        lam: A.Lambda,
        param_bindings,
        consumable_accs,
        inputs,
        extra_observed,
        sigma,
        types,
        where,
        input_row_types,
        exp,
    ) -> Tuple[Trace, List[AliasSet]]:
        """Check a map-like lambda via the Δ judgment."""
        aa = self._aliases
        scope = set(sigma)
        inner_sigma = dict(sigma)
        inner_types = dict(types)
        param_map: Dict[str, AliasSet] = {}
        consumable: Dict[str, bool] = {}
        for (p, aliases), rt in zip(param_bindings, input_row_types):
            param_map[p.name] = aliases
            consumable[p.name] = True
            inner_sigma[p.name] = EMPTY
            inner_types[p.name] = p.type
        body_trace, _ = self._check_body(
            lam.body, inner_sigma, inner_types, where
        )
        trace = self._delta(body_trace, param_map, consumable, scope, where)
        obs: Set[str] = set(trace.observed)
        for a in list(inputs) + list(extra_observed):
            obs |= aa.atom_aliases(a, sigma)
        # Inputs that the lambda consumed are consumed, not observed.
        obs -= set(trace.consumed)
        trace = Trace(trace.consumed, frozenset(obs))
        return trace, aa.exp_aliases(
            exp, sigma, types, self._body_alias_callback(types)
        )

    def _check_stream(
        self,
        e,
        sigma: Dict[str, AliasSet],
        types: Dict[str, Type],
        where: str,
    ) -> Tuple[Trace, List[AliasSet]]:
        aa = self._aliases
        scope = set(sigma)
        if isinstance(e, A.StreamMapExp):
            lam, accs = e.lam, ()
            what = "stream_map"
        elif isinstance(e, A.StreamSeqExp):
            lam, accs = e.lam, e.accs
            what = "stream_seq"
        else:
            lam, accs = e.fold_lam, e.accs
            what = "stream_red"
            # The reduction operator may not consume (like reduce).
            red = e.red_lam
            inner_sigma = dict(sigma)
            inner_types = dict(types)
            for p in red.params:
                inner_sigma[p.name] = EMPTY
                inner_types[p.name] = p.type
            red_trace, _ = self._check_body(
                red.body, inner_sigma, inner_types, where
            )
            if red_trace.consumed & (
                {p.name for p in red.params} | scope
            ):
                raise UniquenessError(
                    f"{where}: stream_red operator may not consume"
                )

        chunk_p = lam.params[0]
        acc_params = lam.params[1 : 1 + len(accs)]
        arr_params = lam.params[1 + len(accs) :]
        inner_sigma = dict(sigma)
        inner_types = dict(types)
        param_map: Dict[str, AliasSet] = {}
        consumable: Dict[str, bool] = {}
        inner_sigma[chunk_p.name] = EMPTY
        inner_types[chunk_p.name] = chunk_p.type
        for p, init in zip(acc_params, accs):
            # Stream accumulators are fresh per chunk; consuming one
            # requires the * attribute (Fig. 4c) and consumes the
            # initial value's aliases.
            param_map[p.name] = aa.atom_aliases(init, sigma)
            consumable[p.name] = p.unique
            inner_sigma[p.name] = EMPTY
            inner_types[p.name] = p.type
        for p, arr in zip(arr_params, e.arrs):
            param_map[p.name] = aa.atom_aliases(arr, sigma)
            consumable[p.name] = True
            inner_sigma[p.name] = EMPTY
            inner_types[p.name] = p.type
        body_trace, _ = self._check_body(
            lam.body, inner_sigma, inner_types, f"{where}/{what}"
        )
        trace = self._delta(
            body_trace, param_map, consumable, scope, f"{where}/{what}"
        )
        obs: Set[str] = set(trace.observed)
        for a in list(e.arrs) + list(accs) + [e.width]:
            obs |= aa.atom_aliases(a, sigma)
        obs -= set(trace.consumed)
        trace = Trace(trace.consumed, frozenset(obs))
        return trace, aa.exp_aliases(
            e, sigma, types, self._body_alias_callback(types)
        )


def check_uniqueness(prog: A.Prog) -> None:
    """Check the whole program; raises :class:`UniquenessError`."""
    UniquenessChecker(prog).check()


def exp_directly_consumes(e: A.Exp, sigs=None) -> Set[str]:
    """A syntactic approximation of the variables consumed by ``e``
    (without alias expansion) — used by the fusion engine to respect
    consumption points.

    Covers updates, scatter, unique-parameter calls, loops whose bodies
    consume merge parameters, and SOACs whose lambdas consume inputs.
    """
    consumed: Set[str] = set()
    if isinstance(e, A.UpdateExp):
        consumed.add(e.arr.name)
    elif isinstance(e, A.ScatterExp):
        consumed.add(e.dest.name)
    elif isinstance(e, A.ApplyExp) and sigs is not None:
        params = sigs.get(e.fname, ((), ()))[0]
        for p, a in zip(params, e.args):
            if p.unique and isinstance(a, A.Var):
                consumed.add(a.name)
    elif isinstance(e, A.LoopExp):
        body_consumed = body_directly_consumes(e.body, sigs)
        for p, init in e.merge:
            if p.name in body_consumed and isinstance(init, A.Var):
                consumed.add(init.name)
    elif isinstance(e, A.MapExp):
        body_consumed = body_directly_consumes(e.lam.body, sigs)
        for p, arr in zip(e.lam.params, e.arrs):
            if p.name in body_consumed:
                consumed.add(arr.name)
    elif isinstance(e, (A.StreamMapExp, A.StreamSeqExp, A.StreamRedExp)):
        lam = e.fold_lam if isinstance(e, A.StreamRedExp) else e.lam
        accs = () if isinstance(e, A.StreamMapExp) else e.accs
        body_consumed = body_directly_consumes(lam.body, sigs)
        arr_params = lam.params[1 + len(accs):]
        for p, arr in zip(arr_params, e.arrs):
            if p.name in body_consumed:
                consumed.add(arr.name)
        acc_params = lam.params[1 : 1 + len(accs)]
        for p, init in zip(acc_params, accs):
            if p.name in body_consumed and isinstance(init, A.Var):
                consumed.add(init.name)
    return consumed


def body_directly_consumes(body: A.Body, sigs=None) -> Set[str]:
    """The union of :func:`exp_directly_consumes` over every binding of
    ``body``, including those inside ``if`` branches and loop bodies."""
    out: Set[str] = set()
    for bnd in body.bindings:
        out |= exp_directly_consumes(bnd.exp, sigs)
        for sub in exp_bodies(bnd.exp):
            out |= body_directly_consumes(sub, sigs)
    return out
