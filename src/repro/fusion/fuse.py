"""The fusion driver: greedy bottom-up producer-consumer fusion by T2
graph reduction, followed by horizontal fusion within each block
(Section 4).

Supported producer→consumer pairs:

* map → map (classic vertical fusion / the map-map rule of §2.1);
* map → reduce (via F3: the reduce becomes a ``stream_red`` whose fold
  runs the producer per chunk — the paper's redomap);
* map → stream_map / stream_red / stream_seq (the producer is applied
  to each chunk inside the fold function);
* stream_map → reduce / stream_red / stream_map (Fig. 10b: the
  parallel stream's fold is run per chunk inside the consumer's fold).

Horizontal fusion merges independent maps of equal width into one
multi-output map, and independent reduces into one multi-output reduce
(the "banana split theorem" read right to left).

Fusion is blocked by the consumption-point restriction: a producer is
never moved past an in-place update (or other consumption) of an array
it observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..core import ast as A
from ..core.prim import I32
from ..core.types import Array, Prim, substitute_dims
from ..core.traversal import (
    NameSource,
    alpha_rename_lambda,
    bound_names_body,
    free_vars_body,
    free_vars_exp,
    map_exp_bodies,
    map_exp_lambdas,
    name_source,
    substitute_body,
)
from .graph import consumption_between, producer_index, single_consumer
from .stream_rules import reduce_to_stream_red

__all__ = ["FusionStats", "fuse_body", "fuse_prog"]


@dataclass
class FusionStats:
    vertical: int = 0
    horizontal: int = 0

    @property
    def total(self) -> int:
        return self.vertical + self.horizontal

    def merge(self, other: "FusionStats") -> None:
        self.vertical += other.vertical
        self.horizontal += other.horizontal


def fuse_prog(prog: A.Prog) -> Tuple[A.Prog, FusionStats]:
    """Fuse every function; returns the program and fusion statistics."""
    names = name_source
    for f in prog.funs:
        names.declare(p.name for p in f.params)
        names.declare(bound_names_body(f.body) | free_vars_body(f.body))
    stats = FusionStats()
    funs = []
    for f in prog.funs:
        body, st = fuse_body(f.body, names)
        stats.merge(st)
        funs.append(A.FunDef(f.name, f.params, f.ret, body))
    return A.Prog(tuple(funs)), stats


def fuse_body(
    body: A.Body,
    names: Optional[NameSource] = None,
    nested: bool = False,
) -> Tuple[A.Body, FusionStats]:
    """Fuse greedily inside one body, at all nesting levels.

    ``nested`` marks bodies inside parallel SOAC lambdas: there,
    map-into-reduce fusion is skipped so kernel extraction can still
    turn the reduction into a segmented one (the paper's compiler
    achieves the same through redomap fission during extraction).
    """
    if names is None:
        names = name_source
        names.declare(bound_names_body(body) | free_vars_body(body))
    stats = FusionStats()

    # Iterate: fusing two outer maps makes their inner maps adjacent,
    # enabling further fusion on the next round.
    for _ in range(5):
        before = stats.total
        new_bindings = []
        for bnd in body.bindings:
            exp = _fuse_subparts(bnd.exp, names, stats, nested)
            new_bindings.append(A.Binding(bnd.pat, exp))
        body = A.Body(tuple(new_bindings), body.result)

        body = _vertical_pass(body, names, stats, nested)
        body = _horizontal_pass(body, names, stats)
        if stats.total == before:
            break
    return body, stats


def _fuse_subparts(
    e: A.Exp, names: NameSource, stats: FusionStats, nested: bool
) -> A.Exp:
    def on_body(b: A.Body) -> A.Body:
        b2, st = fuse_body(b, names, nested)
        stats.merge(st)
        return b2

    inner_nested = nested or A.is_soac(e)

    def on_lambda(lam: A.Lambda) -> A.Lambda:
        b2, st = fuse_body(lam.body, names, inner_nested)
        stats.merge(st)
        return A.Lambda(lam.params, b2, lam.ret_types)

    e = map_exp_bodies(e, on_body)
    e = map_exp_lambdas(e, on_lambda)
    return e


# ---------------------------------------------------------------------------
# Vertical (producer-consumer) fusion
# ---------------------------------------------------------------------------


def _vertical_pass(
    body: A.Body, names: NameSource, stats: FusionStats, nested: bool
) -> A.Body:
    changed = True
    while changed:
        changed = False
        producers = producer_index(body)
        for ci, consumer in enumerate(body.bindings):
            fused = _try_fuse_consumer(body, ci, producers, names, nested)
            if fused is not None:
                body = fused
                stats.vertical += 1
                changed = True
                break
    return body


def _try_fuse_consumer(
    body: A.Body,
    ci: int,
    producers: Dict[str, int],
    names: NameSource,
    nested: bool = False,
) -> Optional[A.Body]:
    consumer = body.bindings[ci]
    c_exp = consumer.exp
    if not isinstance(
        c_exp,
        (A.MapExp, A.ReduceExp, A.StreamMapExp, A.StreamRedExp, A.StreamSeqExp),
    ):
        return None
    for arr in _consumer_inputs(c_exp):
        pi = producers.get(arr.name)
        if pi is None or pi >= ci:
            continue
        producer = body.bindings[pi]
        p_exp = producer.exp
        if not isinstance(p_exp, (A.MapExp, A.StreamMapExp)):
            continue
        if p_exp.width != c_exp.width:
            continue
        if not single_consumer(body, pi, ci):
            continue
        protected = free_vars_exp(p_exp) | {
            a.name for a in p_exp.arrs
        }
        if consumption_between(body, pi, ci, protected):
            continue
        fused_bnd = _fuse_pair(producer, consumer, names, nested)
        if fused_bnd is None:
            continue
        bindings = list(body.bindings)
        bindings[ci] = fused_bnd
        del bindings[pi]
        return A.Body(tuple(bindings), body.result)
    return None


def _consumer_inputs(e: A.Exp) -> Tuple[A.Var, ...]:
    return e.arrs


def _fuse_pair(
    producer: A.Binding,
    consumer: A.Binding,
    names: NameSource,
    nested: bool = False,
) -> Optional[A.Binding]:
    p_exp, c_exp = producer.exp, consumer.exp

    if isinstance(p_exp, A.MapExp):
        if isinstance(c_exp, A.MapExp):
            return _fuse_map_map(producer, consumer, names)
        if isinstance(c_exp, A.ReduceExp):
            if nested:
                # Keep nested reductions segmentable (see fuse_body).
                return None
            stream = reduce_to_stream_red(c_exp, names)
            pseudo = A.Binding(consumer.pat, stream)
            return _fuse_map_stream(producer, pseudo, names)
        if isinstance(
            c_exp, (A.StreamMapExp, A.StreamRedExp, A.StreamSeqExp)
        ):
            return _fuse_map_stream(producer, consumer, names)
        return None

    if isinstance(p_exp, A.StreamMapExp):
        if isinstance(c_exp, A.ReduceExp):
            if nested:
                return None
            stream = reduce_to_stream_red(c_exp, names)
            pseudo = A.Binding(consumer.pat, stream)
            return _fuse_stream_map_stream(producer, pseudo, names)
        if isinstance(c_exp, (A.StreamMapExp, A.StreamRedExp)):
            return _fuse_stream_map_stream(producer, consumer, names)
        return None

    return None


def _fuse_map_map(
    producer: A.Binding, consumer: A.Binding, names: NameSource
) -> A.Binding:
    p_exp: A.MapExp = producer.exp
    c_exp: A.MapExp = consumer.exp
    produced = {p.name: i for i, p in enumerate(producer.pat)}

    p_lam = alpha_rename_lambda(p_exp.lam, names)
    c_lam = alpha_rename_lambda(c_exp.lam, names)

    # Deduplicated input list: array variable -> parameter.
    arr_params: Dict[str, A.Param] = {}
    new_arrs: List[A.Var] = []
    for p, arr in zip(p_lam.params, p_exp.arrs):
        if arr.name not in arr_params:
            arr_params[arr.name] = p
            new_arrs.append(arr)

    p_subst = {
        p.name: A.Var(arr_params[arr.name].name)
        for p, arr in zip(p_lam.params, p_exp.arrs)
    }
    p_body = substitute_body(p_lam.body, p_subst)

    c_subst: Dict[str, A.Atom] = {}
    for p, arr in zip(c_lam.params, c_exp.arrs):
        if arr.name in produced:
            c_subst[p.name] = p_body.result[produced[arr.name]]
        elif arr.name in arr_params:
            c_subst[p.name] = A.Var(arr_params[arr.name].name)
        else:
            arr_params[arr.name] = p
            new_arrs.append(arr)
    c_body = substitute_body(c_lam.body, c_subst)

    params = tuple(arr_params[a.name] for a in new_arrs)
    lam = A.Lambda(
        params,
        A.Body(
            tuple(p_body.bindings) + tuple(c_body.bindings),
            c_body.result,
        ),
        c_lam.ret_types,
    )
    fused = A.MapExp(c_exp.width, lam, tuple(new_arrs))
    return A.Binding(consumer.pat, fused)


def _fuse_map_stream(
    producer: A.Binding, consumer: A.Binding, names: NameSource
) -> A.Binding:
    """Fuse a producer map into a stream's fold function: produced
    chunk inputs are computed per chunk by running the map."""
    p_exp: A.MapExp = producer.exp
    c_exp = consumer.exp
    produced = {p.name: i for i, p in enumerate(producer.pat)}

    fold_lam = (
        c_exp.fold_lam if isinstance(c_exp, A.StreamRedExp) else c_exp.lam
    )
    n_accs = 0 if isinstance(c_exp, A.StreamMapExp) else c_exp.num_accs
    fold_lam = alpha_rename_lambda(fold_lam, names)
    chunk_param = fold_lam.params[0]
    acc_params = fold_lam.params[1 : 1 + n_accs]
    arr_params = fold_lam.params[1 + n_accs :]

    p_lam = alpha_rename_lambda(p_exp.lam, names)

    # New chunk parameters for the producer's inputs.
    arr_params_by_input: Dict[str, A.Param] = {}
    new_arrs: List[A.Var] = []
    new_chunk_params: List[A.Param] = []
    for p, arr in zip(p_lam.params, p_exp.arrs):
        if arr.name not in arr_params_by_input:
            t = p.type
            chunk_t = (
                Array(t.elem, (chunk_param.name,) + t.shape)
                if isinstance(t, Array)
                else Array(t.t, (chunk_param.name,))
            )
            cp = A.Param(names.fresh(f"{arr.name}_chunk"), chunk_t)
            arr_params_by_input[arr.name] = cp
            new_arrs.append(arr)
            new_chunk_params.append(cp)

    # Inner map over the chunk producing the fused inputs.
    out_names = [names.fresh("yc") for _ in producer.pat]
    out_types = []
    for t in p_lam.ret_types:
        out_types.append(
            Array(t.elem, (chunk_param.name,) + t.shape)
            if isinstance(t, Array)
            else Array(t.t, (chunk_param.name,))
        )
    inner_map = A.MapExp(
        A.Var(chunk_param.name),
        p_lam,
        tuple(
            A.Var(arr_params_by_input[arr.name].name)
            for arr in p_exp.arrs
        ),
    )
    prefix = A.Binding(
        tuple(A.Param(n, t) for n, t in zip(out_names, out_types)),
        inner_map,
    )

    # Wire the fold's chunk parameters.
    subst: Dict[str, A.Atom] = {}
    kept_params: List[A.Param] = []
    kept_arrs: List[A.Var] = []
    for p, arr in zip(arr_params, c_exp.arrs):
        if arr.name in produced:
            subst[p.name] = A.Var(out_names[produced[arr.name]])
        elif arr.name in arr_params_by_input:
            subst[p.name] = A.Var(arr_params_by_input[arr.name].name)
        else:
            kept_params.append(p)
            kept_arrs.append(arr)
    fold_body = substitute_body(fold_lam.body, subst)
    new_lam = A.Lambda(
        (chunk_param,)
        + tuple(acc_params)
        + tuple(new_chunk_params)
        + tuple(kept_params),
        A.Body((prefix,) + tuple(fold_body.bindings), fold_body.result),
        fold_lam.ret_types,
    )
    all_arrs = tuple(new_arrs) + tuple(kept_arrs)

    if isinstance(c_exp, A.StreamRedExp):
        fused: A.Exp = A.StreamRedExp(
            c_exp.width, c_exp.red_lam, new_lam, c_exp.accs, all_arrs
        )
    elif isinstance(c_exp, A.StreamSeqExp):
        fused = A.StreamSeqExp(c_exp.width, new_lam, c_exp.accs, all_arrs)
    else:
        fused = A.StreamMapExp(c_exp.width, new_lam, all_arrs)
    return A.Binding(consumer.pat, fused)


def _fuse_stream_map_stream(
    producer: A.Binding, consumer: A.Binding, names: NameSource
) -> A.Binding:
    """Fuse a producer stream_map into a consumer stream (Fig. 10b):
    the producer's fold runs per chunk inside the consumer's fold.
    Sound because stream_map is partition-invariant by obligation."""
    p_exp: A.StreamMapExp = producer.exp
    c_exp = consumer.exp
    produced = {p.name: i for i, p in enumerate(producer.pat)}

    fold_lam = (
        c_exp.fold_lam if isinstance(c_exp, A.StreamRedExp) else c_exp.lam
    )
    n_accs = 0 if isinstance(c_exp, A.StreamMapExp) else c_exp.num_accs
    fold_lam = alpha_rename_lambda(fold_lam, names)
    chunk_param = fold_lam.params[0]
    acc_params = fold_lam.params[1 : 1 + n_accs]
    arr_params = fold_lam.params[1 + n_accs :]

    p_lam = alpha_rename_lambda(p_exp.lam, names)
    # The producer's chunk params become new chunk params of the fused
    # fold, at the consumer's chunk size.
    p_chunk_param = p_lam.params[0]
    p_arr_params = list(p_lam.params[1:])
    p_body = substitute_body(
        p_lam.body, {p_chunk_param.name: A.Var(chunk_param.name)}
    )
    renamed_params = []
    for p in p_arr_params:
        t = p.type
        if isinstance(t, Array) and t.shape[0] == p_chunk_param.name:
            t = Array(t.elem, (chunk_param.name,) + t.shape[1:])
        renamed_params.append(A.Param(p.name, t))

    subst: Dict[str, A.Atom] = {}
    kept_params: List[A.Param] = []
    kept_arrs: List[A.Var] = []
    for p, arr in zip(arr_params, c_exp.arrs):
        if arr.name in produced:
            subst[p.name] = p_body.result[produced[arr.name]]
        else:
            kept_params.append(p)
            kept_arrs.append(arr)
    fold_body = substitute_body(fold_lam.body, subst)
    new_lam = A.Lambda(
        (chunk_param,)
        + tuple(acc_params)
        + tuple(renamed_params)
        + tuple(kept_params),
        A.Body(
            tuple(p_body.bindings) + tuple(fold_body.bindings),
            fold_body.result,
        ),
        fold_lam.ret_types,
    )
    all_arrs = tuple(p_exp.arrs) + tuple(kept_arrs)

    if isinstance(c_exp, A.StreamRedExp):
        fused: A.Exp = A.StreamRedExp(
            c_exp.width, c_exp.red_lam, new_lam, c_exp.accs, all_arrs
        )
    else:
        fused = A.StreamMapExp(c_exp.width, new_lam, all_arrs)
    return A.Binding(consumer.pat, fused)


# ---------------------------------------------------------------------------
# Horizontal fusion
# ---------------------------------------------------------------------------


def _horizontal_pass(
    body: A.Body, names: NameSource, stats: FusionStats
) -> A.Body:
    changed = True
    while changed:
        changed = False
        defined_at: Dict[str, int] = producer_index(body)
        for i in range(len(body.bindings)):
            for j in range(i + 1, len(body.bindings)):
                merged = _try_horizontal(body, i, j, defined_at, names)
                if merged is not None:
                    body = merged
                    stats.horizontal += 1
                    changed = True
                    break
            if changed:
                break
    return body


def _try_horizontal(
    body: A.Body,
    i: int,
    j: int,
    defined_at: Dict[str, int],
    names: NameSource,
) -> Optional[A.Body]:
    b1, b2 = body.bindings[i], body.bindings[j]
    e1, e2 = b1.exp, b2.exp
    same_kind = (
        (isinstance(e1, A.MapExp) and isinstance(e2, A.MapExp))
        or (isinstance(e1, A.ReduceExp) and isinstance(e2, A.ReduceExp))
        or (
            isinstance(e1, A.StreamRedExp)
            and isinstance(e2, A.StreamRedExp)
        )
    )
    if not same_kind or e1.width != e2.width:
        return None
    out1 = set(b1.names())
    if free_vars_exp(e2) & out1:
        return None  # dependent: vertical fusion's job
    # The merged binding replaces position j; bindings strictly between
    # i and j move above it, which is sound only if none of them uses
    # b1's outputs (they cannot define b2's inputs *from* b1 either,
    # since b2 does not depend on b1).
    between = body.bindings[i + 1 : j]
    for bnd in between:
        if free_vars_exp(bnd.exp) & out1:
            return None
    # Anything e2 needs must be defined by position j (trivially true)
    # and anything defined later must not be needed (also trivial).
    # Keep clear of consumption: neither binding may itself consume
    # (stream accumulators are fresh per chunk and exempt), and
    # nothing strictly between them may consume what either observes
    # (e2 moves up past those bindings).
    from ..checker.uniqueness import exp_directly_consumes

    if not isinstance(e1, A.StreamRedExp) and (
        exp_directly_consumes(e1) or exp_directly_consumes(e2)
    ):
        return None
    protected = free_vars_exp(e2) | free_vars_exp(e1) | out1
    if consumption_between(body, i, j, protected):
        return None

    if isinstance(e1, A.MapExp):
        fused_exp, fused_pat = _merge_maps(b1, b2, names)
    elif isinstance(e1, A.ReduceExp):
        fused_exp, fused_pat = _merge_reduces(b1, b2, names)
    else:
        fused_exp, fused_pat = _merge_stream_reds(b1, b2, names)

    bindings = (
        list(body.bindings[:i])
        + list(between)
        + [A.Binding(fused_pat, fused_exp)]
        + list(body.bindings[j + 1 :])
    )
    return A.Body(tuple(bindings), body.result)


def _merge_maps(
    b1: A.Binding, b2: A.Binding, names: NameSource
) -> Tuple[A.Exp, Tuple[A.Param, ...]]:
    e1: A.MapExp = b1.exp
    e2: A.MapExp = b2.exp
    l1 = alpha_rename_lambda(e1.lam, names)
    l2 = alpha_rename_lambda(e2.lam, names)
    arr_params: Dict[str, A.Param] = {}
    new_arrs: List[A.Var] = []

    def wire(lam: A.Lambda, arrs) -> A.Body:
        subst: Dict[str, A.Atom] = {}
        for p, arr in zip(lam.params, arrs):
            if arr.name in arr_params:
                subst[p.name] = A.Var(arr_params[arr.name].name)
            else:
                arr_params[arr.name] = p
                new_arrs.append(arr)
        return substitute_body(lam.body, subst)

    body1 = wire(l1, e1.arrs)
    body2 = wire(l2, e2.arrs)
    lam = A.Lambda(
        tuple(arr_params[a.name] for a in new_arrs),
        A.Body(
            tuple(body1.bindings) + tuple(body2.bindings),
            tuple(body1.result) + tuple(body2.result),
        ),
        tuple(l1.ret_types) + tuple(l2.ret_types),
    )
    fused = A.MapExp(e1.width, lam, tuple(new_arrs))
    return fused, tuple(b1.pat) + tuple(b2.pat)


def _merge_reduces(
    b1: A.Binding, b2: A.Binding, names: NameSource
) -> Tuple[A.Exp, Tuple[A.Param, ...]]:
    """The banana-split theorem: two folds over the same array(s) — or
    independent arrays of the same width — become one fold with the
    product operator."""
    e1: A.ReduceExp = b1.exp
    e2: A.ReduceExp = b2.exp
    l1 = alpha_rename_lambda(e1.lam, names)
    l2 = alpha_rename_lambda(e2.lam, names)
    n1, n2 = len(e1.neutral), len(e2.neutral)

    acc1 = list(l1.params[:n1])
    elem1 = list(l1.params[n1:])
    acc2 = list(l2.params[:n2])
    elem2 = list(l2.params[n2:])

    # A reduce pairs each accumulator with one input array, so the
    # fused reduce keeps both input lists (duplicates allowed).
    lam = A.Lambda(
        tuple(acc1) + tuple(acc2) + tuple(elem1) + tuple(elem2),
        A.Body(
            tuple(l1.body.bindings) + tuple(l2.body.bindings),
            tuple(l1.body.result) + tuple(l2.body.result),
        ),
        tuple(l1.ret_types) + tuple(l2.ret_types),
    )
    fused = A.ReduceExp(
        e1.width,
        lam,
        tuple(e1.neutral) + tuple(e2.neutral),
        tuple(e1.arrs) + tuple(e2.arrs),
        e1.comm and e2.comm,
    )
    return fused, tuple(b1.pat) + tuple(b2.pat)


def _merge_stream_reds(
    b1: A.Binding, b2: A.Binding, names: NameSource
) -> Tuple[A.Exp, Tuple[A.Param, ...]]:
    """F6 with x = ∅ (horizontal): two independent stream_reds over the
    same width become one, tupling accumulators and serialising the
    fold bodies over merged chunk inputs."""
    e1: A.StreamRedExp = b1.exp
    e2: A.StreamRedExp = b2.exp
    r1 = alpha_rename_lambda(e1.red_lam, names)
    r2 = alpha_rename_lambda(e2.red_lam, names)
    f1 = alpha_rename_lambda(e1.fold_lam, names)
    f2 = alpha_rename_lambda(e2.fold_lam, names)
    n1, n2 = e1.num_accs, e2.num_accs

    # Combined reduction operator: component-wise product.
    red_lam = A.Lambda(
        tuple(r1.params[:n1])
        + tuple(r2.params[:n2])
        + tuple(r1.params[n1:])
        + tuple(r2.params[n2:]),
        A.Body(
            tuple(r1.body.bindings) + tuple(r2.body.bindings),
            tuple(r1.body.result) + tuple(r2.body.result),
        ),
        tuple(r1.ret_types) + tuple(r2.ret_types),
    )

    # Combined fold: share the chunk-size parameter, deduplicate chunk
    # inputs for identical arrays.  f2 sized its chunk inputs and array
    # results by its own chunk parameter, in its types as well as its
    # body: both are renamed to the shared one.
    q = f1.params[0]
    dims = {f2.params[0].name: q.name}
    f2 = A.Lambda(
        tuple(
            A.Param(p.name, substitute_dims(p.type, dims), p.unique)
            for p in f2.params
        ),
        substitute_body(f2.body, {f2.params[0].name: A.Var(q.name)}),
        tuple(substitute_dims(t, dims) for t in f2.ret_types),
    )
    acc_params = tuple(f1.params[1 : 1 + n1]) + tuple(
        f2.params[1 : 1 + n2]
    )
    arr_params: Dict[str, A.Param] = {}
    new_arrs: List[A.Var] = []
    subst2: Dict[str, A.Atom] = {}
    for p, arr in zip(f1.params[1 + n1 :], e1.arrs):
        if arr.name not in arr_params:
            arr_params[arr.name] = p
            new_arrs.append(arr)
    for p, arr in zip(f2.params[1 + n2 :], e2.arrs):
        if arr.name in arr_params:
            subst2[p.name] = A.Var(arr_params[arr.name].name)
        else:
            arr_params[arr.name] = p
            new_arrs.append(arr)
    f2_body = substitute_body(f2.body, subst2)
    fold_lam = A.Lambda(
        (q,)
        + acc_params
        + tuple(arr_params[a.name] for a in new_arrs),
        A.Body(
            tuple(f1.body.bindings) + tuple(f2_body.bindings),
            tuple(f1.body.result[:n1])
            + tuple(f2_body.result[:n2])
            + tuple(f1.body.result[n1:])
            + tuple(f2_body.result[n2:]),
        ),
        tuple(f1.ret_types[:n1])
        + tuple(f2.ret_types[:n2])
        + tuple(f1.ret_types[n1:])
        + tuple(f2.ret_types[n2:]),
    )
    fused = A.StreamRedExp(
        e1.width,
        red_lam,
        fold_lam,
        tuple(e1.accs) + tuple(e2.accs),
        tuple(new_arrs),
    )
    pat = (
        tuple(b1.pat[:n1])
        + tuple(b2.pat[:n2])
        + tuple(b1.pat[n1:])
        + tuple(b2.pat[n2:])
    )
    return fused, pat
