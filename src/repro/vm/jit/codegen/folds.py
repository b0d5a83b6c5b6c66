"""``reduce``, ``scan`` and the streams.

An operator NumPy has a ufunc for folds natively, and one that selects
an argument by a key — argmin, argmax — is one ``np.argmin`` or
``np.argmax``, at kernel level or along the rows of a batch
(:func:`gen_select`).  Any other associative fold runs the way a GPU
runs it where that cannot move a trap: a kernel-level ``reduce`` as an
order-preserving pairwise tree that copies only at odd levels, a
``stream_red`` with one chunk per lane — one batch of lanes where
``R.lane_groups`` finds one — and a tree over the lane accumulators
(:func:`tree_combine`).  The rest — trap sites, every non-ufunc
``scan``, any other reduce inside a batch, ``stream_seq`` — keep the
interpreter's order (:func:`fold_sequential`).
"""

from __future__ import annotations

from typing import Callable, List

from ....core import ast as A
from ....core.prim import I32
from .control import (
    fixpoint, require_kds, splice_arm, state_advance, state_init, state_join,
)
from .elementwise import _simple_op, _trap_free, _ufunc_src, dtype_fix, np_binop
from .maps import apply_batched, row, soac_inputs
from .values import (
    KD, JitUnsupported, JVal, _Emitter, _Scope, _join_kd, _jvals, _kd,
)

# -- reduce / scan -----------------------------------------------------------


def combine(
    cg, op: str, neutral: JVal, red_var: str, red_ndim: int,
    red_batched: bool, scan: bool,
) -> JVal:
    """``neutral (+) folded`` exactly as ``_combine`` computes it."""
    batched = red_batched or neutral.kind == "B"
    nd = neutral
    nd_ndim = neutral.ndim
    if scan and neutral.kind == "B":
        ndv = cg.fresh("_nd")
        cg.line(f"{ndv} = {neutral.var}[:, None]")
        nd = JVal("B", neutral.elem, neutral.rank + 1, ndv)
        nd_ndim += 1
    red = JVal("A", neutral.elem, red_ndim, red_var)  # an ndarray
    out = np_binop(cg, op, neutral.elem, nd, red)
    dtype_fix(cg, out, neutral.elem)
    ndim = max(nd_ndim, red_ndim)
    if batched:
        return JVal("B", neutral.elem, ndim - 1, out, False)
    if ndim == 0:
        s = cg.fresh()
        cg.line(f"{s} = {out}.item()")
        return JVal("S", neutral.elem, 0, s)
    return JVal("A", neutral.elem, ndim, out, False)


def fold_ufunc(op, vals: List[JVal], neutral: List[JVal]):
    """The ufunc a single-valued fold with operator ``op`` can run on
    natively, or None."""
    if len(vals) == 1 and len(neutral) == 1:
        return _ufunc_src(op, vals[0].elem)
    return None


#: A comparison with its operands swapped, and negated.
_SWAPPED = {"lt": "gt", "gt": "lt", "le": "ge", "ge": "le"}
_NEGATED = {"lt": "ge", "ge": "lt", "le": "gt", "gt": "le"}


def selection(lam: A.Lambda):
    """``(k, op)`` when ``lam`` returns one of its two arguments whole,
    chosen by comparing their component ``k`` — ``if b.k op a.k then b
    else a`` once normalised, ``op`` one of ``lt``/``le``/``gt``/``ge``
    — else None."""
    n, odd = divmod(len(lam.params), 2)
    body = lam.body
    if odd or not n or len(body.bindings) != 2:
        return None
    a = tuple(A.Var(p.name) for p in lam.params[:n])
    b = tuple(A.Var(p.name) for p in lam.params[n:])
    test, pick = body.bindings
    cmp, sel = test.exp, pick.exp
    if not (
        isinstance(cmp, A.CmpOpExp) and cmp.op in _SWAPPED
        and not cmp.t.is_bool
        and isinstance(sel, A.IfExp) and sel.cond == A.Var(test.pat[0].name)
        and not sel.t_body.bindings and not sel.f_body.bindings
        and body.result == tuple(A.Var(p.name) for p in pick.pat)
    ):
        return None
    pairs = list(zip(b, a))
    if (cmp.x, cmp.y) in pairs:
        k, op = pairs.index((cmp.x, cmp.y)), cmp.op
    elif (cmp.y, cmp.x) in pairs:
        k, op = pairs.index((cmp.y, cmp.x)), _SWAPPED[cmp.op]
    else:
        return None
    arms = (sel.t_body.result, sel.f_body.result)
    if arms == (a, b):
        return k, _NEGATED[op]
    return (k, op) if arms == (b, a) else None


def gen_select(cg, e: A.ReduceExp, scope: _Scope):
    """A selecting reduce (:func:`selection`) as one ``np.argmin`` or
    ``np.argmax`` of the keys — along the inner axis inside a batch, a
    segmented reduction — or None when ``e`` is not one.  A strict
    comparison keeps the leftmost extreme, as the left fold does, and a
    non-strict one the rightmost; the selected row (copied: a result
    is never a view of an input) then meets the neutral element as the
    operator is written.  Keys with no total order — a NaN — hand the
    launch over."""
    found = selection(e.lam)
    if found is None:
        return None
    k, op = found
    w, vals = soac_inputs(cg, scope, e.width, e.arrs, "reduce")
    neutral = [cg.atom(scope, a) for a in e.neutral]
    keys = vals[k]
    lanes = keys.kind == "B"

    def folded() -> List[JVal]:
        at = cg.fresh("_j")
        find = "np.argmin" if op in ("lt", "le") else "np.argmax"
        axis = ", axis=1" if lanes else ""
        if op in ("lt", "gt"):
            cg.line(f"{at} = {find}({keys.var}{axis})")
        else:
            flip = "[:, ::-1]" if lanes else "[::-1]"
            cg.line(f"{at} = {w} - 1 - {find}({keys.var}{flip}{axis})")
        rows = [picked(cg, v, at, lanes) for v in vals]
        if keys.elem.is_float:
            # np.argmin/argmax stop at a NaN: it is the selected key.
            nan = f"np.isnan({rows[k].var}).any()" if lanes else (
                f"{rows[k].var} != {rows[k].var}")
            cg.hand_over_if(nan, "NaN key in a selecting reduce")
        return cg.gen_lambda(e.lam, neutral + rows, scope)

    return unless_empty(cg, w, neutral, folded)


def picked(cg, v: JVal, at: str, lanes: bool) -> JVal:
    """The row of the reduce input ``v`` at ``at`` — a position, or one
    per lane of the batch — copied if it is an array."""
    out = cg.fresh("_r")
    if not lanes:
        if v.kind == "B":
            cg.line(f"{out} = {v.var}[:, {at}].copy()")
            return JVal("B", v.elem, v.rank - 1, out, True)
        if v.rank == 1:
            cg.line(f"{out} = {v.var}[{at}].item()")
            return JVal("S", v.elem, 0, out)
        cg.line(f"{out} = {v.var}[{at}].copy()")
        return JVal("A", v.elem, v.rank - 1, out, True)
    sub = f"R.arange({cg.extent}), {at}" if v.kind == "B" else at
    cg.line(f"{out} = {v.var}[{sub}]")
    return JVal("B", v.elem, v.rank - 1, out, True)


def gen_reduce(cg, e: A.ReduceExp, scope: _Scope):
    selected = gen_select(cg, e, scope)
    if selected is not None:
        return selected
    w, vals = soac_inputs(cg, scope, e.width, e.arrs, "reduce")
    neutral = [cg.atom(scope, a) for a in e.neutral]
    op = _simple_op(e.lam)
    ufunc = fold_ufunc(op, vals, neutral)
    if ufunc is not None:
        v = vals[0]
        axis = 1 if v.kind == "B" else 0
        red = cg.fresh("_red")

        def folded() -> List[JVal]:
            cg.line(f"{red} = {ufunc}.reduce({v.var}, axis={axis})")
            return [
                combine(
                    cg, op, neutral[0], red, v.ndim - 1,
                    v.kind == "B", scan=False,
                )
            ]

        return unless_empty(cg, w, neutral, folded)
    if cg.depth == 0 and _trap_free(e.lam.body):
        return reduce_tree(cg, e.lam, neutral, vals, w, scope)
    return fold_sequential(cg, e.lam, neutral, vals, w, scope, scan=False)


def unless_empty(
    cg, w: str, neutral: List[JVal], compute: Callable[[], List[JVal]]
) -> List[JVal]:
    """What ``compute`` emits and returns, or the neutrals untouched
    when the width is 0; both paths must produce the same static
    kinds, so join them."""
    buf, outs = cg._capture(compute)
    if len(outs) != len(neutral):
        raise JitUnsupported("fold arity mismatch")
    kds = [_join_kd(_kd(n), _kd(o)) for n, o in zip(neutral, outs)]
    res = [cg.fresh("_o") for _ in kds]
    cg.line(f"if {w} == 0:")
    with cg.indented():
        splice_arm(cg, _Emitter(), neutral, kds, res)
    cg.line("else:")
    with cg.indented():
        splice_arm(cg, buf, outs, kds, res)
    return _jvals(kds, res)


def tree_combine(
    cg, lam: A.Lambda, vals: List[JVal], n: str, scope: _Scope
) -> List[JVal]:
    """Fold the ``n >= 1`` rows of the uniform arrays ``vals`` with
    ``lam`` as a pairwise tree: each step applies ``lam`` once, in
    batched mode, to ``x[0:2h:2]`` and ``x[1:2h:2]`` and carries an
    odd last row over (the one copy), so the rows stay in order and
    only associativity is assumed — never commutativity.  Returns
    the row left after ``ceil(log2 n)`` steps, copied if an array: it
    may be a view of ``vals`` (an ``if`` arm returns its operand)."""
    cur = [cg.fresh("_s") for _ in vals]
    for s, v in zip(cur, vals):
        cg.line(f"{s} = {v.var}")
    count, half = cg.fresh("_n"), cg.fresh("_h")
    cg.line(f"{count} = {n}")
    cg.line(f"while {count} > 1:")
    with cg.indented():
        cg.line(f"{half} = {count} >> 1")
        sides: List[JVal] = []
        for first in (0, 1):
            for s, v in zip(cur, vals):
                x = cg.fresh("_x")
                cg.line(f"{x} = {s}[{first}:2 * {half}:2]")
                sides.append(JVal("B", v.elem, v.rank - 1, x))
        outs = apply_batched(cg, lam, sides, half, scope)
        if len(outs) != len(vals):
            raise JitUnsupported("fold arity mismatch")
        for s, v, o in zip(cur, vals, outs):
            if o.elem is not v.elem or o.rank != v.rank - 1:
                raise JitUnsupported(
                    "fold operator changes its operand type"
                )
            cg.line(
                f"{s} = np.concatenate(({o.var}, {s}[2 * {half}:])) "
                f"if {count} & 1 else {o.var}"
            )
        cg.line(f"{count} -= {half}")
    firsts = []
    for s, v in zip(cur, vals):
        f = row(cg, JVal("A", v.elem, v.rank, s), "0")
        if f.kind == "A":
            cg.line(f"{f.var} = {f.var}.copy()")
            f = JVal("A", f.elem, f.rank, f.var, True)
        firsts.append(f)
    return firsts


def reduce_tree(
    cg, lam: A.Lambda, neutral: List[JVal], vals: List[JVal],
    w: str, scope: _Scope,
):
    """A kernel-level reduce with a trap-free operator: the tree,
    then one uniform ``neutral (+) folded`` application."""

    def folded() -> List[JVal]:
        firsts = tree_combine(cg, lam, vals, w, scope)
        return cg.gen_lambda(lam, neutral + firsts, scope)

    return unless_empty(cg, w, neutral, folded)


def gen_scan(cg, e: A.ScanExp, scope: _Scope):
    w, vals = soac_inputs(
        cg, scope, e.width, e.arrs, "scan", empty="zero-width scan"
    )
    neutral = [cg.atom(scope, a) for a in e.neutral]
    op = _simple_op(e.lam)
    ufunc = fold_ufunc(op, vals, neutral)
    if ufunc is not None:
        v = vals[0]
        axis = 1 if v.kind == "B" else 0
        acc = cg.fresh("_acc")
        cg.line(f"{acc} = {ufunc}.accumulate({v.var}, axis={axis})")
        return [
            combine(
                cg, op, neutral[0], acc, v.ndim, v.kind == "B", scan=True
            )
        ]
    return fold_sequential(cg, e.lam, neutral, vals, w, scope, scan=True)


def fold_sequential(
    cg, lam: A.Lambda, neutral: List[JVal], vals: List[JVal],
    w: str, scope: _Scope, scan: bool,
):
    """The general fold: a runtime loop applying the lambda row by
    row, with the accumulator kinds stabilized by fixpoint."""
    slots = [cg.fresh("_s") for _ in neutral]
    nexts = [cg.fresh("_n") for _ in neutral]
    i = cg.fresh("_i")
    cols = [cg.fresh("_col") for _ in neutral] if scan else []

    def attempt(kds: List[KD]) -> List[KD]:
        acc = state_init(cg, neutral, kds, slots)
        for c in cols:
            cg.line(f"{c} = []")
        cg.line(f"for {i} in range(int({w})):")
        with cg.indented():
            args = acc + [row(cg, v, i) for v in vals]
            outs = cg.gen_lambda(lam, args, scope)
            if len(outs) != len(acc):
                raise JitUnsupported("fold arity mismatch")
            new_kds = state_join(kds, outs)
            require_kds(kds, new_kds)
            state_advance(cg, outs, kds, slots, nexts)
            for c, s in zip(cols, slots):
                cg.line(f"{c}.append({s})")
        return new_kds

    kds = fixpoint(cg, [_kd(v) for v in neutral], attempt)
    if not scan:
        return _jvals(kds, slots)
    results = []
    for c, (kind, elem, rank, owned) in zip(cols, kds):
        out = cg.fresh()
        if kind == "B":
            cg.line(f"{out} = np.stack({c}, axis=1)")
            results.append(JVal("B", elem, rank + 1, out, False))
        elif kind == "S":
            cg.line(f"{out} = np.array({c}, dtype={cg._dt(elem)})")
            results.append(JVal("A", elem, 1, out, False))
        else:
            cg.line(f"{out} = np.stack({c})")
            results.append(JVal("A", elem, rank + 1, out, False))
    return results


# -- streams -----------------------------------------------------------------


def stream_inputs(cg, scope: _Scope, e, what: str):
    w, vals = soac_inputs(
        cg, scope, e.width, e.arrs, what, empty=f"zero-width {what}"
    )
    if cg.depth > 0 or any(v.kind == "B" for v in vals):
        raise JitUnsupported(f"batched {what}")
    return w, vals


def chunk_slices(cg, vals, size: str, off: str) -> List[JVal]:
    out = []
    for v in vals:
        c = cg.fresh("_ch")
        cg.line(f"{c} = {v.var}[{off}:{off} + {size}]")
        out.append(JVal("A", v.elem, v.rank, c, v.owned))
    return out


def concat_pieces(cg, pieces: str, w: str, elem, rank) -> JVal:
    out = cg.fresh()
    cg.line(f"{out} = np.concatenate({pieces}, axis=0)")
    cg.hand_over_if(
        f"{out}.shape[0] != {w}", "chunk results do not reassemble"
    )
    return JVal("A", elem, rank, out, False)


def gen_stream_red(cg, e: A.StreamRedExp, scope: _Scope):
    """Every chunk of ``R.lane_groups(w)`` folds on its own lane:
    the fold body runs once per group of equal-size chunks, over a
    batch of that group's lanes, and the lane accumulators — in
    stream order — are tree-combined with the reduction operator."""
    w, vals = stream_inputs(cg, scope, e, "stream_red")
    n_acc = e.num_accs
    init = [cg.atom(scope, a) for a in e.accs]
    if any(a.kind == "B" for a in init):
        raise JitUnsupported("batched stream_red accumulator")
    n_arr_out = len(e.fold_lam.ret_types) - n_acc
    lane_accs = [cg.fresh("_ps") for _ in range(n_acc)]
    pieces = [cg.fresh("_ps") for _ in range(n_arr_out)]
    for p in lane_accs + pieces:
        cg.line(f"{p} = []")
    lanes, size, off = (
        cg.fresh("_lanes"), cg.fresh("_size"), cg.fresh("_off")
    )
    cg.line(f"for {lanes}, {size}, {off} in R.lane_groups({w}):")
    with cg.indented():
        args = [JVal("S", I32, 0, size)]
        for a in init:
            # Each lane starts from its own copy of the initial
            # accumulator, which the fold may then update in place.
            ci = cg.fresh("_ci")
            shape = f"({lanes},)"
            if a.kind == "A":
                shape += f" + {a.var}.shape"
            cg.line(
                f"{ci} = np.broadcast_to({cg._asarray(a)}, {shape})"
                ".copy()"
            )
            args.append(JVal("B", a.elem, a.rank, ci, True))
        for v in vals:
            c = cg.fresh("_ch")
            cg.line(
                f"{c} = {v.var}[{off}:{off} + {lanes} * {size}]"
                f".reshape(({lanes}, {size}) + {v.var}.shape[1:])"
            )
            args.append(JVal("B", v.elem, v.rank, c, v.owned))
        outs = apply_batched(cg, e.fold_lam, args, lanes, scope)
        if len(outs) != n_acc + n_arr_out:
            raise JitUnsupported("stream_red arity mismatch")
        for a, o in zip(init, outs):
            if o.elem is not a.elem or o.rank != a.rank:
                raise JitUnsupported(
                    "stream_red fold changes its accumulator type"
                )
        for p, o in zip(lane_accs, outs):
            cg.line(f"{p}.append({o.var})")
        for p, o in zip(pieces, outs[n_acc:]):
            if o.rank == 0:
                raise JitUnsupported(
                    "stream_red chunk result must be an array"
                )
            # (lanes, size', ...) flattens back into stream order.
            cg.line(
                f"{p}.append({o.var}.reshape(({o.var}.shape[0] * "
                f"{o.var}.shape[1],) + {o.var}.shape[2:]))"
            )
    rows = []
    for p, a in zip(lane_accs, init):
        cg.line(f"{p} = {p}[0] if len({p}) == 1 else np.concatenate({p})")
        rows.append(JVal("A", a.elem, a.rank + 1, p))
    if rows:
        rows = tree_combine(
            cg, e.red_lam, rows, f"{lane_accs[0]}.shape[0]", scope
        )
    arrays = [
        concat_pieces(cg, p, w, o.elem, o.rank)
        for p, o in zip(pieces, outs[n_acc:])
    ]
    return rows + arrays


def chunked_stream(cg, e, accs, what: str, scope: _Scope):
    """A stream run chunk by chunk in stream order, the accumulators
    ``accs`` threaded through (``stream_map`` has none)."""
    w, vals = stream_inputs(cg, scope, e, what)
    n_acc = len(accs)
    init = [cg.atom(scope, a) for a in accs]
    if any(a.kind == "B" for a in init):
        raise JitUnsupported(f"batched {what} accumulator")
    n_arr_out = len(e.lam.ret_types) - n_acc
    pieces = [cg.fresh("_ps") for _ in range(n_arr_out)]
    slots = [cg.fresh("_s") for _ in range(n_acc)]
    nexts = [cg.fresh("_n") for _ in range(n_acc)]
    size, off = cg.fresh("_size"), cg.fresh("_off")
    arr_info: List[JVal] = []

    def attempt(kds: List[KD]) -> List[KD]:
        acc_in = state_init(cg, init, kds, slots)
        for p in pieces:
            cg.line(f"{p} = []")
        cg.line(f"for {size}, {off} in R.chunks({w}):")
        with cg.indented():
            chunks = chunk_slices(cg, vals, size, off)
            args = [JVal("S", I32, 0, size)] + acc_in + chunks
            outs = cg.gen_lambda(e.lam, args, scope)
            chunk_acc = list(outs[:n_acc])
            arr_outs = list(outs[n_acc:])
            for p, o in zip(pieces, arr_outs):
                if o.kind != "A":
                    raise JitUnsupported(
                        f"{what} chunk result must be a uniform array"
                    )
                cg.line(f"{p}.append({o.var})")
            new_kds = state_join(kds, chunk_acc)
            require_kds(kds, new_kds)
            state_advance(cg, chunk_acc, kds, slots, nexts)
        arr_info.clear()
        arr_info.extend(arr_outs)
        return new_kds

    kds = fixpoint(cg, [_kd(v) for v in init], attempt)
    arrays = [
        concat_pieces(cg, p, w, o.elem, o.rank)
        for p, o in zip(pieces, arr_info)
    ]
    return _jvals(kds, slots) + arrays


def gen_stream_map(cg, e: A.StreamMapExp, scope: _Scope):
    return chunked_stream(cg, e, (), "stream_map", scope)


def gen_stream_seq(cg, e: A.StreamSeqExp, scope: _Scope):
    return chunked_stream(cg, e, e.accs, "stream_seq", scope)


RULES = {
    A.ReduceExp: gen_reduce,
    A.ScanExp: gen_scan,
    A.StreamMapExp: gen_stream_map,
    A.StreamRedExp: gen_stream_red,
    A.StreamSeqExp: gen_stream_seq,
}
