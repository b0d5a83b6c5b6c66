"""``reduce``, ``scan`` and the streams.

An operator NumPy has a ufunc for folds natively.  Any other
associative fold runs the way a GPU runs it where that cannot move a
trap: a kernel-level ``reduce`` as an order-preserving pairwise tree,
a ``stream_red`` with one chunk per lane and a tree over the lane
accumulators (:func:`tree_combine`).  What is left — operators with a
trap site, every non-ufunc ``scan``, a reduce met inside a batch,
``stream_seq`` — keeps the interpreter's left-to-right order
(:func:`fold_sequential`).
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
    out = np_binop(cg, op, neutral.elem, nd, red, False)
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


def gen_reduce(cg, e: A.ReduceExp, scope: _Scope, spec: bool):
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
    if cg.depth == 0 and _trap_free(e.lam):
        return reduce_tree(cg, e.lam, neutral, vals, w, scope, spec)
    return fold_sequential(
        cg, e.lam, neutral, vals, w, scope, spec, scan=False
    )


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
    cg, lam: A.Lambda, vals: List[JVal], n: str, scope: _Scope,
    spec: bool,
) -> List[JVal]:
    """Fold the ``n >= 1`` rows of the uniform arrays ``vals`` with
    ``lam`` as a pairwise tree: each step applies ``lam`` once, in
    batched mode, to ``x[0:2h:2]`` and ``x[1:2h:2]`` and carries an
    odd last row over, so the rows stay in order and only
    associativity is assumed — never commutativity.  Returns
    one-row arrays after ``ceil(log2 n)`` steps."""
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
        outs = apply_batched(cg, lam, sides, half, scope, spec)
        if len(outs) != len(vals):
            raise JitUnsupported("fold arity mismatch")
        for s, v, o in zip(cur, vals, outs):
            if o.elem is not v.elem or o.rank != v.rank - 1:
                raise JitUnsupported(
                    "fold operator changes its operand type"
                )
            cg.line(
                f"{s} = np.concatenate(({o.var}, {s}[2 * {half}:]))"
            )
        cg.line(f"{count} -= {half}")
    return [
        JVal("A", v.elem, v.rank, s) for s, v in zip(cur, vals)
    ]


def reduce_tree(
    cg, lam: A.Lambda, neutral: List[JVal], vals: List[JVal],
    w: str, scope: _Scope, spec: bool,
):
    """A kernel-level reduce with a trap-free operator: the tree,
    then one uniform ``neutral (+) folded`` application."""

    def folded() -> List[JVal]:
        rows = tree_combine(cg, lam, vals, w, scope, spec)
        firsts = [row(cg, r, "0") for r in rows]
        return cg.gen_lambda(lam, neutral + firsts, scope, spec)

    return unless_empty(cg, w, neutral, folded)


def gen_scan(cg, e: A.ScanExp, scope: _Scope, spec: bool):
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
    return fold_sequential(
        cg, e.lam, neutral, vals, w, scope, spec, scan=True
    )


def fold_sequential(
    cg, lam: A.Lambda, neutral: List[JVal], vals: List[JVal],
    w: str, scope: _Scope, spec: bool, scan: bool,
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
            outs = cg.gen_lambda(lam, args, scope, spec)
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


def gen_stream_red(cg, e: A.StreamRedExp, scope: _Scope, spec: bool):
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
        outs = apply_batched(cg, e.fold_lam, args, lanes, scope, spec)
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
        cg.line(f"{p} = np.concatenate({p}, axis=0)")
        rows.append(JVal("A", a.elem, a.rank + 1, p))
    if rows:
        rows = tree_combine(
            cg, e.red_lam, rows, f"{lane_accs[0]}.shape[0]", scope, spec
        )
    arrays = [
        concat_pieces(cg, p, w, o.elem, o.rank)
        for p, o in zip(pieces, outs[n_acc:])
    ]
    return [row(cg, r, "0") for r in rows] + arrays


def chunked_stream(cg, e, accs, what: str, scope: _Scope, spec: bool):
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
            outs = cg.gen_lambda(e.lam, args, scope, spec)
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


def gen_stream_map(cg, e: A.StreamMapExp, scope: _Scope, spec: bool):
    return chunked_stream(cg, e, (), "stream_map", scope, spec)


def gen_stream_seq(cg, e: A.StreamSeqExp, scope: _Scope, spec: bool):
    return chunked_stream(cg, e, e.accs, "stream_seq", scope, spec)


RULES = {
    A.ReduceExp: gen_reduce,
    A.ScanExp: gen_scan,
    A.StreamMapExp: gen_stream_map,
    A.StreamRedExp: gen_stream_red,
    A.StreamSeqExp: gen_stream_seq,
}
