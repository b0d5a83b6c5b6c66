"""Control flow: ``if``, ``for``/``while``, and what they share — the
speculative merge, the kind fixpoint and the loop-state hand-over.

Divergence is handled GPU-style: when the lanes of a batch disagree
both sides run speculatively and merge per lane (:func:`where`); when
they agree only the side taken runs, as written.  One step function
(in :func:`gen_loop`) emits that for every loop form — but one: a
``for`` that only accumulates into an array, ``acc[I] (+)= v``, is the
histogram a GPU runs as one scatter-accumulate over the whole
iteration space, and so does :func:`gen_accumulate`.  Ahead of a
stepped loop, its :func:`preheader` ranges the indices the loop reads
but does not bind, once.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, Tuple

from ....core import ast as A
from ....core.prim import I32
from ....core.traversal import exp_bodies, free_vars_body, free_vars_exp
from ....core.types import Array, Prim, array_of
from .arrays import checked_indices, index_range, update_target
from .elementwise import _ufunc_src
from .maps import map_over
from .values import (
    KD, JitUnsupported, JVal, _Emitter, _Scope, _join_kd, _jvals, _kd,
)

#: Lanes of one block of an accumulating loop's iteration space: what
#: bounds the extended batch however long the loop is.
ACCUMULATE_LANES = 1 << 15


class _Rewiden(Exception):
    """Internal: a fixpoint attempt assumed loop-state kinds that the
    body outgrew; retry with the widened ones."""

    def __init__(self, kds) -> None:
        super().__init__("rewiden")
        self.kds = kds


# -- speculative merge -------------------------------------------------------


def where(cg, mask: str, t: JVal, f: JVal) -> JVal:
    if t.rank != f.rank:
        raise JitUnsupported("merge of values with different ranks")
    tb = cg._coerce(t, ("B", t.elem, t.rank, False))
    fb = cg._coerce(f, ("B", f.elem, f.rank, False))
    m = mask
    if t.rank:
        m = f"{mask}.reshape({mask}.shape + (1,) * {t.rank})"
    out = cg.fresh()
    cg.line(f"{out} = np.where({m}, {tb.var}, {fb.var})")
    return JVal("B", t.elem, t.rank, out, True)


def widen_all_b(kds: List[KD]) -> List[KD]:
    return [("B", el, r, ow) for _, el, r, ow in kds]


# -- if ----------------------------------------------------------------------


def splice_arm(
    cg,
    buf: _Emitter,
    vals: List[JVal],
    kds: List[KD],
    outs: List[str],
) -> None:
    """Splice an if-arm and assign its (kind-coerced) results to
    the shared output locals."""
    cg.em.splice(buf)
    for kd, o, v in zip(kds, outs, vals):
        cv = cg._coerce(v, kd)
        cg.line(f"{o} = {cv.var}")


def gen_if(cg, e: A.IfExp, scope: _Scope, spec: bool):
    cond = cg.atom(scope, e.cond)
    if cond.kind == "A" or cond.rank != 0:
        raise JitUnsupported("if condition must be a boolean scalar")

    def arm(body: A.Body, sp: bool) -> Tuple[_Emitter, List[JVal]]:
        buf, vals = cg._capture(
            lambda: cg.gen_body(body, scope.child(), sp)
        )
        return buf, vals  # type: ignore[return-value]

    if cond.kind == "S":
        t_buf, t_vals = arm(e.t_body, spec)
        f_buf, f_vals = arm(e.f_body, spec)
        if len(t_vals) != len(f_vals):
            raise JitUnsupported("if arms produce different arities")
        kds = [_join_kd(_kd(t), _kd(f)) for t, f in zip(t_vals, f_vals)]
        outs = [cg.fresh("_o") for _ in kds]
        cg.line(f"if {cond.var}:")
        with cg.indented():
            splice_arm(cg, t_buf, t_vals, kds, outs)
        cg.line("else:")
        with cg.indented():
            splice_arm(cg, f_buf, f_vals, kds, outs)
        return _jvals(kds, outs)

    # Batched condition: convergent fast paths plus a speculative
    # both-arms merge (exactly `_eval_if`).
    tc_buf, tc_vals = arm(e.t_body, spec)
    fc_buf, fc_vals = arm(e.f_body, spec)
    ts_buf, ts_vals = arm(e.t_body, True)
    fs_buf, fs_vals = arm(e.f_body, True)
    arities = {len(v) for v in (tc_vals, fc_vals, ts_vals, fs_vals)}
    if len(arities) != 1:
        raise JitUnsupported("if arms produce different arities")
    kds = [
        _join_kd(
            _join_kd(_kd(a), _kd(b)), _join_kd(_kd(c), _kd(d))
        )
        for a, b, c, d in zip(tc_vals, fc_vals, ts_vals, fs_vals)
    ]
    # Divergent lanes make every result per-lane even when both
    # arms are uniform, so the static kind must be batched on all
    # three paths (the convergent arms broadcast into it).
    kds = widen_all_b(kds)
    outs = [cg.fresh("_o") for _ in kds]
    mask = cg.mask(cond)
    taken = cg.fresh("_c")  # one count answers "all?" and "none?"
    cg.line(f"{taken} = np.count_nonzero({mask})")
    cg.line(f"if {taken} == {mask}.size:")
    with cg.indented():
        splice_arm(cg, tc_buf, tc_vals, kds, outs)
    cg.line(f"elif {taken} == 0:")
    with cg.indented():
        splice_arm(cg, fc_buf, fc_vals, kds, outs)
    cg.line("else:")
    with cg.indented():
        cg.em.splice(ts_buf)
        cg.em.splice(fs_buf)
        for o, tv, fv in zip(outs, ts_vals, fs_vals):
            merged = where(cg, mask, tv, fv)
            cg.line(f"{o} = {merged.var}")
    # The speculative arm's np.where allocates fresh buffers, but
    # the convergent arms may return views — ownership must hold on
    # every path, so it joins across all three.
    return _jvals(kds, outs)


# -- the kind fixpoint -------------------------------------------------------


def require_kds(kds: List[KD], new_kds: List[KD]) -> None:
    """Abort the current fixpoint attempt if the loop body produced
    wider state kinds than assumed (the attempt's emitted code is
    discarded and regenerated under the new assumption)."""
    if new_kds != kds:
        raise _Rewiden(new_kds)


def fixpoint(
    cg, seeds: List[KD], attempt: Callable[[List[KD]], List[KD]]
) -> List[KD]:
    """Iterate ``attempt`` until the state kind descriptors it
    produces match the ones it assumed (widening is monotone:
    S/A -> B once, owned True -> False once, so this converges)."""
    kds = list(seeds)
    for _ in range(4 * len(seeds) + 8):
        try:
            buf, new = cg._capture(lambda: attempt(kds))
        except _Rewiden as rw:
            kds = list(rw.kds)
            continue
        if new == kds:
            cg.em.splice(buf)
            return kds
        kds = new
    raise JitUnsupported("loop state kinds failed to converge")


def state_join(kds: List[KD], results: List[JVal]) -> List[KD]:
    return [_join_kd(kd, _kd(r)) for kd, r in zip(kds, results)]


# -- loop state --------------------------------------------------------------


def state_init(
    cg, init: List[JVal], kds: List[KD], slots: List[str],
    precopy: bool = False,
) -> List[JVal]:
    """Assign the (coerced) initial values into the state locals.
    With ``precopy``, unowned arrays are copied when the converged
    state is owned — a copy-on-first-update hoisted out of the loop,
    so later iterations mutate in place."""
    for v, kd, s in zip(init, kds, slots):
        cv = cg._coerce(v, kd)
        kind, _, _, ow = kd
        if precopy and ow and kind != "S" and not cv.owned:
            cg.line(f"{s} = {cv.var}.copy()")
        else:
            cg.line(f"{s} = {cv.var}")
    return _jvals(kds, slots)


def state_advance(
    cg, results: List[JVal], kds: List[KD], slots: List[str],
    nexts: List[str],
) -> None:
    """Hand the (coerced) results of one step over to the state
    locals — staged through temps: a result may *be* another slot."""
    for n, r, kd in zip(nexts, results, kds):
        cv = cg._coerce(r, kd)
        cg.line(f"{n} = {cv.var}")
    for s, n in zip(slots, nexts):
        cg.line(f"{s} = {n}")


# -- loops -------------------------------------------------------------------


def accumulation(e: A.LoopExp):
    """``(levels, idxs, fold)`` when ``e`` is an accumulating loop,
    else None: a ``for`` nest over one array ``acc`` — one ``(ivar,
    bound, prefix)`` per loop, outermost first — whose innermost body
    is ``x = acc[idxs]``, ``t = x op v`` (``fold``) and, last, ``acc
    with [idxs] <- t``, among bindings (its prefix) that use none of
    the three.  No prefix reads ``acc`` or binds an inner loop's
    bound."""
    levels, sealed, held = [], [], set()
    while True:
        form, body = e.form, e.body
        if not (
            isinstance(form, A.ForLoop)
            and len(e.merge) == 1
            and body.bindings
        ):
            return None
        (acc, seed), = e.merge
        *prefix, last = body.bindings
        if not (
            isinstance(acc.type, Array)
            and (not sealed or seed == A.Var(sealed[-1]))
            and len(last.pat) == 1
            and body.result == (A.Var(last.pat[0].name),)
            and form.bound not in map(A.Var, held)
        ):
            return None
        sealed.append(acc.name)
        if not isinstance(last.exp, A.LoopExp):
            break
        levels.append((form.ivar, form.bound, tuple(prefix)))
        held |= {form.ivar}.union(*(b.names() for b in prefix))
        e = last.exp
    write = last.exp
    if not isinstance(write, A.UpdateExp) or write.arr.name != acc.name:
        return None
    binder = {b.pat[0].name: b for b in prefix if len(b.pat) == 1}
    fold = binder.get(getattr(write.value, "name", None))
    if fold is None or not isinstance(fold.exp, A.BinOpExp):
        return None
    read = binder.get(getattr(fold.exp.x, "name", None))
    if read is None or read.exp != A.IndexExp(write.arr, write.idxs):
        return None
    levels.append((
        form.ivar, form.bound,
        tuple(b for b in prefix if b is not read and b is not fold),
    ))
    sealed += [read.pat[0].name, fold.pat[0].name]
    uses = {
        a.name for a in (fold.exp.y, *write.idxs) if isinstance(a, A.Var)
    }
    for _, _, prefix in levels:
        uses |= free_vars_body(A.Body(prefix, ()))
    if uses & set(sealed):
        return None
    return levels, write.idxs, fold.exp


def gen_accumulate(cg, e: A.LoopExp, scope: _Scope, spec: bool):
    """An accumulating loop (:func:`accumulation`) the way a GPU runs
    a histogram, or None when ``e`` is not one.  The prefix is lowered
    as the body of a map (nest) over the iteration space, so the batch
    is extended by it and yields every iteration's cell indices and
    operand at once; the accumulate is then one ``ufunc.at``, which is
    unbuffered and applies in index order — the extended batch is
    row-major ``(lane, i, ...)``, so every cell takes its updates in
    loop order and the result is the sequential loop's, bit for bit.
    The outermost loop is taken in blocks of ``ACCUMULATE_LANES``
    lanes; a block of one iteration is the sequential step."""
    found = accumulation(e)
    if found is None:
        return None
    levels, idxs, fold = found
    acc = cg.atom(scope, e.merge[0][1])
    trips = [
        scope.maybe(b.name) if isinstance(b, A.Var) else cg.atom(scope, b)
        for _, b, _ in levels
    ]
    ufunc = _ufunc_src(fold.op, acc.elem)
    if (
        acc.kind == "S"
        or len(idxs) != acc.rank
        or fold.t is not acc.elem
        or ufunc is None
        or any(t is None or t.kind != "S" for t in trips)
    ):
        return None

    # The map the prefix is the body of, innermost loop first:
    #   map (\i -> prefix
    #              let (idxs', v') = map (\j -> prefix' in {idxs, v}) (iota m)
    #              in {idxs', v'}) <a block of iota n>
    tail, results = (), (*idxs, fold.y)
    types = (Prim(I32),) * len(idxs) + (Prim(acc.elem),)
    for depth, (ivar, bound, prefix) in reversed(list(enumerate(levels))):
        lam = A.Lambda(
            (A.Param(ivar, Prim(I32)),),
            A.Body(prefix + tail, results),
            types,
        )
        if depth:
            dim = bound.name if isinstance(bound, A.Var) else bound.value
            types = tuple(array_of(t, dim) for t in types)
            space = A.Param(f"{ivar}#iota", Array(I32, (dim,)))
            pat = tuple(
                A.Param(f"{ivar}#{k}", t) for k, t in enumerate(types)
            )
            tail = (
                A.Binding((space,), A.IotaExp(bound)),
                A.Binding(pat, A.MapExp(bound, lam, (A.Var(space.name),))),
            )
            results = tuple(A.Var(p.name) for p in pat)

    def emit() -> List[JVal]:
        arr = acc
        if cg.depth and arr.kind == "A":
            arr = cg._coerce(arr, ("B", arr.elem, arr.rank, False))
        tgt = update_target(cg, arr, spec)
        cell = JVal(arr.kind, arr.elem, arr.rank, tgt, True)
        n, inner, blk, lo, io, w = (
            cg.fresh(p) for p in ("_n", "_m", "_blk", "_lo", "_io", "_w")
        )
        ext = cg.extent if cg.depth else "1"
        cg.line(f"{n} = int({trips[0].var})")
        cg.line(
            f"{inner} = "
            + " * ".join(["1", *(f"max(int({t.var}), 0)" for t in trips[1:])])
        )
        cg.line(
            f"{blk} = max(1, {ACCUMULATE_LANES} // max(1, {ext} * {inner}))"
        )
        cg.line(f"for {lo} in range(0, {n} if {inner} else 0, {blk}):")
        with cg.indented():
            cg.line(
                f"{io} = np.arange("
                f"{lo}, min({lo} + {blk}, {n}), dtype=np.int32)"
            )
            cg.line(f"{w} = {io}.shape[0]")
            flat = []
            for o in map_over(
                cg, lam, w, [JVal("A", I32, 1, io, True)], scope, spec
            ):
                f = cg.fresh("_fl")
                cg.line(f"{f} = {o.var}.reshape(-1)")
                flat.append(JVal("B", o.elem, 0, f))
            *at, operand = flat
            parts = checked_indices(
                cg, scope.child(), cell, at, 1 if cg.depth else 0, spec,
                "scatter",
            )
            if cg.depth:
                rows = cg.fresh("_ln")
                cg.line(
                    f"{rows} = np.repeat(R.arange({ext}), {w} * {inner})"
                )
                parts.insert(0, rows)
            cg.line(
                f"{ufunc}.at({tgt}, ({', '.join(parts)},), {operand.var})"
            )
        return [cell]

    # A prefix that cannot run as a map body (a ``filter``, a stream)
    # leaves the loop to the sequential step.
    try:
        buf, out = cg._capture(emit)
    except JitUnsupported:
        return None
    cg.em.splice(buf)
    return out


def index_names(body: A.Body) -> Set[str]:
    """The names ``body`` indexes an array with, in its own bindings
    and in the bodies of its ``if``s and loops — not in a lambda: a
    map expands the lane values it captures."""
    names: Set[str] = set()
    for bnd in body.bindings:
        e = bnd.exp
        if isinstance(e, (A.IndexExp, A.UpdateExp)):
            names.update(a.name for a in e.idxs if isinstance(a, A.Var))
        for b in exp_bodies(e):
            names |= index_names(b)
    return names


def preheader(cg, e: A.LoopExp, scope: _Scope) -> None:
    """Emit, ahead of the loop ``e`` in the block ``scope`` is, the
    range of every batched index its body uses but the loop does not
    bind — each step then checks an invariant index with two integer
    comparisons, and the code after the loop reads the same facts."""
    for name in sorted(index_names(e.body) & free_vars_exp(e)):
        v = scope.maybe(name)
        if v is not None and v.kind == "B" and v.rank == 0:
            index_range(cg, scope, v)


def gen_loop(cg, e: A.LoopExp, scope: _Scope, spec: bool):
    accumulated = gen_accumulate(cg, e, scope, spec)
    if accumulated is not None:
        return accumulated
    preheader(cg, e, scope)
    init = [cg.atom(scope, a) for _, a in e.merge]
    params = [p for p, _ in e.merge]
    slots = [cg.fresh("_s") for _ in params]
    nexts = [cg.fresh("_n") for _ in params]
    # Seed owned=True for arrays: state_init pre-copies, and the
    # fixpoint downgrades if the body hands back borrowed data.
    seeds = [
        (v.kind, v.elem, v.rank, v.kind != "S") for v in init
    ]

    def step(
        extra: List[Tuple[str, JVal]],
        state: List[JVal],
        kds: List[KD],
        active: Optional[str] = None,
    ) -> List[KD]:
        """Emit one iteration — of every loop form — and return the
        state kinds it produces.  ``active`` is the lane mask of a loop
        whose lanes may stop (None: none does), counted once: with none
        running the loop ends, with all the body runs as written, and
        else speculatively, only the running lanes taking its results."""

        def run(sp: bool, seen: List[KD], merge: bool) -> List[KD]:
            child = scope.child()
            for name, v in extra:
                child.bind(name, v)
            for p, v in zip(params, state):
                cg._bind_param(child, p, v)
            res = cg.gen_body(e.body, child, sp)
            if len(res) != len(state):
                raise JitUnsupported("loop body arity mismatch")
            new_kds = [
                _join_kd(a, b) for a, b in zip(seen, state_join(kds, res))
            ]
            require_kds(kds, new_kds)
            if merge:
                res = [where(cg, active, n, o) for n, o in zip(res, state)]
            state_advance(cg, res, kds, slots, nexts)
            return new_kds

        if active is None:
            return run(spec, kds, False)
        running = cg.fresh("_c")
        cg.line(f"{running} = np.count_nonzero({active})")
        cg.line(f"if {running} == 0:")
        with cg.indented():
            cg.line("break")
        cg.line(f"if {running} == {active}.size:")
        with cg.indented():
            new_kds = run(spec, kds, False)
        cg.line("else:")
        with cg.indented():
            return run(True, new_kds, True)

    if isinstance(e.form, A.ForLoop):
        bound = cg.atom(scope, e.form.bound)
        if bound.kind == "A" or bound.rank != 0:
            raise JitUnsupported("for-loop bound must be a scalar")
        masked = bound.kind == "B"
        ivar = cg.fresh("_i")
        counter = [(e.form.ivar, JVal("S", I32, 0, ivar))]

        def attempt(kds: List[KD]) -> List[KD]:
            kds = widen_all_b(kds) if masked else kds
            state = state_init(cg, init, kds, slots, precopy=True)
            if not masked:
                cg.line(f"for {ivar} in range(int({bound.var})):")
                with cg.indented():
                    return step(counter, state, kds)
            trip = cg.fresh("_trip")
            cg.line(
                f"{trip} = int({bound.var}.max()) "
                f"if {bound.var}.size else 0"
            )
            active = cg.fresh("_act")
            cg.line(f"for {ivar} in range({trip}):")
            with cg.indented():
                cg.line(f"{active} = {bound.var} > {ivar}")
                return step(counter, state, kds, active)

    else:
        cond_index = next(
            (k for k, p in enumerate(params) if p.name == e.form.cond),
            None,
        )
        if cond_index is None:
            raise JitUnsupported(
                f"while condition {e.form.cond} is not a merge parameter"
            )

        def attempt(kds: List[KD]) -> List[KD]:
            masked = kds[cond_index][0] == "B"
            kds = widen_all_b(kds) if masked else kds
            state = state_init(cg, init, kds, slots, precopy=True)
            guard = cg.fresh("_g")
            cg.line(f"{guard} = 0")
            cg.line("while True:")
            with cg.indented():
                if not masked:
                    cg.line(f"if not {slots[cond_index]}:")
                    with cg.indented():
                        cg.line("break")
                    new_kds = step([], state, kds)
                else:
                    active = cg.mask(state[cond_index])
                    new_kds = step([], state, kds, active)
                cg.line(f"{guard} += 1")
                cg.hand_over_if(
                    f"{guard} > 10000000",
                    "while loop exceeded iteration guard",
                )
            return new_kds

    return _jvals(fixpoint(cg, seeds, attempt), slots)


RULES = {
    A.IfExp: gen_if,
    A.LoopExp: gen_loop,
}
