"""Control flow: ``if``, ``for``/``while``, and what they share — the
per-lane merge, the kind fixpoint and the loop-state hand-over.

Divergence is handled GPU-style: a lane runs only the code it takes.
When the lanes of a batch disagree on an ``if``, each arm runs once,
as written, on the lanes that take it (:func:`run_arm`) — on all the
lanes, merged per lane (:func:`where`), only when neither arm can trap
on some lanes and not on others; when they agree only the arm taken
runs.  A loop whose lanes may stop apart — a ``for`` with a per-lane
bound, a ``while`` on a per-lane condition — runs only the lanes still
going, its body as written (:func:`gen_live`): a lane that stops is
written back once and computes nothing more.  Both read the batched
values they need on their lanes through :func:`lane_reads`.  Two
loops run as blocks of their iteration space (:func:`blocks`): a
``for`` that only accumulates into an array, ``acc[I] (+)= v``, is the
histogram a GPU runs as one scatter-accumulate (:func:`gen_accumulate`),
and a ``for`` that only sums into scalars, ``acc + f(i)``, the loop a
GPU's lanes step through in lockstep (:func:`gen_sum`).  Ahead of a
stepped or summing loop, its :func:`preheader` ranges the indices the
loop reads but does not bind, once.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace
from typing import Callable, Iterator, List, Optional, Set, Tuple

from ....core import ast as A
from ....core.prim import I32
from ....core.traversal import (
    exp_bodies, exp_lambdas, free_vars_body, free_vars_exp,
)
from ....core.types import Array, Prim, array_of
from .arrays import checked_indices, gather, index_range, update_target
from .elementwise import _trap_free, _ufunc_src
from .maps import map_over, only_indexed
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


# -- per-lane merge ---------------------------------------------------------


def where(cg, mask: str, t: JVal, f: JVal) -> JVal:
    """Per lane of ``mask``, ``t`` or ``f``; a uniform side is passed
    as it is (a scalar as a 0-d array) and broadcast by ``np.where``."""
    if t.rank != f.rank:
        raise JitUnsupported("merge of values with different ranks")
    m = mask
    if t.rank:
        m = f"{mask}.reshape({mask}.shape + (1,) * {t.rank})"
    out = cg.fresh()
    cg.line(f"{out} = np.where({m}, {cg._asarray(t)}, {cg._asarray(f)})")
    return JVal("B", t.elem, t.rank, out, True)


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


def join_arms(t_vals: List[JVal], f_vals: List[JVal]) -> List[KD]:
    if len(t_vals) != len(f_vals):
        raise JitUnsupported("if arms produce different arities")
    return [_join_kd(_kd(t), _kd(f)) for t, f in zip(t_vals, f_vals)]


def gen_if(cg, e: A.IfExp, scope: _Scope):
    cond = cg.atom(scope, e.cond)
    if cond.kind == "A" or cond.rank != 0:
        raise JitUnsupported("if condition must be a boolean scalar")
    if cond.kind == "S":
        t_buf, t_vals = cg._capture(
            lambda: cg.gen_body(e.t_body, scope.child())
        )
        f_buf, f_vals = cg._capture(
            lambda: cg.gen_body(e.f_body, scope.child())
        )
        kds = join_arms(t_vals, f_vals)
        outs = [cg.fresh("_o") for _ in kds]
        cg.line(f"if {cond.var}:")
        with cg.indented():
            splice_arm(cg, t_buf, t_vals, kds, outs)
        cg.line("else:")
        with cg.indented():
            splice_arm(cg, f_buf, f_vals, kds, outs)
        return _jvals(kds, outs)

    # Divergent lanes: each arm runs once, if a lane takes it — on every
    # lane when neither arm can trap on some lanes only, else on its own
    # lanes — and the one count of the mask picks the result.
    free = free_vars_body(e.t_body) | free_vars_body(e.f_body)
    uniform = {n for n in free if getattr(scope.maybe(n), "kind", "") == "S"}
    every = _trap_free(e.t_body, uniform) and _trap_free(e.f_body, uniform)
    mask, c, off = cg.mask(cond), cg.fresh("_c"), cg.fresh("_nm")
    n = f"{mask}.size"
    cg.line(f"{c} = np.count_nonzero({mask})")
    if not every:
        cg.line(f"{off} = ~{mask}")
    vals = []
    for body, runs, lanes in (
        (e.t_body, c, (mask, c, f"{c} == {n}")),
        (e.f_body, f"{c} < {n}", (off, f"({n} - {c})", f"not {c}")),
    ):
        buf, arm = cg._capture(
            lambda: run_arm(cg, body, scope, None if every else lanes)
        )
        vals.append(arm)
        if buf.lines:
            cg.line(f"if {runs}:")
            with cg.indented():
                cg.em.splice(buf)
    t_vals, f_vals = vals
    # Divergent lanes make every result per-lane, even where both arms
    # are uniform; ownership joins across the three paths.
    kds = [("B", el, r, ow) for _, el, r, ow in join_arms(t_vals, f_vals)]
    outs = [cg.fresh("_o") for _ in kds]
    cg.line(f"if {c} == {n}:")
    with cg.indented():
        splice_arm(cg, _Emitter(), t_vals, kds, outs)
    cg.line(f"elif not {c}:")
    with cg.indented():
        splice_arm(cg, _Emitter(), f_vals, kds, outs)
    cg.line("else:")
    with cg.indented():
        for o, tv, fv, (_, el, _, _) in zip(outs, t_vals, f_vals, kds):
            if every:
                cg.line(f"{o} = {where(cg, mask, tv, fv).var}")
                continue
            lane = f"{tv.var}.shape[1:]" if tv.kind == "B" else (
                f"np.shape({tv.var})"
            )
            cg.line(f"{o} = np.empty(({n},) + {lane}, dtype={cg._dt(el)})")
            cg.line(f"{o}[{mask}] = {tv.var}")
            cg.line(f"{o}[{off}] = {fv.var}")
    return _jvals(kds, outs)


def run_arm(
    cg, body: A.Body, scope: _Scope, lanes: Optional[Tuple[str, str, str]]
) -> List[JVal]:
    """Emit ``body``, an arm of a divergent ``if``.  With ``lanes`` None
    it runs on every lane of the batch, and the merge discards what the
    lanes that do not take it compute.  Else ``lanes`` is ``(mask,
    count, every)`` — the locals of its lane mask and lane count and the
    condition under which every lane takes it — and it runs as written
    on its own lanes: the batched values it reads are compacted to them
    (:func:`lane_reads`), or read whole under ``every``, so a lane that
    traps in it is one that takes it, and hands the launch over."""
    if lanes is None:
        return cg.gen_body(body, scope.child())
    mask, count, every = lanes
    ix: List[str] = []

    def positions() -> str:
        if not ix:
            ix.append(cg.fresh("_ix"))
            cg.line(
                f"{ix[0]} = R.arange({mask}.size) if {every} "
                f"else np.flatnonzero({mask})"
            )
        return ix[0]

    reads = free_vars_body(body)
    inner, _ = lane_reads(
        cg, body, reads, scope, positions,
        lambda v: f"{v} if {every} else {v}[{mask}]",
    )
    # Both arms read the same uniform arrays: one that an arm updates
    # is copied, so the other arm still reads it as it was.
    for name in reads:
        v = scope.maybe(name)
        if v is not None and v.kind == "A" and v.owned:
            inner.bind(name, replace(v, owned=False))
    with cg.batch(count):
        return cg.gen_body(body, inner)


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
    With ``precopy``, each is :func:`owned_as` its converged state — a
    copy-on-first-update hoisted out of the loop, so later iterations
    mutate in place."""
    for v, kd, s in zip(init, kds, slots):
        cv = owned_as(cg, v, kd) if precopy else cg._coerce(v, kd).var
        cg.line(f"{s} = {cv}")
    return _jvals(kds, slots)


def owned_as(cg, v: JVal, kd: KD) -> str:
    """``v`` coerced to ``kd``, in a buffer of the kernel's own where
    ``kd`` is owned: an array it does not own copied."""
    cv = cg._coerce(v, kd)
    copy = kd[3] and kd[0] != "S" and not cv.owned
    return f"{cv.var}.copy()" if copy else cv.var


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


# -- loops run as blocks of their iteration space ------------------------------


@contextlib.contextmanager
def blocks(cg, trips: List[JVal]) -> Iterator[Tuple[str, str, str, str]]:
    """Emit the loop over blocks of the outermost of the uniform trip
    counts ``trips``; inside it, yield the locals ``lo``, ``hi``, ``w``
    of a block's counters ``lo <= i < hi`` and the iterations ``span``
    of the nest it holds.  A block extends the batch in scope to at
    most ``ACCUMULATE_LANES`` lanes, but never holds no iteration."""
    n, blk, lo, hi, w = (
        cg.fresh(p) for p in ("_n", "_blk", "_lo", "_hi", "_w")
    )
    ext = cg.extent if cg.depth else "1"
    cg.line(f"{n} = int({trips[0].var})")
    stop, span = n, w
    if trips[1:]:
        inner = cg.fresh("_m")
        cg.line(
            f"{inner} = "
            + " * ".join(f"max(int({t.var}), 0)" for t in trips[1:])
        )
        stop, span, ext = f"{n} if {inner} else 0", f"{w} * {inner}", (
            f"{ext} * {inner}"
        )
    cg.line(f"{blk} = max(1, {ACCUMULATE_LANES} // max(1, {ext}))")
    cg.line(f"for {lo} in range(0, {stop}, {blk}):")
    with cg.indented():
        cg.line(f"{hi} = min({lo} + {blk}, {n})")
        cg.line(f"{w} = {hi} - {lo}")
        yield lo, hi, w, span


def block_iota(cg, block: _Scope, lo: str, hi: str) -> JVal:
    """The counters of one block, as the map over it takes them; their
    range, ``[lo, hi)``, is a fact of the ``block`` — every lane a map
    widens them to keeps it (:func:`.maps.map_batched`)."""
    io = cg.fresh("_io")
    cg.line(f"{io} = np.arange({lo}, {hi}, dtype=np.int32)")
    block.ranges[io] = (lo, f"{hi} - 1")
    return JVal("A", I32, 1, io, True)


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


def gen_accumulate(cg, e: A.LoopExp, scope: _Scope):
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
        tgt = update_target(cg, arr)
        cell = JVal(arr.kind, arr.elem, arr.rank, tgt, True)
        if arr.ndim > 1:
            # A cell is addressed by one flat index into a view of the
            # target, which only a C-contiguous one has.
            cg.line(f"{tgt} = np.ascontiguousarray({tgt})")
        with blocks(cg, trips) as (lo, hi, w, span):
            block = scope.child()
            flat = []
            for o in map_over(
                cg, lam, w, [block_iota(cg, block, lo, hi)], block
            ):
                f = cg.fresh("_fl")
                cg.line(f"{f} = {o.var}.reshape(-1)")
                flat.append(JVal("B", o.elem, 0, f))
            *at, operand = flat
            parts = checked_indices(
                cg, block, cell, at, 1 if cg.depth else 0, "scatter"
            )
            if cg.depth:
                rows = cg.fresh("_ln")
                cg.line(f"{rows} = np.repeat(R.arange({cg.extent}), {span})")
                parts.insert(0, rows)
            cells, index = tgt, parts[0]
            if parts[1:]:  # row-major: the cell's position in the view
                cells = f"{tgt}.reshape(-1)"
                index = f"{index}.astype(np.intp, copy=False)"
            for k, p in enumerate(parts[1:], 1):
                index = f"({index}) * {tgt}.shape[{k}] + {p}"
            cg.line(f"{ufunc}.at({cells}, {index}, {operand.var})")
        return [cell]

    # A prefix that cannot run as a map body (a ``filter``, a stream)
    # leaves the loop to the sequential step.
    try:
        buf, out = cg._capture(emit)
    except JitUnsupported:
        return None
    cg.em.splice(buf)
    return out


def summation(e: A.LoopExp):
    """``(terms, rest)`` when ``e`` is a summing loop, else None: a
    ``for`` over scalar state whose every result is a left-nested
    ``+``/``-`` chain headed by its own parameter (``acc + t``, ``(acc +
    a) - b``, ``t + acc``; ``terms`` holds each chain's ``(negated,
    atom)`` in evaluation order), among bindings — ``rest`` — that read
    no parameter or partial sum and hold no summing loop (only the
    innermost of a nest is one)."""
    body = e.body
    if not isinstance(e.form, A.ForLoop) or len(body.result) != len(e.merge):
        return None
    binder = {b.pat[0].name: b.exp for b in body.bindings if len(b.pat) == 1}
    terms, partial = [], set()
    for (p, _), res in zip(e.merge, body.result):
        head, chain = A.Var(p.name), []
        while res != head:
            x = binder.get(getattr(res, "name", None))
            if not (
                isinstance(x, A.BinOpExp) and x.op in ("add", "sub")
                and isinstance(p.type, Prim) and x.t is p.type.t
            ):
                return None
            partial.add(res.name)
            # ``+`` commutes exactly: its head may stand on either side.
            swap = x.op == "add" and x.y == head
            res, t = (x.y, x.x) if swap else (x.x, x.y)
            chain.append((x.op == "sub", t))
        if not chain:
            return None
        terms.append(chain[::-1])
    rest = tuple(b for b in body.bindings if not partial & set(b.names()))
    reads = free_vars_body(A.Body(rest, tuple(t for c in terms for _, t in c)))
    if reads & (partial | {p.name for p, _ in e.merge}) or any(
        summation(loop) for loop in loops_in(rest)
    ):
        return None
    return terms, rest


def loops_in(bindings) -> Iterator[A.LoopExp]:
    """Every loop among ``bindings``, at any depth."""
    for bnd in bindings:
        e = bnd.exp
        if isinstance(e, A.LoopExp):
            yield e
        for b in (*exp_bodies(e), *(f.body for f in exp_lambdas(e))):
            yield from loops_in(b.bindings)


def gen_sum(cg, e: A.LoopExp, scope: _Scope):
    """A summing loop (:func:`summation`) the way a GPU's lanes run it,
    or None when ``e`` is not one: its terms as the body of a map over
    a block of the iteration space (:func:`blocks`) — a ``-`` term
    negated, as ``x - y`` is ``x + (-y)`` exactly in IEEE and in two's
    complement arithmetic, and a row the loop gathers along its counter
    (``a[j, i]``, ``a`` and ``j`` bound outside it) sliced
    (:func:`.arrays.gather`) — then added in loop order, by the lanes in
    lockstep: one vector addition per counter and term, a call's cost
    whatever the lanes.  That is the sequential loop's sums, bit for
    bit.  A ``for`` runs every trip, so the block checks what the loop
    would; the indices it reads but does not bind are ranged once,
    ahead of it (:func:`preheader`).  A loop outside any batch is one
    lane's, and keeps the step."""
    found = summation(e) if cg.depth else None
    if found is None:
        return None
    terms, rest = found
    trip = cg.atom(scope, e.form.bound)
    if trip.kind != "S":
        return None
    inner = {e.form.ivar, *(p.name for p, _ in e.merge)}
    inner.update(*(b.names() for b in e.body.bindings))
    gathers = [
        b for b in rest
        if isinstance(b.exp, A.IndexExp)
        and b.exp.idxs[-1:] == (A.Var(e.form.ivar),)
        and not {b.exp.arr.name, *map(str, b.exp.idxs[:-1])} & inner
    ]
    negs, cols = [], []
    for (p, _), chain in zip(e.merge, terms):
        for negated, t in chain:
            if negated:
                q = A.Param(f"{p.name}#{len(negs)}", p.type)
                negs.append(A.Binding((q,), A.UnOpExp("neg", t, p.type.t)))
                t = A.Var(q.name)
            cols.append(t)
    body = A.Body(
        tuple(b for b in rest if b not in gathers) + tuple(negs), tuple(cols)
    )
    counted = e.form.ivar in free_vars_body(body)
    lam = A.Lambda(
        (A.Param(e.form.ivar, Prim(I32)),) * counted
        + tuple(b.pat[0] for b in gathers),
        body,
        tuple(p.type for (p, _), chain in zip(e.merge, terms) for _ in chain),
    )

    def emit() -> List[JVal]:
        sums = []
        for p, seed in e.merge:
            # Owned: with no trip, the sum is its seed.
            kd = ("B", p.type.t, 0, True)
            sums.append(JVal(*kd[:3], cg.fresh("_s"), True))
            cg.line(f"{sums[-1].var} = {owned_as(cg, cg.atom(scope, seed), kd)}")
        rows = [
            (scope.lookup(b.exp.arr.name),
             [cg.atom(scope, j) for j in b.exp.idxs[:-1]])
            for b in gathers
        ]
        preheader(cg, e, ahead)
        with blocks(cg, [trip]) as (lo, hi, w, _):
            block = ahead.child()
            vals = [block_iota(cg, block, lo, hi)] if counted else []
            vals += [
                gather(cg, block, arr, lead, (lo, hi))
                for arr, lead in rows
            ]
            outs = iter(map_over(cg, lam, w, vals, block))
            adds = [(s, next(outs).var) for s, c in zip(sums, terms) for _ in c]
            k = cg.fresh("_k")
            cg.line(f"for {k} in range({w}):")
            with cg.indented():
                for acc, col in adds:
                    cg.line(f"{acc.var} = {acc.var} + {col}[:, {k}]")
        return sums

    # Facts of code that may yet be discarded live in a child scope
    # until it is kept.
    ahead = scope.child()
    try:
        buf, out = cg._capture(emit)
    except JitUnsupported:
        return None
    cg.em.splice(buf)
    scope.ranges.update(ahead.ranges)
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


class _Masked(Exception):
    """Internal: the lanes of a loop being stepped may stop apart."""


def cond_slot(e: A.LoopExp) -> int:
    """The merge parameter a ``while`` loop tests, as a slot number."""
    names = [p.name for p, _ in e.merge]
    if e.form.cond not in names:
        raise JitUnsupported(
            f"while condition {e.form.cond} is not a merge parameter"
        )
    return names.index(e.form.cond)


def loop_body(
    cg, e: A.LoopExp, scope: _Scope, state: List[JVal], kds: List[KD],
    slots: List[str],
) -> List[KD]:
    """Emit one iteration of ``e``'s body over ``state``, bound in
    ``scope``, and hand its results over to the state locals; return
    the state kinds it produces."""
    for (p, _), v in zip(e.merge, state):
        cg._bind_param(scope, p, v)
    res = cg.gen_body(e.body, scope)
    if len(res) != len(state):
        raise JitUnsupported("loop body arity mismatch")
    new_kds = state_join(kds, res)
    require_kds(kds, new_kds)
    state_advance(cg, res, kds, slots, [cg.fresh("_n") for _ in slots])
    return new_kds


def count_iteration(cg, guard: str) -> None:
    """A ``while`` loop's iteration count, handed over past its cap."""
    cg.line(f"{guard} += 1")
    cg.hand_over_if(
        f"{guard} > 10000000", "while loop exceeded iteration guard"
    )


def gen_loop(cg, e: A.LoopExp, scope: _Scope):
    for rule in (gen_sum, gen_accumulate):
        blocked = rule(cg, e, scope)
        if blocked is not None:
            return blocked
    preheader(cg, e, scope)
    try:
        return step_loop(cg, e, scope)
    except _Masked:
        return gen_live(cg, e, scope)


def step_loop(cg, e: A.LoopExp, scope: _Scope):
    """A loop whose lanes step together — a ``for`` with a uniform
    bound, a ``while`` on a uniform condition — its body emitted once,
    as written.  Raises :class:`_Masked` on one whose lanes may stop
    apart."""
    init = [cg.atom(scope, a) for _, a in e.merge]
    slots = [cg.fresh("_s") for _ in init]
    # Seed owned=True: state_init pre-copies (a scalar widened to a
    # lane vector too), and the fixpoint downgrades if the body hands
    # back borrowed data.
    seeds = [(v.kind, v.elem, v.rank, True) for v in init]
    if isinstance(e.form, A.ForLoop):
        bound = cg.atom(scope, e.form.bound)
        if bound.kind == "A" or bound.rank != 0:
            raise JitUnsupported("for-loop bound must be a scalar")
        if bound.kind == "B":
            raise _Masked
        ivar = cg.fresh("_i")

        def attempt(kds: List[KD]) -> List[KD]:
            state = state_init(cg, init, kds, slots, precopy=True)
            cg.line(f"for {ivar} in range(int({bound.var})):")
            with cg.indented():
                child = scope.child()
                child.bind(e.form.ivar, JVal("S", I32, 0, ivar))
                return loop_body(cg, e, child, state, kds, slots)

    else:
        cond = cond_slot(e)

        def attempt(kds: List[KD]) -> List[KD]:
            if kds[cond][0] == "B":
                raise _Masked
            state = state_init(cg, init, kds, slots, precopy=True)
            guard = cg.fresh("_g")
            cg.line(f"{guard} = 0")
            cg.line(f"while {slots[cond]}:")
            with cg.indented():
                new_kds = loop_body(cg, e, scope.child(), state, kds, slots)
                count_iteration(cg, guard)
            return new_kds

    return _jvals(fixpoint(cg, seeds, attempt), slots)


def gen_live(cg, e: A.LoopExp, scope: _Scope):
    """A masked loop — a ``for`` with a per-lane bound, a ``while`` on a
    per-lane condition — run the way a GPU's threads each leave their
    own loop: its body emitted once, as written, over a batch of the
    lanes still running (:func:`live_lanes`).  A lane that stops has
    its state written once into the full-width results and computes
    nothing more, so nothing is speculated: a running lane that traps
    hands the launch over."""
    init = [cg.atom(scope, a) for _, a in e.merge]
    slots = [cg.fresh("_s") for _ in init]
    outs = [cg.fresh("_r") for _ in init]
    seeds = [("B", v.elem, v.rank, True) for v in init]
    counted = isinstance(e.form, A.ForLoop)
    cond = None if counted else cond_slot(e)
    ext = cg.extent

    def attempt(kds: List[KD]) -> List[KD]:
        state = state_init(cg, init, kds, slots, precopy=True)
        if counted:
            bound, ivar, trip = (
                cg.atom(scope, e.form.bound), cg.fresh("_i"),
                cg.fresh("_trip"),
            )
            cg.line(
                f"{trip} = max(int({bound.var}.max()), 0) "
                f"if {bound.var}.size else 0"
            )
        n, inner, retire = live_lanes(cg, e, scope, state, outs, cond)
        if counted:
            # Past the longest trip no lane is live: that iteration
            # writes the last ones back.
            cg.line(f"for {ivar} in range({trip} + 1):")
        else:
            guard = cg.fresh("_g")
            cg.line(f"{guard} = 0")
            cg.line("while True:")
        with cg.indented():
            child = inner.child()
            if counted:
                act = cg.fresh("_act")
                left = inner.lookup(e.form.bound.name)
                cg.line(f"{act} = {left.var} > {ivar}")
                child.bind(e.form.ivar, JVal("S", I32, 0, ivar))
            else:
                act = cg.mask(state[cond])
            retire(act)
            with cg.batch(n):
                new_kds = loop_body(cg, e, child, state, kds, slots)
            if not counted:
                count_iteration(cg, guard)
        if not counted:
            cg.line(f"{outs[cond]} = np.zeros(({ext},), dtype=bool)")
        return new_kds

    kds = fixpoint(cg, seeds, attempt)
    return _jvals([("B", el, r, True) for _, el, r, _ in kds], outs)


def live_lanes(cg, e: A.LoopExp, scope: _Scope, state: List[JVal],
               outs: List[str], cond: Optional[int]):
    """Emit, ahead of the masked loop ``e``, what runs it on its live
    lanes: its results ``outs`` at the batch's full width (but the
    ``while`` condition's, slot ``cond``, false on every lane that
    stopped: nothing is written to it), the count and the positions
    of the live lanes, and the batched values the loop reads, bound as
    :func:`lane_reads` binds them — whole, until a lane stops.  Returns
    the count, the scope binding them and ``retire(act)``, which emits
    an iteration's bookkeeping: where the lane mask ``act`` has lost
    lanes, their state is written into ``outs`` — with none left the
    loop ends — and the state and the copies are compacted to the lanes
    that are left, a copied index's range recomputed."""
    n, pos = cg.fresh("_nl"), cg.fresh("_ix")
    cg.line(f"{n} = {cg.extent}")
    cg.line(f"{pos} = R.arange({n})")
    reads = free_vars_body(e.body)
    kept = [(o, s.var) for k, (o, s) in enumerate(zip(outs, state))
            if k != cond]
    for o, s in kept:
        cg.line(f"{o} = np.empty({s}.shape, dtype={s}.dtype)")
    live = [pos] + [s.var for k, ((p, _), s) in enumerate(zip(e.merge, state))
                    if k != cond or p.name in reads]
    reads -= {p.name for p, _ in e.merge}
    if isinstance(e.form, A.ForLoop):
        reads = reads - {e.form.ivar} | {e.form.bound.name}
    inner, copies = lane_reads(cg, e.body, reads, scope, lambda: pos, str)
    facts = []
    for c, v in copies:
        live.append(c)
        fact = None if v.lanes else scope.range_of(v.var)
        if fact is not None:
            lo, hi = cg.fresh("_lo"), cg.fresh("_hi")
            cg.line(f"{lo}, {hi} = {fact[0]}, {fact[1]}")
            inner.ranges[c] = (lo, hi)
            facts.append((c, lo, hi))

    def retire(act: str) -> None:
        c, stop, gone = cg.fresh("_c"), cg.fresh("_st"), cg.fresh("_gone")
        cg.line(f"{c} = np.count_nonzero({act})")
        cg.line(f"if {c} < {n} or not {c}:")
        with cg.indented():
            cg.line(f"{stop} = ~{act}")
            cg.line(f"{gone} = {pos}[{stop}]")
            for o, s in kept:
                cg.line(f"{o}[{gone}] = {s}[{stop}]")
            cg.line(f"if not {c}:")
            with cg.indented():
                cg.line("break")
            for v in live:
                cg.line(f"{v} = {v}[{act}]")
            for v, lo, hi in facts:
                cg.line(f"{lo}, {hi} = int({v}.min()), int({v}.max())")
            cg.line(f"{n} = {c}")

    return n, inner, retire


def lane_reads(
    cg, body: A.Body, reads: Set[str], scope: _Scope,
    positions: Callable[[], str], pick: Callable[[str], str],
) -> Tuple[_Scope, List[Tuple[str, JVal]]]:
    """Bind, in a child of ``scope``, every batched value named in
    ``reads`` as ``body`` reads it on some of the lanes: an array
    ``body`` only indexes through the lane vector ``positions()`` of
    their positions (``JVal.lanes``), not copied; any other value — or
    the lane vector of an array read that way already — copied into a
    local of its own as ``pick(var)``, borrowed, with no range.
    Returns the child and each copy with what it copies."""
    inner, copies = scope.child(), []
    for name in sorted(reads):
        v = scope.maybe(name)
        if v is None or v.kind != "B":
            continue
        if v.rank and not v.lanes and only_indexed(body, name):
            inner.bind(name, replace(v, owned=False, lanes=positions()))
            continue
        c = cg.fresh("_lv")
        cg.line(f"{c} = {pick(v.lanes or v.var)}")
        copies.append((c, v))
        if v.lanes:
            inner.bind(name, replace(v, owned=False, lanes=c))
        else:
            inner.bind(name, replace(v, owned=False, var=c))
    return inner, copies


RULES = {
    A.IfExp: gen_if,
    A.LoopExp: gen_loop,
}
