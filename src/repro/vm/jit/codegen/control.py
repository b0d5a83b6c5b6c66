"""Control flow: ``if``, ``for``/``while``, and what they share — the
speculative merge, the kind fixpoint and the loop-state hand-over.

Divergence is handled GPU-style: when the lanes of a batch disagree
both sides run speculatively and merge per lane (:func:`where`); when
they agree only the side taken runs, as written.  One step function
(in :func:`gen_loop`) emits that for every loop form.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ....core import ast as A
from ....core.prim import I32
from .values import (
    KD, JitUnsupported, JVal, _Emitter, _Scope, _join_kd, _jvals, _kd,
)


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
    mask = cg.fresh("_m")
    cg.line(f"{mask} = {cond.var}.astype(bool)")
    cg.line(f"if {mask}.all():")
    with cg.indented():
        splice_arm(cg, tc_buf, tc_vals, kds, outs)
    cg.line(f"elif not {mask}.any():")
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


def gen_loop(cg, e: A.LoopExp, scope: _Scope, spec: bool):
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
        whose lanes may have stopped (None: every lane runs every
        iteration).  While all of them are still running the body runs
        as written; once some have stopped it runs speculatively and
        only the running lanes take its results."""

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
        cg.line(f"if {active}.all():")
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
                    active = cg.fresh("_act")
                    cg.line(
                        f"{active} = "
                        f"{slots[cond_index]}.astype(bool)"
                    )
                    cg.line(f"if not {active}.any():")
                    with cg.indented():
                        cg.line("break")
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
