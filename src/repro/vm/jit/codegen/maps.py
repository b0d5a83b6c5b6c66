"""``map`` and ``filter``: where the batch is entered and extended —
and what every SOAC shares, its checked inputs.

At kernel level a map's lambda parameters become batched views of the
uniform inputs and the whole body runs once over the batch; a map
inside a batch extends it (:func:`map_batched`).  The batch extent in
scope is :meth:`KernelCodegen.batch`'s to push and pop.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from ....core import ast as A
from ....core.prim import I32
from ....core.traversal import (
    exp_atoms, exp_bodies, exp_lambdas, free_vars_lambda,
)
from .values import JitUnsupported, JVal, _Scope


def soac_inputs(
    cg, scope: _Scope, width_atom: A.Atom, arrs, what: str,
    empty: Optional[str] = None,
) -> Tuple[str, List[JVal]]:
    """The width of a SOAC as a local and its input arrays, each
    checked against it; with ``empty``, a zero width hands the launch
    to the interpreter for that reason."""
    width = cg.atom(scope, width_atom)
    if width.kind == "B":
        raise JitUnsupported(f"{what} of batched width")
    if width.kind != "S":
        raise JitUnsupported(f"{what} width must be a scalar")
    w = cg.fresh("_w")
    cg.line(f"{w} = int({width.var})")
    vals = []
    for a in arrs:
        v = scope.lookup(a.name)
        if v.kind == "S":
            raise JitUnsupported(f"expected array, got scalar for {a}")
        outer = f"{v.var}.shape[{1 if v.kind == 'B' else 0}]"
        cg.hand_over_if(
            f"{outer} != {w}", f"{what}: input outer size mismatch"
        )
        vals.append(v)
    if empty is not None:
        cg.hand_over_if(f"{w} == 0", empty)
    return w, vals


def row(cg, v: JVal, i: str) -> JVal:
    """Element ``i`` of a (possibly batched) array, per thread."""
    out = cg.fresh("_r")
    if v.kind == "B":
        # A lane scalar of an array that may be updated in place is a
        # copy (as in :func:`.arrays.gather`).
        own = ".copy()" if v.owned and v.rank == 1 else ""
        cg.line(f"{out} = {v.var}[:, {i}]{own}")
        return JVal("B", v.elem, v.rank - 1, out, v.owned)
    if v.rank - 1 == 0:
        cg.line(f"{out} = {v.var}[{i}].item()")
        return JVal("S", v.elem, 0, out)
    cg.line(f"{out} = {v.var}[{i}]")
    return JVal("A", v.elem, v.rank - 1, out, v.owned)


def only_indexed(body: A.Body, name: str) -> bool:
    """True when every occurrence of ``name`` in ``body``, at any
    depth, is as the array of an index expression."""
    ref = A.Var(name)
    for bnd in body.bindings:
        e = bnd.exp
        if ref in (e.idxs if isinstance(e, A.IndexExp) else exp_atoms(e)):
            return False
        inner = [*exp_bodies(e), *(lam.body for lam in exp_lambdas(e))]
        if not all(only_indexed(b, name) for b in inner):
            return False
    return ref not in body.result


def expand_captures(
    cg, lam: A.Lambda, scope: _Scope, child: _Scope, width: str
) -> None:
    """Bind in ``child`` every batched free variable of ``lam`` repeated
    by the inner width — except an array ``lam`` only indexes: that one
    stays as it is and the vector of rows its lanes read is repeated
    instead (``JVal.lanes``), so a gather costs the elements it reads,
    not a copy of the array per inner lane.  A repeated index keeps the
    range of its lanes (:func:`.arrays.index_range`): an inner map is
    never empty — :func:`gen_map` hands a zero width over, and a block
    of an iteration space holds an iteration."""
    for name in sorted(free_vars_lambda(lam)):
        v = scope.maybe(name)
        if v is not None and v.kind == "B":
            nv = cg.fresh("_xp")
            if v.rank and only_indexed(lam.body, name):
                rows = v.lanes or f"R.arange({v.var}.shape[0])"
                cg.line(f"{nv} = np.repeat({rows}, {width})")
                child.bind(name, replace(v, owned=False, lanes=nv))
            else:
                cg.line(f"{nv} = np.repeat({v.var}, {width}, axis=0)")
                child.bind(name, JVal("B", v.elem, v.rank, nv, False))
                fact = scope.range_of(v.var)
                if fact is not None:
                    child.ranges[nv] = fact


def enter_batch(
    cg, lam: A.Lambda, vals: List[JVal], w: str, scope: _Scope
) -> List[JVal]:
    """Entering the batch: lambda parameters become batched views of
    the uniform inputs; the whole body runs once over the batch."""
    child = scope.child(barrier=True)
    for p, v in zip(lam.params, vals):
        cg._bind_param(
            child, p, JVal("B", v.elem, v.rank - 1, v.var, v.owned)
        )
    with cg.batch(w):
        return cg.gen_body(lam.body, child)


def gen_map(cg, e: A.MapExp, scope: _Scope):
    w, vals = soac_inputs(
        cg, scope, e.width, e.arrs, "map",
        empty="map without vectorizable extent",
    )
    if not vals:
        raise JitUnsupported("map without inputs")
    return map_over(cg, e.lam, w, vals, scope)


def map_over(
    cg, lam: A.Lambda, w: str, vals: List[JVal], scope: _Scope
) -> List[JVal]:
    """``lam`` mapped over the checked inputs ``vals`` of width ``w``:
    inside a batch it extends it, outside it enters one."""
    if cg.depth > 0:
        return map_batched(cg, lam, scope, w, vals)
    results = []
    for o in enter_batch(cg, lam, vals, w, scope):
        if o.kind == "B":
            cg._to_batched_checked(o, w, "batch width mismatch")
            results.append(
                JVal("A", o.elem, o.rank + 1, o.var, o.owned)
            )
        elif o.kind == "S":
            out = cg.fresh()
            cg.line(
                f"{out} = np.full(({w},), {o.var}, "
                f"dtype={cg._dt(o.elem)})"
            )
            results.append(JVal("A", o.elem, 1, out, True))
        else:
            out = cg.fresh()
            cg.line(
                f"{out} = np.broadcast_to({o.var}, "
                f"({w},) + {o.var}.shape).copy()"
            )
            results.append(JVal("A", o.elem, o.rank + 1, out, True))
    return results


def map_batched(cg, lam: A.Lambda, scope: _Scope, w: str, vals):
    """A map inside a batch extends it: flatten ``(B, n)`` into
    ``B*n``.  Batched inputs are reshaped, uniform ones repeated per
    lane, and the lane values the lambda captures repeated, so the body
    never sees the enclosing batch at its old width."""
    b = cg.extent
    child = scope.child(barrier=True)
    expand_captures(cg, lam, scope, child, w)
    ext = cg.fresh("_e")
    cg.line(f"{ext} = {b} * {w}")
    for p, v in zip(lam.params, vals):
        pv = cg.fresh("_p")
        if v.kind == "B":
            cg._to_batched_checked(v, b, "batch width mismatch in map")
            cg.line(
                f"{pv} = {v.var}.reshape(({ext},) + {v.var}.shape[2:])"
            )
            cg._bind_param(
                child, p, JVal("B", v.elem, v.rank - 1, pv, v.owned)
            )
        else:
            # One copy per enclosing lane, whose values keep their range.
            cg.line(
                f"{pv} = np.repeat({v.var}[None], {b}, axis=0)"
                f".reshape(({ext},) + {v.var}.shape[1:])"
            )
            cg._bind_param(
                child, p, JVal("B", v.elem, v.rank - 1, pv, False)
            )
            fact = scope.range_of(v.var)
            if fact is not None:
                child.ranges[pv] = fact
    results = []
    with cg.batch(ext):
        for o in cg.gen_body(lam.body, child):
            ob = cg._to_batched_checked(o, ext, "batch width mismatch")
            out = cg.fresh()
            cg.line(
                f"{out} = {ob.var}.reshape(({b}, {w}) + {ob.var}.shape[1:])"
            )
            results.append(JVal("B", o.elem, ob.rank + 1, out, ob.owned))
    return results


def apply_batched(
    cg, lam: A.Lambda, args: List[JVal], ext: str, scope: _Scope
) -> List[JVal]:
    """Apply ``lam`` once over a batch of ``ext`` lanes entered
    from uniform code; every result comes back batched."""
    with cg.batch(ext):
        return [
            cg._to_batched_checked(o, ext, "batch width mismatch")
            for o in cg.gen_lambda(lam, args, scope)
        ]


def gen_filter(cg, e: A.FilterExp, scope: _Scope):
    w, (val,) = soac_inputs(
        cg, scope, e.width, (e.arr,), "filter", empty="zero-width filter"
    )
    if cg.depth > 0 or val.kind == "B":
        raise JitUnsupported("batched filter")
    (flag,) = enter_batch(cg, e.lam, [val], w, scope)
    if not flag.elem.is_bool or flag.rank != 0:
        raise JitUnsupported("filter predicate must return bool")
    with cg.batch(w):
        fb = cg._to_batched_checked(flag, w, "batch width mismatch")
    m = cg.mask(fb)
    data = cg.fresh()
    cg.line(f"{data} = {val.var}[{m}]")
    count = cg.fresh("_cnt")
    cg.line(f"{count} = int({m}.sum())")
    return [
        JVal("S", I32, 0, count),
        JVal("A", val.elem, val.rank, data, True),
    ]


RULES = {
    A.MapExp: gen_map,
    A.FilterExp: gen_filter,
}
