"""Array primitives: index and update, and the builders (``iota``,
``replicate``, ``rearrange``, ``reshape``, ``copy``, ``concat``,
``scatter``).

Every index the generated code uses goes through
:func:`checked_indices`; every buffer it writes into comes from
:func:`update_target` — generated code never mutates an array it did
not itself allocate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ....core import ast as A
from ....core.prim import I32
from .values import JitUnsupported, JVal, _Scope

# -- index and update --------------------------------------------------------


def index_range(cg, scope: _Scope, iv: JVal) -> Tuple[str, str]:
    """The smallest and largest entry of the batched index ``iv`` as
    two locals holding Python ints — ``(0, -1)`` when it is empty, so
    that no bound fails — computed once per value: the first block
    that needs them computes them, into its scope, and every block
    nested in it reads them from there.  Computing them cannot trap,
    so they may be computed ahead of the access they serve."""
    fact = scope.range_of(iv.var)
    if fact is None:
        lo, hi = cg.fresh("_lo"), cg.fresh("_hi")
        cg.line(
            f"{lo}, {hi} = (int({iv.var}.min()), int({iv.var}.max())) "
            f"if {iv.var}.size else (0, -1)"
        )
        fact = scope.ranges[iv.var] = (lo, hi)
    return fact


def checked_indices(
    cg,
    scope: _Scope,
    arr: JVal,
    idxs: Sequence[JVal],
    first_dim: int,
    lanes: str,
    uniform: str = "uniform index out of bounds",
    span: Optional[Tuple[str, str]] = None,
) -> List[str]:
    """The indices of one access to ``arr`` as bounds-checked locals:
    a lane vector per batched index, a Python int per uniform one
    (``first_dim`` is the axis of ``arr.var`` the first index
    addresses).  Out of range hands the launch to the interpreter
    (``lanes``/``uniform`` word the reason).  A batched index is
    checked on its range (:func:`index_range`): two integer
    comparisons at the access.  A ``span`` ``(lo, hi)`` of uniform
    counters, ``0 <= lo < hi`` by construction, follows the indices as
    one more, checked by ``hi`` against its axis."""
    parts: List[str] = []
    for k, iv in enumerate(idxs):
        d = f"{arr.var}.shape[{k + first_dim}]"
        if iv.kind == "B":
            if iv.rank != 0:
                raise JitUnsupported("array used as index")
            lo, hi = index_range(cg, scope, iv)
            cg.hand_over_if(
                f"{lo} < 0 or {hi} >= {d}", f"out-of-bounds {lanes} in batch"
            )
            parts.append(iv.var)
        elif iv.kind == "S":
            ii = cg.fresh("_i")
            cg.line(f"{ii} = int({iv.var})")
            cg.hand_over_if(f"not (0 <= {ii} < {d})", uniform)
            parts.append(ii)
        else:
            raise JitUnsupported("array used as index")
    if span is not None:
        lo, hi = span
        d = f"{arr.var}.shape[{len(idxs) + first_dim}]"
        cg.hand_over_if(f"{hi} > {d}", uniform)
        parts.append(f"slice({lo}, {hi})")
    return parts


def update_target(cg, arr: JVal) -> str:
    """A local holding ``arr``'s contents that the kernel may write
    to: ``arr`` itself when the kernel owns it, else a copy."""
    tgt = cg.fresh("_u")
    if not arr.owned:
        cg.line(f"{tgt} = {arr.var}.copy()")
    elif arr.kind == "B":
        # NB a batched update consults only ownership (not the
        # in_place flag).
        cg.line(f"{tgt} = {arr.var}")
    else:
        cg.line("if R.in_place:")
        with cg.indented():
            cg.line(f"{tgt} = {arr.var}")
        cg.line("else:")
        with cg.indented():
            cg.line(f"{tgt} = {arr.var}.copy()")
    return tgt


def gen_index(cg, e: A.IndexExp, scope: _Scope):
    arr = scope.lookup(e.arr.name)
    if arr.kind == "S":
        raise JitUnsupported(f"expected array, got scalar for {e.arr}")
    return [gather(cg, scope, arr, [cg.atom(scope, i) for i in e.idxs])]


def gather(
    cg, scope: _Scope, arr: JVal, idxs: List[JVal],
    span: Optional[Tuple[str, str]] = None,
) -> JVal:
    """``arr[idxs...]`` — with ``span``, ``arr[idxs..., lo:hi]``, the
    row a block of counters ``lo <= i < hi`` reads along the next axis
    (:func:`checked_indices`)."""
    out_rank = arr.rank - len(idxs)
    if out_rank < (1 if span else 0):
        raise JitUnsupported("too many indices")
    parts = checked_indices(
        cg, scope, arr, idxs, 1 if arr.kind == "B" else 0, "gather", span=span
    )
    out = cg.fresh()
    if arr.kind != "B" and not any(i.kind == "B" for i in idxs):
        sub = f"{arr.var}[{', '.join(parts)}]"
        if out_rank == 0:
            cg.line(f"{out} = {sub}.item()")
            return JVal("S", arr.elem, 0, out)
        cg.line(f"{out} = {sub}")
        return JVal("A", arr.elem, out_rank, out, arr.owned)
    if arr.kind == "B":
        if all(i.kind == "S" for i in idxs) and not arr.lanes:
            # A view — but a lane scalar of an array the kernel may
            # still update in place is a copy: the update must not
            # reach the scalar.
            own = ".copy()" if arr.owned and out_rank == 0 else ""
            cg.line(
                f"{out} = {arr.var}[(slice(None), {', '.join(parts)})]{own}"
            )
            return JVal("B", arr.elem, out_rank, out, arr.owned)
        rows = arr.lanes or f"R.arange({arr.var}.shape[0])"
        cg.line(f"{out} = {arr.var}[({rows}, {', '.join(parts)})]")
        return JVal("B", arr.elem, out_rank, out, True)
    cg.line(f"{out} = {arr.var}[({', '.join(parts)},)]")
    return JVal("B", arr.elem, out_rank, out, True)


def gen_update(cg, e: A.UpdateExp, scope: _Scope):
    arr = scope.lookup(e.arr.name)
    idxs = [cg.atom(scope, i) for i in e.idxs]
    value = cg.atom(scope, e.value)
    if arr.kind == "S":
        raise JitUnsupported(f"expected array, got scalar for {e.arr}")
    batched = (
        arr.kind == "B"
        or value.kind == "B"
        or any(i.kind == "B" for i in idxs)
    )
    if not batched:
        parts = checked_indices(
            cg, scope, arr, idxs, 0, "scatter",
            uniform="uniform update out of bounds",
        )
        tgt = update_target(cg, arr)
        cg.line(f"{tgt}[{', '.join(parts)}] = {value.var}")
        return [JVal("A", arr.elem, arr.rank, tgt, True)]
    if arr.kind != "B":
        # A uniform array updated at batched positions diverges per
        # lane — materialize one copy per lane.
        b_src = next(
            v for v in idxs + [value] if v.kind == "B"
        )
        ab = cg.fresh("_ab")
        cg.line(
            f"{ab} = np.broadcast_to({arr.var}, "
            f"({b_src.var}.shape[0],) + {arr.var}.shape).copy()"
        )
        arr = JVal("B", arr.elem, arr.rank, ab, True)
    if len(idxs) > arr.rank:
        raise JitUnsupported("too many indices")
    parts = checked_indices(cg, scope, arr, idxs, 1, "scatter")
    data = update_target(cg, arr)
    cg.line(
        f"{data}[(R.arange({data}.shape[0]), {', '.join(parts)})]"
        f" = {value.var}"
    )
    return [JVal("B", arr.elem, arr.rank, data, True)]


def gen_scatter(cg, e: A.ScatterExp, scope: _Scope):
    dest = scope.lookup(e.dest.name)
    idx = scope.lookup(e.idx_arr.name)
    val = scope.lookup(e.val_arr.name)
    if any(v.kind == "B" for v in (dest, idx, val)):
        raise JitUnsupported("batched scatter")
    if any(v.kind == "S" for v in (dest, idx, val)):
        raise JitUnsupported("scatter operands must be arrays")
    cg.hand_over_if(
        f"{idx.var}.shape[0] != {val.var}.shape[0]",
        "scatter: index/value length mismatch",
    )
    data = update_target(cg, dest)
    ok = cg.fresh("_ok")
    cg.line(
        f"{ok} = ({idx.var} >= 0) & ({idx.var} < {data}.shape[0])"
    )
    cg.line(
        f"{data}[{idx.var}[{ok}].astype(np.int64)] = {val.var}[{ok}]"
    )
    return [JVal("A", dest.elem, dest.rank, data, True)]


# -- builders ----------------------------------------------------------------


def gen_iota(cg, e: A.IotaExp, scope: _Scope):
    n = cg.atom(scope, e.n)
    if n.kind == "B":
        raise JitUnsupported("iota of batched size")
    out = cg.fresh()
    cg.hand_over_if(f"{n.var} < 0", "iota of negative size")
    cg.line(f"{out} = np.arange(int({n.var}), dtype=np.int32)")
    # The range a map over it gives every lane (:func:`.maps.map_batched`).
    scope.ranges[out] = ("0", f"int({n.var}) - 1")
    return [JVal("A", I32, 1, out, True)]


def gen_replicate(cg, e: A.ReplicateExp, scope: _Scope):
    n = cg.atom(scope, e.n)
    if n.kind == "B":
        raise JitUnsupported("replicate of batched size")
    cg.hand_over_if(f"{n.var} < 0", "replicate of negative size")
    v = cg.atom(scope, e.value)
    out = cg.fresh()
    if v.kind == "S":
        cg.line(
            f"{out} = np.full(int({n.var}), {v.var}, "
            f"dtype={cg._dt(v.elem)})"
        )
        return [JVal("A", v.elem, 1, out, True)]
    if v.kind == "A":
        cg.line(
            f"{out} = np.broadcast_to({v.var}, "
            f"(int({n.var}),) + {v.var}.shape).copy()"
        )
        return [JVal("A", v.elem, v.rank + 1, out, True)]
    cg.line(
        f"{out} = np.repeat({v.var}[:, None], int({n.var}), axis=1)"
    )
    return [JVal("B", v.elem, v.rank + 1, out, True)]


def gen_rearrange(cg, e: A.RearrangeExp, scope: _Scope):
    arr = scope.lookup(e.arr.name)
    if arr.kind == "S":
        raise JitUnsupported(f"expected array, got scalar for {e.arr}")
    if sorted(e.perm) != list(range(arr.rank)):
        raise JitUnsupported(
            f"rearrange {e.perm} does not permute rank {arr.rank}"
        )
    out = cg.fresh()
    if arr.kind == "B":
        perm = (0,) + tuple(p + 1 for p in e.perm)
        cg.line(f"{out} = np.transpose({arr.var}, {perm})")
    else:
        cg.line(f"{out} = np.transpose({arr.var}, {tuple(e.perm)})")
    return [JVal(arr.kind, arr.elem, arr.rank, out, arr.owned)]


def gen_reshape(cg, e: A.ReshapeExp, scope: _Scope):
    arr = scope.lookup(e.arr.name)
    dims = []
    for s in e.shape:
        v = cg.atom(scope, s)
        if v.kind == "B":
            raise JitUnsupported("reshape to batched shape")
        if v.kind != "S":
            raise JitUnsupported("reshape dimension must be a scalar")
        dims.append(f"int({v.var})")
    if arr.kind == "S":
        raise JitUnsupported(f"expected array, got scalar for {e.arr}")
    shape = "(" + ", ".join(dims) + ("," if len(dims) == 1 else "") + ")"
    # A batched array is reshaped per lane: behind its batch axis.
    batched = arr.kind == "B"
    count = (
        f"int(np.prod({arr.var}.shape[1:], dtype=np.int64))"
        if batched
        else f"{arr.var}.size"
    )
    cg.hand_over_if(
        f"int(np.prod({shape}, dtype=np.int64)) != {count}",
        "reshape changes element count",
    )
    out = cg.fresh()
    lead = f"({arr.var}.shape[0],) + " if batched else ""
    cg.line(f"{out} = {arr.var}.reshape({lead}{shape})")
    return [JVal(arr.kind, arr.elem, len(dims), out, arr.owned)]


def gen_copy(cg, e: A.CopyExp, scope: _Scope):
    arr = scope.lookup(e.arr.name)
    if arr.kind == "S":
        raise JitUnsupported(f"expected array, got scalar for {e.arr}")
    out = cg.fresh()
    cg.line(f"{out} = {arr.var}.copy()")
    return [JVal(arr.kind, arr.elem, arr.rank, out, True)]


def gen_concat(cg, e: A.ConcatExp, scope: _Scope):
    arrs = [scope.lookup(a.name) for a in e.arrs]
    if any(a.kind == "S" for a in arrs):
        raise JitUnsupported("concat of scalars")
    out = cg.fresh()
    if any(a.kind == "B" for a in arrs):
        first = next(a for a in arrs if a.kind == "B")
        ext = f"{first.var}.shape[0]"
        parts = [
            cg._to_batched_checked(
                a, ext, "batch width mismatch in concat"
            ).var
            for a in arrs
        ]
        cg.line(
            f"{out} = np.concatenate([{', '.join(parts)}], axis=1)"
        )
        return [JVal("B", arrs[0].elem, arrs[0].rank, out, True)]
    cg.line(
        f"{out} = np.concatenate("
        f"[{', '.join(a.var for a in arrs)}], axis=0)"
    )
    return [JVal("A", arrs[0].elem, arrs[0].rank, out, True)]


def gen_apply(cg, e: A.ApplyExp, scope: _Scope):
    raise JitUnsupported(f"function call {e.fname} is not transpiled")


RULES = {
    A.IndexExp: gen_index,
    A.UpdateExp: gen_update,
    A.ScatterExp: gen_scatter,
    A.IotaExp: gen_iota,
    A.ReplicateExp: gen_replicate,
    A.RearrangeExp: gen_rearrange,
    A.ReshapeExp: gen_reshape,
    A.CopyExp: gen_copy,
    A.ConcatExp: gen_concat,
    A.ApplyExp: gen_apply,
}
