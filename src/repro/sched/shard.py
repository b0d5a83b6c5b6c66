"""Batch-dimension shardability analysis and shard planning.

The paper's flat-parallel entry points are frequently embarrassingly
data-parallel along their *outermost* dimension: every output row ``i``
depends only on input rows ``i`` (plus whole non-batch arguments).
Such a request can be split into contiguous row ranges, executed on
several simulated devices concurrently, and concatenated back —
bit-identically, because each device runs the very same compiled
program on its slice.

:func:`analyze_shardable` decides the property *conservatively* on the
pre-compilation core program (compilation restructures the program but
preserves its semantics, so the property carries over to whatever the
pipeline produces).  The walk tags every top-level binding as *batch*
(its leading dimension is the batch dimension, row ``i`` computed from
rows ``i``) or *pure* (independent of the batch dimension entirely),
and bails out on anything it cannot prove — an unshardable entry point
simply takes whole-request placement.

:class:`ShardPlanner` then splits the concrete batch size into
contiguous, ordered, disjoint-and-complete per-device shards, sized
proportionally to per-device speed (weights) with a minimum shard
granularity.  The partition property is tested exhaustively in
``tests/property/test_shard_planner.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import ast as A
from ..core.traversal import free_vars_exp, free_vars_lambda
from ..core.types import Array
from ..core.values import ArrayValue, Value

__all__ = [
    "BatchInfo",
    "analyze_shardable",
    "Shard",
    "ShardPlanner",
    "slice_args",
    "merge_results",
]


@dataclass(frozen=True)
class BatchInfo:
    """The shardable shape of an entry point.

    ``dim`` is the symbolic batch dimension, ``arg_indices`` the
    positions of the arguments sliced along it, and ``n_results`` the
    number of (all batch-leading) results to concatenate back.
    """

    dim: str
    arg_indices: Tuple[int, ...]
    n_results: int

    def batch_size(self, args: Sequence[Value]) -> int:
        """The concrete batch size of one request's arguments (0 when
        they do not fit the entry point: its run reports the misuse)."""
        i = self.arg_indices[0]
        v = args[i] if i < len(args) else None
        if not isinstance(v, ArrayValue) or v.rank == 0:
            return 0
        return int(v.data.shape[0])


def analyze_shardable(
    prog: A.Prog, entry: str = "main"
) -> Optional[BatchInfo]:
    """Decide whether ``entry`` is data-parallel along its outermost
    dimension.  Returns ``None`` (not shardable) unless every check
    passes; the analysis never guesses.
    """
    try:
        fn = prog.fun(entry)
    except KeyError:
        return None
    rets = fn.ret_types
    if not rets:
        return None
    # Every result must be an array led by the same symbolic dimension.
    d: Optional[str] = None
    for t in rets:
        if not isinstance(t, Array) or not isinstance(t.shape[0], str):
            return None
        if d is None:
            d = t.shape[0]
        elif t.shape[0] != d:
            return None
    assert d is not None
    # The batch dimension must lead at least one array argument, and
    # must never occur in a non-leading position anywhere in the
    # signature (an inner dimension equal to the batch size would make
    # per-shard results structurally different).
    arg_indices = tuple(
        i
        for i, p in enumerate(fn.params)
        if isinstance(p.type, Array) and p.type.shape[0] == d
    )
    if not arg_indices:
        return None
    for t in [p.type for p in fn.params] + list(rets):
        if isinstance(t, Array) and d in t.shape[1:]:
            return None
    batch_names = {fn.params[i].name for i in arg_indices}
    #: name -> True for batch values (leading dim is the request's
    #: rows), False for values provably independent of the batch.
    tags: Dict[str, bool] = {name: True for name in batch_names}
    width_d = A.Var(d)

    def tagged_batch(a: A.Atom) -> bool:
        return isinstance(a, A.Var) and tags.get(a.name, False)

    for bnd in fn.body.bindings:
        if any(p.name == d for p in bnd.pat):
            return None  # the batch dimension is shadowed: give up
        e = bnd.exp
        if isinstance(e, A.MapExp):
            lam_free = free_vars_lambda(e.lam)
            if d in lam_free or lam_free & batch_names:
                # The per-element function sees the whole batch (or
                # its size): elements are not independent.
                return None
            arr_batch = [tags.get(v.name, False) for v in e.arrs]
            if any(arr_batch):
                # A batch map: element i from rows i only.
                if not all(arr_batch) or e.width != width_d:
                    return None
                out_batch = True
            else:
                if e.width == width_d:
                    # A width-d map over non-batch inputs (e.g. over
                    # ``iota d``) computes from absolute positions.
                    return None
                out_batch = False
        elif isinstance(e, A.ReplicateExp):
            if tagged_batch(e.value) or e.value == width_d:
                return None
            if e.n == width_d:
                # ``replicate d v`` commutes with row slicing.
                out_batch = True
            else:
                fv = free_vars_exp(e)
                if d in fv or fv & batch_names:
                    return None
                out_batch = False
        elif isinstance(e, A.CopyExp):
            out_batch = tags.get(e.arr.name, False)
        elif isinstance(e, A.AtomExp):
            if isinstance(e.atom, A.Var) and e.atom.name == d:
                return None  # the batch *size* used as a value
            out_batch = tagged_batch(e.atom)
        else:
            # Anything else (reductions, scans, loops, indexing, ...)
            # is only allowed when it cannot see the batch at all.
            fv = free_vars_exp(e)
            if d in fv or fv & batch_names:
                return None
            out_batch = False
        for p in bnd.pat:
            t = p.type
            if isinstance(t, Array):
                if d in t.shape[1:]:
                    return None
                if out_batch and t.shape[0] != d:
                    return None
                if not out_batch and t.shape[0] == d:
                    # A d-led array produced by means the walk did not
                    # sanction (e.g. a concat summing to d).
                    return None
            elif out_batch:
                return None
            tags[p.name] = out_batch
    for a in fn.body.result:
        if not tagged_batch(a):
            return None
    return BatchInfo(d, arg_indices, len(rets))


# ---------------------------------------------------------------------------
# Slicing and merging
# ---------------------------------------------------------------------------


def slice_args(
    args: Sequence[Value], info: BatchInfo, lo: int, hi: int
) -> List[Value]:
    """The argument list for one shard: batch arrays restricted to rows
    ``[lo, hi)``, everything else passed whole."""
    batch = set(info.arg_indices)
    out: List[Value] = []
    for i, v in enumerate(args):
        if i in batch:
            assert isinstance(v, ArrayValue)
            out.append(ArrayValue(v.data[lo:hi].copy(), v.elem))
        else:
            out.append(v)
    return out


def merge_results(
    parts: Sequence[Tuple[Value, ...]], n_results: int
) -> Tuple[Value, ...]:
    """Concatenate per-shard results (in shard order) back into the
    whole-request results — bit-identical to an unsharded run."""
    merged: List[Value] = []
    for j in range(n_results):
        pieces = [p[j] for p in parts]
        assert all(isinstance(p, ArrayValue) for p in pieces)
        merged.append(
            ArrayValue(
                np.concatenate([p.data for p in pieces], axis=0),
                pieces[0].elem,
            )
        )
    return tuple(merged)


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shard:
    """One contiguous row range assigned to one device."""

    index: int
    lo: int
    hi: int
    device_id: int

    @property
    def size(self) -> int:
        return self.hi - self.lo


class ShardPlanner:
    """Split a batch into contiguous per-device shards.

    The plan is always an exact, order-preserving partition of
    ``range(batch)``: shard ``i`` covers ``[lo_i, hi_i)`` with
    ``hi_i == lo_{i+1}``, the first shard starting at 0 and the last
    ending at ``batch``.  Shard sizes are proportional to device
    weights (largest-remainder rounding) with a floor of ``min_shard``
    rows per shard — devices that would get less work than that are
    simply not used (tiny shards are all launch overhead).
    """

    def __init__(self, min_shard: int = 256) -> None:
        self.min_shard = max(1, int(min_shard))

    def plan(
        self, batch: int, devices: Sequence[Tuple[int, float]]
    ) -> List[Shard]:
        """``devices`` is ``[(device_id, weight)]``; higher weight means
        a faster device (it receives proportionally more rows)."""
        if batch <= 0 or not devices:
            return []
        ms = self.min_shard
        k = min(len(devices), batch // ms) or 1
        # The k fastest devices (ties broken by lowest id, so plans
        # are deterministic).
        chosen = sorted(devices, key=lambda dw: (-dw[1], dw[0]))[:k]
        if k == 1:
            return [Shard(0, 0, batch, chosen[0][0])]
        # Everyone gets the floor; the rest is split proportionally to
        # weight by largest remainder (deterministic tie-break by id).
        sizes = [ms] * k
        leftover = batch - ms * k
        if leftover > 0:
            total_w = sum(max(w, 0.0) for _, w in chosen)
            if total_w <= 0.0:
                quotas = [leftover / k] * k
            else:
                quotas = [
                    leftover * max(w, 0.0) / total_w for _, w in chosen
                ]
            floors = [int(q) for q in quotas]
            sizes = [s + f for s, f in zip(sizes, floors)]
            rem = leftover - sum(floors)
            order = sorted(
                range(k),
                key=lambda i: (-(quotas[i] - floors[i]), chosen[i][0]),
            )
            for i in order[:rem]:
                sizes[i] += 1
        shards: List[Shard] = []
        lo = 0
        for idx, ((dev_id, _), size) in enumerate(zip(chosen, sizes)):
            shards.append(Shard(idx, lo, lo + size, dev_id))
            lo += size
        assert lo == batch, "shard plan must cover the batch exactly"
        return shards
