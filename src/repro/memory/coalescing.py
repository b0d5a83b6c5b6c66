"""Transposition-based memory coalescing (Section 5.2).

For every kernel access where one or more innermost dimensions of a
mapped array are traversed *sequentially inside* the thread, a naive
row-major layout makes consecutive threads stride by the inner sizes.
The pass changes the array's representation so that the sequential
dimensions come physically first (``as_column_major`` in the paper's
rank-2 example):

* arrays *produced* by an earlier kernel are simply produced in the
  required layout (writes are re-classified as coalesced, no extra
  cost);
* arrays that already exist in a different layout (e.g. the kernel's
  inputs, or values flowing around a host loop) are *manifested*: an
  explicit transposition statement is inserted — whose cost is real,
  and relatively higher on the AMD device (the LocVolCalib effect).
  One of an array a host loop neither carries nor binds, which its
  body manifests once, is hoisted before the loop: K-means transposes
  its ``points`` once, not on each of its iterations.

Gathers (data-dependent indices) cannot be fixed this way and are left
alone — though the transposition-based approach still succeeds where
index analysis would give up (the OptionPricing discussion of §7).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from ..backend.kernel_ir import (
    AccessInfo,
    AllocStmt,
    Count,
    HostEval,
    HostIfStmt,
    HostLoopStmt,
    HostProgram,
    Kernel,
    LaunchStmt,
    ManifestStmt,
    MemBlock,
)
from .index_fn import IndexFn
from .plan import _nested

__all__ = ["coalesce_program"]


def _desired_layout(acc: AccessInfo) -> IndexFn:
    """Sequential dims physically outermost, thread dims innermost —
    so the last thread dimension gets stride 1."""
    rank = acc.thread_dims + acc.seq_rank
    perm = tuple(range(acc.thread_dims, rank)) + tuple(
        range(acc.thread_dims)
    )
    return IndexFn(perm)


def coalesce_program(hp: HostProgram) -> HostProgram:
    """Annotate kernels with layout decisions and insert manifestation
    statements.  Disabling the pass is the §6.1.1 ablation: no layout
    changes happen and strided accesses pay full penalty."""
    # Each array's current layout; parameters are row-major, the
    # default of an array not in here.
    layouts: Dict[str, IndexFn] = {}
    produced_by: Dict[str, Kernel] = {}
    counter = [0]
    hp.stmts = _walk(hp.stmts, layouts, produced_by, hp, counter)
    return hp


def _walk(
    stmts: Sequence,
    layouts: Dict[str, IndexFn],
    produced_by: Dict[str, Kernel],
    hp: HostProgram,
    counter: List[int],
) -> List:
    out: List = []
    for s in stmts:
        if isinstance(s, LaunchStmt):
            kernel = s.kernel
            for acc in kernel.accesses:
                if acc.gather or acc.invariant or acc.thread_dims == 0:
                    continue
                rank = acc.thread_dims + acc.seq_rank
                current = layouts.get(acc.array, IndexFn.identity(rank))
                if len(current.perm) != rank:
                    current = IndexFn.identity(rank)
                if acc.coalesced_under(current, len(kernel.grid)):
                    kernel.layouts.setdefault(acc.array, current)
                    continue
                desired = _desired_layout(acc)
                if acc.is_write:
                    # Produce directly in the good layout: free.
                    layouts[acc.array] = desired
                    kernel.layouts[acc.array] = desired
                    continue
                producer = produced_by.get(acc.array)
                if producer is not None and _can_retarget(
                    producer, acc.array
                ):
                    # Ask the producing kernel to write transposed.
                    _retarget_writes(producer, acc.array, desired)
                    layouts[acc.array] = desired
                    kernel.layouts[acc.array] = desired
                    continue
                if acc.array not in hp.array_shapes:
                    # Kernel-internal scratch (per-thread arrays): the
                    # compiler simply allocates it transposed — free.
                    layouts[acc.array] = desired
                    kernel.layouts[acc.array] = desired
                    continue
                if rank != len(hp.array_shapes[acc.array]):
                    # A layout of another rank than the array's own
                    # cannot describe its block: leave it as it is.
                    continue
                # Manifest: insert an explicit transposition, moving
                # the array once (its true size, not the access count).
                elem_bytes = acc.elem_bytes
                shape = hp.array_shapes.get(acc.array)
                if shape is not None:
                    elems = Count.of(1.0, *shape)
                else:
                    elems = acc.trips.scaled(1.0, *kernel.grid_dims())
                # The transposed copy lives in a fresh block; the array
                # is rebound onto it and the old backing becomes dead
                # (the memory planner will free it).
                counter[0] += 1
                block = MemBlock(
                    name=f"{acc.array}_mem{counter[0]}",
                    elem_bytes=elem_bytes,
                    elems=elems,
                    shape=tuple(shape) if shape is not None else (),
                )
                hp.blocks[block.name] = block
                out.append(AllocStmt(block))
                out.append(
                    ManifestStmt(
                        src=acc.array,
                        dst=acc.array,
                        layout=desired,
                        elem_bytes=elem_bytes,
                        elems=elems,
                        block=block,
                    )
                )
                layouts[acc.array] = desired
                kernel.layouts[acc.array] = desired
            for p in kernel.pat:
                produced_by[p.name] = kernel
            out.append(s)
        elif isinstance(s, HostLoopStmt):
            # Loop-carried arrays may flow through kernels that want a
            # different layout; process the body with the current
            # tables.  A manifest of a carried array repeats every
            # iteration (as in LocVolCalib); one of an invariant array
            # is hoisted, so it transposes once.
            s.body = _walk(s.body, layouts, produced_by, hp, counter)
            out.extend(_hoist_invariant_manifests(s))
            out.append(s)
        elif isinstance(s, HostIfStmt):
            s.then_body = _walk(
                s.then_body, layouts, produced_by, hp, counter
            )
            s.else_body = _walk(
                s.else_body, layouts, produced_by, hp, counter
            )
            out.append(s)
        else:
            out.append(s)
    return out


def _hoist_invariant_manifests(loop: HostLoopStmt) -> List:
    """Take out of ``loop``'s body, and return, what the manifests of
    its loop-invariant arrays do alike on every iteration (Fig. 3's
    hoisting, of a layout change).  Of an array the body manifests
    once, the allocation and the manifest: one transposed copy made
    before the loop serves every iteration.  Of one it manifests to
    several layouts, the allocation the last manifest fills: the array
    enters the next iteration bound to that block, so the block lives
    across the back-edge, and is allocated once."""
    top = {id(s) for s in loop.body}
    blocks: Set[int] = set()
    manifests: Set[int] = set()
    for ms in _invariant_manifests(loop).values():
        if id(ms[-1]) in top:
            blocks.add(id(ms[-1].block))
            if len(ms) == 1:
                manifests.add(id(ms[0]))

    def moves(s) -> bool:
        if isinstance(s, AllocStmt):
            return id(s.block) in blocks
        return id(s) in manifests

    hoisted = [s for s in loop.body if moves(s)]
    loop.body = [s for s in loop.body if not moves(s)]
    return hoisted


def _invariant_manifests(loop: HostLoopStmt) -> Dict[str, List[ManifestStmt]]:
    """The manifests in ``loop``'s body (nested scopes' included, in
    order) of each array the body reads but neither carries nor binds."""
    bound = {p.name for p, _ in loop.merge}
    manifests: Dict[str, List[ManifestStmt]] = {}
    for s in _nested(loop.body):
        if isinstance(s, ManifestStmt):
            manifests.setdefault(s.src, []).append(s)
        elif isinstance(s, LaunchStmt):
            bound |= {p.name for p in s.kernel.pat}
        elif isinstance(s, HostEval):
            bound |= {p.name for p in s.binding.pat}
        elif isinstance(s, (HostLoopStmt, HostIfStmt)):
            bound |= {p.name for p in s.pat}
            bound |= {p.name for p, _ in getattr(s, "merge", ())}
    return {src: ms for src, ms in manifests.items() if src not in bound}


def _can_retarget(producer: Kernel, array: str) -> bool:
    """A producing map kernel whose write to ``array`` is plain
    (one value per thread) can write in any layout for free."""
    if producer.kind not in ("map", "builtin"):
        return False
    return any(
        a.array == array and a.is_write and not a.gather
        for a in producer.accesses
    )


def _retarget_writes(producer: Kernel, array: str, layout: IndexFn) -> None:
    producer.layouts[array] = layout
