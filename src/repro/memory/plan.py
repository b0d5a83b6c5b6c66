"""Liveness-based device-memory planning.

Codegen allocates one fresh block per kernel output and the coalescing
pass one per manifestation, and nothing is ever freed — the *naive*
memory behaviour (what ``--disable-pass memory-plan`` runs).  This pass
turns that into a plan:

1. **Liveness** — a per-scope analysis over the host statements.
   Alias classes are tracked through host-eval views (``rearrange``,
   ``reshape``, slicing, ``update``), loop/branch result patterns and
   elided copies, mapping every array name to its *backing block*.
   A nested loop or branch counts as a single use point of everything
   referenced anywhere inside it, so nothing owned by an outer scope is
   ever freed from inside a loop body (loop-carried arrays stay live
   across all iterations).
2. **Frees** — a :class:`~repro.backend.kernel_ir.FreeStmt` is placed
   immediately after the last use of every block allocated in the
   scope, except blocks that back the scope's live-out values (the
   program result; a loop body's carried results).
3. **Copy elision** — a ``copy`` kernel whose source dies at the copy
   is the uniqueness-justified case of §2.2/§4: the consumer could
   have mutated the source in place all along.  The launch is marked
   ``elide_copy`` (the engines alias instead of copying), its output
   allocation disappears, and the output adopts the source's block.
4. **Block reuse** — a forward pass threads a pool of freed blocks;
   an allocation of identical extent (same symbolic ``Count`` and
   element size) is served from the pool via ``AllocStmt.reuse_of``
   instead of new bytes.

The pass only rewrites statement lists and allocation statements; it
never touches kernels, so results are bit-identical with planning on or
off (asserted benchmark-by-benchmark by
``tests/memory/test_plan_differential.py``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..backend.kernel_ir import (
    AllocStmt,
    FreeStmt,
    HostEval,
    HostIfStmt,
    HostLoopStmt,
    HostProgram,
    LaunchStmt,
    ManifestStmt,
)
from ..core import ast as A
from ..core.traversal import free_vars_exp

__all__ = ["plan_memory"]


def plan_memory(hp: HostProgram, allow_elision: bool = True) -> HostProgram:
    """Insert frees at last use, elide dead-source copies and recycle
    dead blocks.  Disabling the pass is the ablation: the naive
    never-free allocation behaviour is left untouched."""
    backing = _initial_backing(hp)
    manifest_srcs: Dict[int, str] = {}
    _extend_backing(backing, hp.stmts, manifest_srcs)
    live_out = {
        backing[a.name]
        for a in hp.result
        if isinstance(a, A.Var) and a.name in backing
    }
    owned = {
        name for name, b in hp.blocks.items() if b.space == "param"
    }
    hp.stmts = _plan_scope(
        hp, hp.stmts, backing, live_out, owned, allow_elision,
        manifest_srcs,
    )
    return hp


# ---------------------------------------------------------------------------
# Alias classes: array name -> backing block name
# ---------------------------------------------------------------------------

#: Host-eval expressions whose result aliases (a view of, or the
#: in-place-updated storage of) their array operand.
_ALIASING = (A.AtomExp, A.RearrangeExp, A.ReshapeExp, A.UpdateExp)


def _initial_backing(hp: HostProgram) -> Dict[str, str]:
    return {
        name: name for name, b in hp.blocks.items() if b.space == "param"
    }


def _alias_source(e: A.Exp) -> Optional[str]:
    """The array an expression's result aliases, if any."""
    if isinstance(e, A.AtomExp) and isinstance(e.atom, A.Var):
        return e.atom.name
    if isinstance(e, (A.RearrangeExp, A.ReshapeExp, A.UpdateExp)):
        arr = e.arr
        return arr.name if isinstance(arr, A.Var) else None
    if isinstance(e, A.IndexExp):
        # A slice aliases the sliced array (a full index is a scalar,
        # which has no block anyway — mapping it is harmless).
        arr = e.arr
        return arr.name if isinstance(arr, A.Var) else None
    return None


def _extend_backing(
    backing: Dict[str, str],
    stmts: Sequence,
    manifest_srcs: Optional[Dict[int, str]] = None,
) -> None:
    """Forward propagation of alias classes through one scope (and its
    nested scopes — names are globally unique).

    ``manifest_srcs`` (keyed by statement identity) records the block
    each manifestation *reads*, captured before an in-place manifest
    (``dst == src``) rebinds the name onto its destination block.  The
    final ``backing`` map is flow-insensitive, so without this record a
    manifest's source block would look dead one statement early and the
    planner would free (or recycle) it before the re-layout reads it.
    """
    for s in stmts:
        if isinstance(s, AllocStmt):
            backing[s.block.name] = s.block.name
        elif isinstance(s, ManifestStmt):
            if manifest_srcs is not None and s.src in backing:
                manifest_srcs.setdefault(id(s), backing[s.src])
            if s.block is not None:
                backing[s.dst] = s.block.name
        elif isinstance(s, HostEval):
            src = _alias_source(s.binding.exp)
            if src is not None and src in backing:
                for p in s.binding.pat:
                    backing[p.name] = backing[src]
        elif isinstance(s, HostLoopStmt):
            # Merge params alias their initialisers *before* the body
            # runs — seed them first so body statements that view or
            # update a carried array map back to the init's block
            # (matches the validator's walk order).
            for p, init in s.merge:
                if isinstance(init, A.Var) and init.name in backing:
                    backing.setdefault(p.name, backing[init.name])
            _extend_backing(backing, s.body, manifest_srcs)
            for p, a in zip(s.pat, s.body_result):
                if isinstance(a, A.Var) and a.name in backing:
                    backing[p.name] = backing[a.name]
        elif isinstance(s, HostIfStmt):
            _extend_backing(backing, s.then_body, manifest_srcs)
            _extend_backing(backing, s.else_body, manifest_srcs)
            for p, a in zip(s.pat, s.then_result):
                if isinstance(a, A.Var) and a.name in backing:
                    backing[p.name] = backing[a.name]


# ---------------------------------------------------------------------------
# Uses
# ---------------------------------------------------------------------------


def _names_of_atoms(atoms) -> Set[str]:
    return {a.name for a in atoms if isinstance(a, A.Var)}


def _stmt_refs(s) -> Set[str]:
    """Every name a statement references, nested scopes included."""
    if isinstance(s, LaunchStmt):
        refs = free_vars_exp(s.kernel.exp)
        refs |= {a.array for a in s.kernel.accesses}
        refs |= _names_of_atoms(s.kernel.grid)
        if s.elide_copy is not None:
            refs.add(s.elide_copy)
        return refs
    if isinstance(s, HostEval):
        return free_vars_exp(s.binding.exp)
    if isinstance(s, ManifestStmt):
        return {s.src}
    if isinstance(s, AllocStmt):
        refs = {s.block.name}
        if s.reuse_of is not None:
            refs.add(s.reuse_of)
        return refs
    if isinstance(s, FreeStmt):
        return {s.block}
    if isinstance(s, HostLoopStmt):
        refs: Set[str] = set()
        for _, init in s.merge:
            if isinstance(init, A.Var):
                refs.add(init.name)
        if isinstance(s.form, A.ForLoop):
            if isinstance(s.form.bound, A.Var):
                refs.add(s.form.bound.name)
        for sub in s.body:
            refs |= _stmt_refs(sub)
        refs |= _names_of_atoms(s.body_result)
        return refs
    if isinstance(s, HostIfStmt):
        refs = set()
        if isinstance(s.cond, A.Var):
            refs.add(s.cond.name)
        for sub in list(s.then_body) + list(s.else_body):
            refs |= _stmt_refs(sub)
        refs |= _names_of_atoms(s.then_result)
        refs |= _names_of_atoms(s.else_result)
        return refs
    return set()


def _nested(stmts: Sequence) -> Iterator:
    """Every statement of ``stmts`` and of their nested scopes."""
    for s in stmts:
        yield s
        if isinstance(s, HostLoopStmt):
            yield from _nested(s.body)
        elif isinstance(s, HostIfStmt):
            yield from _nested(s.then_body)
            yield from _nested(s.else_body)


def _used_blocks(
    s,
    backing: Dict[str, str],
    manifest_srcs: Optional[Dict[int, str]] = None,
) -> Set[str]:
    blocks = {backing[n] for n in _stmt_refs(s) if n in backing}
    if manifest_srcs:
        for m in _nested([s]):
            if not isinstance(m, ManifestStmt):
                continue
            src_block = manifest_srcs.get(id(m))
            if src_block is not None:
                blocks.add(src_block)
    return blocks


# ---------------------------------------------------------------------------
# The planner proper
# ---------------------------------------------------------------------------


def _plan_scope(
    hp: HostProgram,
    stmts: List,
    backing: Dict[str, str],
    live_out: Set[str],
    extra_owned: Set[str],
    allow_elision: bool,
    manifest_srcs: Dict[int, str],
) -> List:
    """Plan one statement list in place; returns the new list."""
    _extend_backing(backing, stmts, manifest_srcs)

    # Recurse into nested scopes first: their live-out is everything
    # that flows out through the result pattern or stays loop-carried.
    for s in stmts:
        if isinstance(s, HostLoopStmt):
            inner_out = set(live_out)
            inner_out |= {
                backing[a.name]
                for a in s.body_result
                if isinstance(a, A.Var) and a.name in backing
            }
            inner_out |= {
                backing[init.name]
                for _, init in s.merge
                if isinstance(init, A.Var) and init.name in backing
            }
            s.body = _plan_scope(
                hp, s.body, backing, inner_out, set(), allow_elision,
                manifest_srcs,
            )
            _mark_recycled(s, backing)
        elif isinstance(s, HostIfStmt):
            inner_out = set(live_out)
            inner_out |= {
                backing[a.name]
                for a in list(s.then_result) + list(s.else_result)
                if isinstance(a, A.Var) and a.name in backing
            }
            s.then_body = _plan_scope(
                hp, s.then_body, backing, inner_out, set(), allow_elision,
                manifest_srcs,
            )
            s.else_body = _plan_scope(
                hp, s.else_body, backing, inner_out, set(), allow_elision,
                manifest_srcs,
            )

    def _owned() -> Set[str]:
        o = set(extra_owned)
        for s in stmts:
            if isinstance(s, AllocStmt):
                o.add(s.block.name)
            else:
                # Blocks allocated inside a nested scope escape into
                # this one through its result pattern (a loop's final
                # carried buffer; a branch result): this scope is the
                # place their last use is visible, so it owns the free.
                o |= _escaped_blocks(hp, s, backing)
        return o

    owned = _owned()
    if allow_elision:
        stmts = _elide_copies(stmts, backing, live_out, owned, manifest_srcs)
        # Elision re-routes outputs onto source blocks.
        _extend_backing(backing, stmts, manifest_srcs)
        owned = _owned()

    stmts = _insert_frees(stmts, backing, live_out, owned, manifest_srcs)
    stmts = _reuse_blocks(hp, stmts)
    return stmts


def _allocated_within(stmts) -> Set[str]:
    return {s.block.name for s in _nested(stmts) if isinstance(s, AllocStmt)}


def _escaped_blocks(hp: HostProgram, s, backing: Dict[str, str]) -> Set[str]:
    """Blocks allocated inside ``s`` (a nested scope) that back its
    result pattern — live after the scope, owned by the enclosing
    one."""
    if isinstance(s, HostLoopStmt):
        inner = _allocated_within(s.body)
    elif isinstance(s, HostIfStmt):
        inner = _allocated_within(s.then_body) | _allocated_within(
            s.else_body
        )
    else:
        return set()
    escaping = {backing[p.name] for p in s.pat if p.name in backing}
    return {
        block
        for block in escaping
        if block in inner
        and hp.blocks.get(block) is not None
        and hp.blocks[block].space == "device"
    }


def _mark_recycled(s: HostLoopStmt, backing: Dict[str, str]) -> None:
    """Mark loop-body allocations of double-buffered carried results
    ``recycle``: by the time the body re-runs, the previous generation
    was copied into the merge state, so the heap may release it instead
    of leaking it."""
    carried = {
        backing[a.name]
        for (p, _), a in zip(s.merge, s.body_result)
        if p.name in s.double_buffered
        and isinstance(a, A.Var)
        and a.name in backing
    }
    for sub in s.body:
        if isinstance(sub, AllocStmt) and sub.block.name in carried:
            sub.recycle = True


def _is_copy_launch(s) -> bool:
    return (
        isinstance(s, LaunchStmt)
        and isinstance(s.kernel.exp, A.CopyExp)
        and s.elide_copy is None
        and len(s.kernel.pat) == 1
    )


def _elide_copies(
    stmts: List,
    backing: Dict[str, str],
    live_out: Set[str],
    owned: Set[str],
    manifest_srcs: Optional[Dict[int, str]] = None,
) -> List:
    last_use = _last_uses(stmts, backing, manifest_srcs)
    out: List = []
    elided_allocs: Set[int] = set()
    for i, s in enumerate(stmts):
        if _is_copy_launch(s):
            src = s.kernel.exp.arr
            src_name = src.name if isinstance(src, A.Var) else None
            block = backing.get(src_name) if src_name else None
            if (
                block is not None
                and block in owned
                and block not in live_out
                and last_use.get(block) == i
            ):
                s.elide_copy = src_name
                out_name = s.kernel.pat[0].name
                backing[out_name] = block
                elided_allocs.add(i)
    for i, s in enumerate(stmts):
        if (
            isinstance(s, AllocStmt)
            and i + 1 in elided_allocs
            and i + 1 < len(stmts)
            and _is_copy_launch_elided(stmts[i + 1], s.block.name)
        ):
            continue  # the output now lives in the source's block
        out.append(s)
    return out


def _is_copy_launch_elided(s, block_name: str) -> bool:
    return (
        isinstance(s, LaunchStmt)
        and s.elide_copy is not None
        and len(s.kernel.pat) == 1
        and s.kernel.pat[0].name == block_name
    )


def _last_uses(
    stmts: Sequence,
    backing: Dict[str, str],
    manifest_srcs: Optional[Dict[int, str]] = None,
) -> Dict[str, int]:
    last: Dict[str, int] = {}
    for i, s in enumerate(stmts):
        for block in _used_blocks(s, backing, manifest_srcs):
            last[block] = i
    return last


def _insert_frees(
    stmts: List,
    backing: Dict[str, str],
    live_out: Set[str],
    owned: Set[str],
    manifest_srcs: Optional[Dict[int, str]] = None,
) -> List:
    last_use = _last_uses(stmts, backing, manifest_srcs)
    frees_after: Dict[int, List[str]] = {}
    for block in owned:
        if block in live_out:
            continue
        idx = last_use.get(block)
        if idx is None:
            continue
        frees_after.setdefault(idx, []).append(block)
    out: List = []
    for i, s in enumerate(stmts):
        out.append(s)
        for block in sorted(frees_after.get(i, [])):
            out.append(FreeStmt(block))
    return out


def _reuse_blocks(hp: HostProgram, stmts: List) -> List:
    """Serve allocations from same-extent blocks freed earlier in the
    scope (first-fit on exact symbolic extent).  The matched free is
    dropped: the reuse-allocation itself takes the block over while it
    is still live, so the heap renames the bytes instead of releasing
    and recharging them."""
    # (index of the FreeStmt, name, elems, elem_bytes)
    pool: List[Tuple[int, str, object, int]] = []
    taken: Set[int] = set()
    for i, s in enumerate(stmts):
        if isinstance(s, FreeStmt):
            block = hp.blocks.get(s.block)
            if block is not None and block.space == "device":
                pool.append((i, block.name, block.elems, block.elem_bytes))
        elif isinstance(s, AllocStmt) and s.reuse_of is None:
            for j, (idx, name, elems, elem_bytes) in enumerate(pool):
                if (
                    elems == s.block.elems
                    and elem_bytes == s.block.elem_bytes
                ):
                    s.reuse_of = name
                    taken.add(idx)
                    pool.pop(j)
                    break
    return [s for i, s in enumerate(stmts) if i not in taken]
