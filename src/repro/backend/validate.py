"""Well-formedness checking for host programs.

The core-IR half of the pipeline re-typechecks after every guarded
pass; this is the analogous check for the kernel-IR half, run by the
driver's pass guard after every memory pass, so a broken one rolls
back instead of corrupting downstream stages.  Checked invariants:

* every referenced device block is allocated before use (parameters
  count as allocated on entry);
* no array is read, and no block freed, after it was freed.  Names
  are bound to *generations* of a block (each execution of its
  ``AllocStmt`` starts one), so a read through a freed generation is
  caught even after the block was re-allocated; loop bodies are walked
  twice, so a generation freed in iteration *i* and read in iteration
  *i + 1* is caught too;
* ``AllocStmt.reuse_of`` names a live block;
* a manifestation's layout permutation rank matches the shape rank of
  the block it fills.

The checker is deliberately lenient about arrays it cannot map to a
block (scalars, loop merge parameters, kernel-internal scratch): only
provable violations fail, so rolling back is always justified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..core import ast as A
from .kernel_ir import (
    AllocStmt,
    FreeStmt,
    HostEval,
    HostIfStmt,
    HostLoopStmt,
    HostProgram,
    LaunchStmt,
    ManifestStmt,
)

__all__ = ["validate_host_program"]


#: A generation of a block: its name and how many times it has been
#: allocated.  Array names are bound to generations, not to blocks.
Gen = Tuple[str, int]


@dataclass
class _Memory:
    """Which generations are live and which dead, each block's current
    generation, and the generation each array name is bound to."""

    live: Set[Gen]
    dead: Set[Gen]
    current: Dict[str, int]
    backing: Dict[str, Gen]

    def gen(self, block: str) -> Gen:
        return (block, self.current.get(block, 0))

    def kill(self, g: Gen) -> None:
        self.live.discard(g)
        self.dead.add(g)

    def branch(self) -> "_Memory":
        return _Memory(
            set(self.live), set(self.dead), dict(self.current), self.backing
        )


def validate_host_program(hp: HostProgram) -> List[str]:
    """Check the memory well-formedness of ``hp``; returns a list of
    problems (empty = valid)."""
    errors: List[str] = []
    params = {n: (n, 0) for n, b in hp.blocks.items() if b.space == "param"}
    mem = _Memory(
        set(params.values()), set(), dict.fromkeys(params, 0), params
    )
    _walk(hp.stmts, mem, errors)
    for a in hp.result:
        if isinstance(a, A.Var) and mem.backing.get(a.name) in mem.dead:
            errors.append(
                f"program result {a.name!r} backed by freed "
                f"block {mem.backing[a.name][0]!r}"
            )
    return errors


def _check_refs(names, mem: _Memory, errors: List[str], where: str) -> None:
    for n in names:
        g = mem.backing.get(n)
        if g is None:
            continue  # scalar / scratch / unmapped: be lenient
        if g in mem.dead:
            errors.append(f"{where}: use of {n!r} after free of {g[0]!r}")
        elif g not in mem.live:
            errors.append(
                f"{where}: {n!r} references unallocated block {g[0]!r}"
            )


def _alias_pat(pat, atoms, backing: Dict[str, Gen]) -> None:
    for p, a in zip(pat, atoms):
        if isinstance(a, A.Var) and a.name in backing:
            backing[p.name] = backing[a.name]


def _walk(stmts, mem: _Memory, errors: List[str]) -> None:
    from ..memory.plan import _alias_source, _stmt_refs

    backing = mem.backing
    for s in stmts:
        if isinstance(s, AllocStmt):
            if s.reuse_of is not None:
                donor = mem.gen(s.reuse_of)
                if donor in mem.dead:
                    errors.append(
                        f"alloc {s.block.name!r}: reuse of freed "
                        f"block {s.reuse_of!r}"
                    )
                elif donor not in mem.live:
                    errors.append(
                        f"alloc {s.block.name!r}: reuse of unallocated "
                        f"block {s.reuse_of!r}"
                    )
                else:
                    mem.kill(donor)
            old = mem.gen(s.block.name)
            if s.recycle and old in mem.live:
                mem.kill(old)  # released; without recycle it leaks
            mem.current[s.block.name] = old[1] + 1
            mem.live.add(mem.gen(s.block.name))
            backing[s.block.name] = mem.gen(s.block.name)
        elif isinstance(s, FreeStmt):
            g = mem.gen(s.block)
            if g in mem.dead:
                errors.append(f"double free of block {s.block!r}")
            elif g not in mem.live:
                errors.append(f"free of unallocated block {s.block!r}")
            mem.kill(g)
        elif isinstance(s, ManifestStmt):
            _check_refs({s.src}, mem, errors, f"manifest {s.dst!r}")
            if s.block is not None:
                rank = len(s.layout.perm)
                if s.block.shape and rank != len(s.block.shape):
                    errors.append(
                        f"manifest {s.dst!r}: layout rank {rank} != "
                        f"shape rank {len(s.block.shape)} of block "
                        f"{s.block.name!r}"
                    )
                if mem.gen(s.block.name) not in mem.live:
                    errors.append(
                        f"manifest {s.dst!r} into unallocated "
                        f"block {s.block.name!r}"
                    )
                backing[s.dst] = mem.gen(s.block.name)
        elif isinstance(s, LaunchStmt):
            _check_refs(
                _stmt_refs(s), mem, errors, f"kernel {s.kernel.name!r}"
            )
            if s.elide_copy is not None:
                g = backing.get(s.elide_copy)
                if g is not None:
                    for p in s.kernel.pat:
                        backing[p.name] = g
        elif isinstance(s, HostEval):
            _check_refs(
                _stmt_refs(s), mem, errors,
                f"host eval of {[p.name for p in s.binding.pat]}",
            )
            src = _alias_source(s.binding.exp)
            if src is not None and src in backing:
                for p in s.binding.pat:
                    backing[p.name] = backing[src]
        elif isinstance(s, HostLoopStmt):
            init_names = {
                init.name
                for _, init in s.merge
                if isinstance(init, A.Var)
            }
            _check_refs(init_names, mem, errors, "loop merge init")
            # Two walks: the second catches a generation freed in
            # iteration i and read in iteration i+1, re-allocated or not.
            # Each iteration starts with the merge parameters bound to
            # the merge state, which lives in the initialisers' blocks.
            for _ in range(2):
                _alias_pat([p for p, _ in s.merge],
                           [init for _, init in s.merge], backing)
                _walk(s.body, mem, errors)
            _alias_pat(s.pat, s.body_result, backing)
        elif isinstance(s, HostIfStmt):
            then_mem, else_mem = mem.branch(), mem.branch()
            _walk(s.then_body, then_mem, errors)
            _walk(s.else_body, else_mem, errors)
            mem.live = then_mem.live | else_mem.live
            mem.dead = then_mem.dead & else_mem.dead
            for m in (then_mem, else_mem):
                for block, n in m.current.items():
                    mem.current[block] = max(n, mem.current.get(block, 0))
            _alias_pat(s.pat, s.then_result, backing)
