"""Well-formedness checking for host programs.

The core-IR half of the pipeline re-typechecks after every guarded
pass; this is the analogous check for the kernel-IR half, run by the
driver's pass guard after every memory pass, so a broken one rolls
back instead of corrupting downstream stages.  Checked invariants:

* every referenced device block is allocated before use (parameters
  count as allocated on entry);
* no block is used or freed after it was freed (loop bodies are walked
  twice, so a block freed in iteration *i* and used in iteration
  *i + 1* before its re-allocation is caught);
* ``AllocStmt.reuse_of`` names a live block;
* a block's layout permutation rank matches its logical shape rank.

The checker is deliberately lenient about arrays it cannot map to a
block (scalars, loop merge parameters, kernel-internal scratch): only
provable violations fail, so rolling back is always justified.
"""

from __future__ import annotations

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


def validate_host_program(hp: HostProgram) -> List[str]:
    """Check the memory well-formedness of ``hp``; returns a list of
    problems (empty = valid)."""
    errors: List[str] = []
    for name, block in hp.blocks.items():
        if block.shape and len(block.layout.perm) != len(block.shape):
            errors.append(
                f"block {name!r}: layout rank {len(block.layout.perm)} "
                f"!= shape rank {len(block.shape)}"
            )
    live: Set[str] = {
        name for name, b in hp.blocks.items() if b.space == "param"
    }
    freed: Set[str] = set()
    backing: Dict[str, str] = {name: name for name in live}
    _walk(hp, hp.stmts, live, freed, backing, errors)
    for a in hp.result:
        if isinstance(a, A.Var):
            block = backing.get(a.name)
            if block is not None and block in freed:
                errors.append(
                    f"program result {a.name!r} backed by freed "
                    f"block {block!r}"
                )
    return errors


def _check_refs(
    names,
    live: Set[str],
    freed: Set[str],
    backing: Dict[str, str],
    errors: List[str],
    where: str,
) -> None:
    for n in names:
        block = backing.get(n)
        if block is None:
            continue  # scalar / scratch / unmapped: be lenient
        if block in freed:
            errors.append(f"{where}: use of {n!r} after free of {block!r}")
        elif block not in live:
            errors.append(
                f"{where}: {n!r} references unallocated block {block!r}"
            )


def _alias_pat(
    pat, atoms, backing: Dict[str, str]
) -> None:
    for p, a in zip(pat, atoms):
        if isinstance(a, A.Var) and a.name in backing:
            backing[p.name] = backing[a.name]


def _walk(
    hp: HostProgram,
    stmts,
    live: Set[str],
    freed: Set[str],
    backing: Dict[str, str],
    errors: List[str],
) -> None:
    from ..memory.plan import _alias_source, _stmt_refs

    for s in stmts:
        if isinstance(s, AllocStmt):
            if s.reuse_of is not None:
                if s.reuse_of in freed:
                    errors.append(
                        f"alloc {s.block.name!r}: reuse of freed "
                        f"block {s.reuse_of!r}"
                    )
                elif s.reuse_of not in live:
                    errors.append(
                        f"alloc {s.block.name!r}: reuse of unallocated "
                        f"block {s.reuse_of!r}"
                    )
                else:
                    live.discard(s.reuse_of)
            live.add(s.block.name)
            freed.discard(s.block.name)
            backing[s.block.name] = s.block.name
        elif isinstance(s, FreeStmt):
            if s.block in freed:
                errors.append(f"double free of block {s.block!r}")
            elif s.block not in live:
                errors.append(f"free of unallocated block {s.block!r}")
            live.discard(s.block)
            freed.add(s.block)
        elif isinstance(s, ManifestStmt):
            _check_refs(
                {s.src}, live, freed, backing, errors,
                f"manifest {s.dst!r}",
            )
            if s.block is not None:
                if s.block.name not in live:
                    errors.append(
                        f"manifest {s.dst!r} into unallocated "
                        f"block {s.block.name!r}"
                    )
                backing[s.dst] = s.block.name
        elif isinstance(s, LaunchStmt):
            _check_refs(
                _stmt_refs(s), live, freed, backing, errors,
                f"kernel {s.kernel.name!r}",
            )
            if s.elide_copy is not None:
                block = backing.get(s.elide_copy)
                if block is not None:
                    for p in s.kernel.pat:
                        backing[p.name] = block
        elif isinstance(s, HostEval):
            _check_refs(
                _stmt_refs(s), live, freed, backing, errors,
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
            _check_refs(
                init_names, live, freed, backing, errors,
                "loop merge init",
            )
            for p, init in s.merge:
                if isinstance(init, A.Var) and init.name in backing:
                    backing.setdefault(p.name, backing[init.name])
            # Two walks: the second catches a block freed in iteration
            # i and referenced in iteration i+1 before re-allocation.
            _walk(hp, s.body, live, freed, backing, errors)
            _walk(hp, s.body, live, freed, backing, errors)
            _alias_pat(s.pat, s.body_result, backing)
        elif isinstance(s, HostIfStmt):
            then_live, then_freed = set(live), set(freed)
            else_live, else_freed = set(live), set(freed)
            _walk(hp, s.then_body, then_live, then_freed, backing, errors)
            _walk(hp, s.else_body, else_live, else_freed, backing, errors)
            live.clear()
            live.update(then_live | else_live)
            freed.clear()
            freed.update(then_freed & else_freed)
            _alias_pat(s.pat, s.then_result, backing)
