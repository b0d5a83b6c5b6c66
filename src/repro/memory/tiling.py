"""Block tiling in fast (local) memory (Section 5.2).

Lowering records, per kernel, where a tile could go
(``Kernel.tile_candidates``): the arrays that are streamed sequentially
by every thread while being invariant to the kernel's parallel
dimensions (the N-body pattern: every body loops over all bodies) —
exactly the inputs of ``stream_seq`` constructs invariant to a
parallel dimension.  This pass turns them into ``Kernel.tiles``, the
staged-through-local-memory costing; two candidate arrays invariant to
different dimensions mark two-dimensional tiling (the
matrix-multiplication and MRI-Q pattern).  Disabling the pass is the
§6.1.1 tiling ablation.
"""

from __future__ import annotations

from ..backend.kernel_ir import (
    HostIfStmt,
    HostLoopStmt,
    HostProgram,
    LaunchStmt,
    TileInfo,
)

__all__ = ["tile_program"]


def tile_program(hp: HostProgram) -> HostProgram:
    """Tile every candidate lowering recorded."""
    _walk(hp.stmts)
    return hp


def _walk(stmts) -> None:
    for s in stmts:
        if isinstance(s, LaunchStmt):
            kernel = s.kernel
            two_d = len(kernel.tile_candidates) >= 2
            kernel.tiles = [
                TileInfo(t.array, t.elem_bytes, two_d=two_d)
                for t in kernel.tile_candidates
            ]
        elif isinstance(s, HostLoopStmt):
            _walk(s.body)
        elif isinstance(s, HostIfStmt):
            _walk(s.then_body)
            _walk(s.else_body)
