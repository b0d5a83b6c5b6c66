"""Unit tests for the kernel IR datatypes."""

import pytest

from repro.backend.kernel_ir import (
    AccessInfo,
    AllocStmt,
    Count,
    HostIfStmt,
    HostLoopStmt,
    HostProgram,
    Kernel,
    LaunchStmt,
    ManifestStmt,
)
from repro.bench.programs import ALL_NAMES
from repro.bench.suite import BENCHMARKS
from repro.core import ast as A
from repro.core.prim import I32
from repro.memory.index_fn import IndexFn
from repro.pipeline import compile_program


def _kernel(name="k", grid=("n",)):
    return Kernel(
        name=name,
        kind="map",
        grid=tuple(A.Var(d) if isinstance(d, str) else A.Const(d, I32)
                   for d in grid),
        seg_width=None,
        exp=None,
        pat=(),
    )


class TestKernel:
    def test_grid_dims_mixed(self):
        k = _kernel(grid=("n", 16))
        assert k.grid_dims() == ("n", 16)

    def test_threads_polynomial(self):
        k = _kernel(grid=("n", "m"))
        assert k.threads().evaluate({"n": 3, "m": 5}) == 15


class TestCoalescedUnder:
    def test_direct_access_row_major(self):
        acc = AccessInfo("a", 4, Count.of(1.0), thread_dims=2)
        assert acc.coalesced_under(IndexFn.identity(2), 2)

    def test_direct_access_column_major(self):
        acc = AccessInfo("a", 4, Count.of(1.0), thread_dims=2)
        assert not acc.coalesced_under(IndexFn((1, 0)), 2)

    def test_sequential_suffix_row_major_uncoalesced(self):
        acc = AccessInfo("a", 4, Count.of(1.0), thread_dims=1, seq_rank=1)
        assert not acc.coalesced_under(IndexFn.identity(2), 1)

    def test_sequential_suffix_transposed_coalesced(self):
        acc = AccessInfo("a", 4, Count.of(1.0), thread_dims=1, seq_rank=1)
        assert acc.coalesced_under(IndexFn((1, 0)), 1)

    def test_gather_never_coalesced(self):
        acc = AccessInfo("a", 4, Count.of(1.0), thread_dims=1, gather=True)
        assert not acc.coalesced_under(IndexFn.identity(1), 1)

    def test_invariant_always_fine(self):
        acc = AccessInfo("a", 4, Count.of(1.0), invariant=True)
        assert acc.coalesced_under(IndexFn.identity(1), 1)


class TestHostProgram:
    def test_kernels_walks_control_flow(self):
        k1, k2, k3 = _kernel("a"), _kernel("b"), _kernel("c")
        loop = HostLoopStmt(
            merge=(),
            form=A.ForLoop("i", A.Const(2, I32)),
            body=[LaunchStmt(k2)],
            body_result=(),
            pat=(),
        )
        branch = HostIfStmt(
            cond=A.Const(True, I32),
            then_body=[LaunchStmt(k3)],
            then_result=(),
            else_body=[],
            else_result=(),
            pat=(),
        )
        hp = HostProgram(
            name="main",
            params=(),
            stmts=[LaunchStmt(k1), loop, branch],
            result=(),
        )
        assert [k.name for k in hp.kernels()] == ["a", "b", "c"]


def _stmt_blocks(stmts):
    """The blocks an ``AllocStmt`` or a ``ManifestStmt`` brings live,
    through host loops and branches."""
    for s in stmts:
        if isinstance(s, AllocStmt):
            yield s.block.name
        elif isinstance(s, ManifestStmt) and s.block is not None:
            yield s.block.name
        elif isinstance(s, HostLoopStmt):
            yield from _stmt_blocks(s.body)
        elif isinstance(s, HostIfStmt):
            yield from _stmt_blocks(s.then_body)
            yield from _stmt_blocks(s.else_body)


@pytest.mark.parametrize("name", list(ALL_NAMES))
def test_every_block_is_a_parameter_or_brought_live_by_a_statement(name):
    """A lowered program has no block that nothing allocates: each is
    a parameter's, or an ``AllocStmt``'s or a ``ManifestStmt``'s."""
    hp = compile_program(BENCHMARKS[name].program()).host
    params = {p.name for p in hp.params if p.name in hp.blocks}
    assert {n for n, b in hp.blocks.items() if b.space == "param"} == params
    assert set(hp.blocks) == params | set(_stmt_blocks(hp.stmts))
