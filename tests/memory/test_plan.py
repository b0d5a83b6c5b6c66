"""Unit tests of the liveness-based memory planner and the host-program
validator it is guarded by."""

import numpy as np
import pytest

from repro.backend.kernel_ir import (
    AccessInfo,
    AllocStmt,
    Count,
    FreeStmt,
    HostLoopStmt,
    HostProgram,
    Kernel,
    LaunchStmt,
    ManifestStmt,
    MemBlock,
)
from repro.backend.validate import validate_host_program
from repro.core import array_value, scalar
from repro.core import ast as A
from repro.core.prim import F32, I32
from repro.memory.index_fn import IndexFn
from repro.memory.plan import plan_memory
from repro.pipeline import CompilerOptions, compile_source

CHAIN = """
fun main (xs: [n]f32): [n]f32 =
  let a = map (\\(x: f32) -> x + 1.0f32) xs
  let b = map (\\(x: f32) -> x * 2.0f32) a
  in map (\\(x: f32) -> x - 3.0f32) b
"""

COPY_CHAIN = """
fun main (xs: [n]f32): [n]f32 =
  let a = map (\\(x: f32) -> x + 1.0f32) xs
  let b = copy a
  in map (\\(x: f32) -> x * 2.0f32) b
"""

#: A row traversal: the coalescing pass transposes ``m`` (§5.2).
ROWS = """
fun main (m: [a][b]f32): [a]f32 =
  map (\\(row: [b]f32) ->
    loop (acc = 0.0f32) for j < b do acc + row[j]) m
"""

LOOP = """
fun main (xs: [n]f32) (iters: i32): [n]f32 =
  let ys = map (\\(x: f32) -> x + 1.0f32) xs
  in loop (t = ys) for it < iters do
       map (\\(x: f32) -> x * 0.5f32) t
"""


def _stmts_of(src, **opts):
    compiled = compile_source(src, CompilerOptions(**opts))
    return compiled, compiled.host.stmts


def _flat(stmts):
    for s in stmts:
        yield s
        if isinstance(s, HostLoopStmt):
            yield from _flat(s.body)


class TestFrees:
    def test_naive_schedule_never_frees(self):
        _, stmts = _stmts_of(CHAIN, disabled_passes=("memory-plan",))
        assert not [s for s in _flat(stmts) if isinstance(s, FreeStmt)]

    def test_planned_chain_frees_dead_intermediates(self):
        compiled, stmts = _stmts_of(CHAIN)
        frees = [s.block for s in stmts if isinstance(s, FreeStmt)]
        assert frees, "chain of dead intermediates must be freed"
        # The program result's block is never freed.
        result = compiled.host.result[0].name
        assert result not in frees
        assert validate_host_program(compiled.host) == []

    def test_free_comes_after_last_use(self):
        compiled, stmts = _stmts_of(CHAIN)
        for i, s in enumerate(stmts):
            if not isinstance(s, FreeStmt):
                continue
            for later in stmts[i + 1:]:
                if isinstance(later, LaunchStmt):
                    from repro.memory.plan import _stmt_refs

                    assert s.block not in _stmt_refs(later)

    def test_planned_peak_not_above_naive(self):
        planned, _ = _stmts_of(CHAIN)
        naive, _ = _stmts_of(CHAIN, disabled_passes=("memory-plan",))
        sizes = {"n": 4096}
        assert (
            planned.estimate(sizes).mem_peak_bytes
            <= naive.estimate(sizes).mem_peak_bytes
        )


class TestLoopLiveness:
    def test_loop_carried_array_not_freed_in_body(self):
        """Liveness across host loops: the carried array and anything
        the body reads from the enclosing scope must survive every
        iteration."""
        compiled, stmts = _stmts_of(LOOP)
        loop = next(s for s in stmts if isinstance(s, HostLoopStmt))
        body_frees = {
            s.block for s in _flat(loop.body) if isinstance(s, FreeStmt)
        }
        carried = {
            a.name for a in loop.body_result if hasattr(a, "name")
        }
        assert not (body_frees & carried)
        assert validate_host_program(compiled.host) == []

    def test_outer_array_not_freed_inside_loop(self):
        _, stmts = _stmts_of(LOOP)
        loop = next(s for s in stmts if isinstance(s, HostLoopStmt))
        outer_allocs = {
            s.block.name for s in stmts if isinstance(s, AllocStmt)
        }
        body_frees = {
            s.block for s in _flat(loop.body) if isinstance(s, FreeStmt)
        }
        assert not (body_frees & outer_allocs)

    def test_double_buffered_result_alloc_is_recycled(self):
        """The body re-runs its result allocation every iteration; the
        previous generation was consumed by the double-buffer copy, so
        the planner marks the alloc ``recycle`` (bounded footprint)."""
        _, stmts = _stmts_of(LOOP)
        loop = next(s for s in stmts if isinstance(s, HostLoopStmt))
        assert loop.double_buffered
        body_allocs = [
            s for s in loop.body if isinstance(s, AllocStmt)
        ]
        assert any(s.recycle for s in body_allocs)

    def test_naive_loop_footprint_grows_with_trip_count(self):
        naive, _ = _stmts_of(LOOP, disabled_passes=("memory-plan",))
        planned, _ = _stmts_of(LOOP)
        few = {"n": 1024, "iters": 2}
        many = {"n": 1024, "iters": 64}
        assert (
            naive.estimate(many).mem_peak_bytes
            > naive.estimate(few).mem_peak_bytes
        )
        # Planning holds the loop at steady state.
        assert (
            planned.estimate(many).mem_peak_bytes
            == planned.estimate(few).mem_peak_bytes
        )


class TestElisionAndReuse:
    def test_dead_source_copy_is_elided(self):
        compiled, stmts = _stmts_of(COPY_CHAIN)
        elided = [
            s
            for s in stmts
            if isinstance(s, LaunchStmt) and s.elide_copy is not None
        ]
        assert elided, "copy of a dead unique source must be elided"
        assert validate_host_program(compiled.host) == []

    def test_elision_respects_in_place_ablation(self):
        _, stmts = _stmts_of(COPY_CHAIN, in_place=False)
        assert not [
            s
            for s in stmts
            if isinstance(s, LaunchStmt) and s.elide_copy is not None
        ]

    def test_elided_copy_is_bit_identical(self):
        compiled, _ = _stmts_of(COPY_CHAIN)
        naive, _ = _stmts_of(COPY_CHAIN, disabled_passes=("memory-plan",))
        xs = array_value(
            np.arange(16, dtype=np.float32), F32
        )
        got, _, rep = compiled.execute([xs])
        want, _, rep2 = naive.execute([xs])
        assert rep.fallbacks == 0 and rep2.fallbacks == 0
        assert np.array_equal(got[0].data, want[0].data)

    def test_same_extent_alloc_reuses_freed_block(self):
        # Fusion would collapse the chain into one kernel; disable it
        # so the same-extent intermediates actually exist.
        _, stmts = _stmts_of(CHAIN, disabled_passes=("fusion",))
        reused = [
            s
            for s in stmts
            if isinstance(s, AllocStmt) and s.reuse_of is not None
        ]
        assert reused, "same-extent chain should recycle a dead block"


class TestValidator:
    def _program(self, src=CHAIN, planning=True):
        # Keep the unfused three-kernel chain: its schedule has frees
        # and a reuse alloc to corrupt.
        disabled = ("fusion",) + (() if planning else ("memory-plan",))
        return compile_source(
            src, CompilerOptions(disabled_passes=disabled)
        ).host

    def test_clean_programs_validate(self):
        for src in (CHAIN, COPY_CHAIN, LOOP):
            for planning in (True, False):
                hp = self._program(src, planning)
                assert validate_host_program(hp) == []

    def test_use_after_free_detected(self):
        hp = self._program()
        first_free = next(
            i for i, s in enumerate(hp.stmts) if isinstance(s, FreeStmt)
        )
        # Hoist the free above every use of its block.
        hp.stmts.insert(0, hp.stmts.pop(first_free))
        problems = validate_host_program(hp)
        assert any("after free" in p for p in problems)

    def test_double_free_detected(self):
        hp = self._program()
        free = next(s for s in hp.stmts if isinstance(s, FreeStmt))
        hp.stmts.append(FreeStmt(free.block))
        problems = validate_host_program(hp)
        assert any("double free" in p for p in problems)

    def test_missing_alloc_detected(self):
        hp = self._program()
        # Delete the allocation that a later reuse alloc recycles: the
        # reuse now names a block that was never brought live.
        donors = {
            s.reuse_of
            for s in hp.stmts
            if isinstance(s, AllocStmt) and s.reuse_of is not None
        }
        idx = next(
            i
            for i, s in enumerate(hp.stmts)
            if isinstance(s, AllocStmt) and s.block.name in donors
        )
        del hp.stmts[idx]
        problems = validate_host_program(hp)
        assert any("unallocated" in p for p in problems)

    def test_reuse_of_freed_block_detected(self):
        hp = self._program()
        reuse = next(
            s
            for s in hp.stmts
            if isinstance(s, AllocStmt) and s.reuse_of is not None
        )
        idx = hp.stmts.index(reuse)
        hp.stmts.insert(idx, FreeStmt(reuse.reuse_of))
        problems = validate_host_program(hp)
        assert any("reuse of freed" in p for p in problems)

    def test_result_backed_by_freed_block_detected(self):
        hp = self._program()
        result = hp.result[0].name
        hp.stmts.append(FreeStmt(result))
        problems = validate_host_program(hp)
        assert any("result" in p for p in problems)

    def test_manifest_layout_of_another_rank_than_its_block_detected(self):
        hp = self._program(ROWS)
        assert validate_host_program(hp) == []
        manifest = next(s for s in hp.stmts if isinstance(s, ManifestStmt))
        manifest.layout = IndexFn.identity(3)
        problems = validate_host_program(hp)
        assert any("layout rank 3 != shape rank 2" in p for p in problems)


def _block(name, space="device"):
    return MemBlock(
        name=name, elem_bytes=4, elems=Count.of(1.0, "n", "d"),
        shape=("n", "d"), space=space,
    )


def _reads(name, array):
    return LaunchStmt(
        Kernel(
            name=name, kind="map", grid=(A.Var("n"),), seg_width=None,
            exp=A.AtomExp(A.Var(array)), pat=(),
            accesses=[AccessInfo(array, 4, Count.of(1.0, "d"), 1, 1)],
        )
    )


def _manifest(block, layout):
    return ManifestStmt(
        src="points", dst="points", layout=IndexFn(layout), elem_bytes=4,
        elems=block.elems, block=block,
    )


def _points_loop(body, before=()):
    """A host program over an input ``points`` whose host loop runs
    ``body``, after ``before``."""
    blocks = [_block("points", "param")] + [
        s.block for s in list(before) + body if isinstance(s, AllocStmt)
    ]
    loop = HostLoopStmt(
        merge=(), form=A.ForLoop("i", A.Var("iters")), body=body,
        body_result=(), pat=(),
    )
    return HostProgram(
        name="main", params=(), stmts=list(before) + [loop], result=(),
        blocks={b.name: b for b in blocks},
    )


class TestGenerations:
    """The validator binds names to generations of a block: a read
    through a freed generation is a use-after-free even after the block
    is allocated again."""

    def test_the_per_iteration_transpose_reads_a_freed_generation(self):
        # Alloc, transpose ``points`` into it, read, free, all in the
        # body: the next iteration's transpose reads ``points`` through
        # the previous iteration's freed ``points_mem1``.
        mem1 = _block("points_mem1")
        hp = _points_loop([
            AllocStmt(mem1), _manifest(mem1, (1, 0)), _reads("k", "points"),
            FreeStmt("points_mem1"),
        ])
        assert validate_host_program(hp) == [
            "manifest 'points': use of 'points' after free of "
            "'points_mem1'"
        ]

    def test_the_hoisted_transpose_is_valid(self):
        mem1 = _block("points_mem1")
        hp = _points_loop(
            [_reads("k", "points")],
            before=[AllocStmt(mem1), _manifest(mem1, (1, 0))],
        )
        hp.stmts += [FreeStmt("points_mem1")]
        assert validate_host_program(hp) == []

    def test_the_planner_never_plans_the_per_iteration_transpose(self):
        mem1 = _block("points_mem1")
        hp = _points_loop([
            AllocStmt(mem1), _manifest(mem1, (1, 0)), _reads("k", "points"),
        ])
        assert validate_host_program(plan_memory(hp)) != []

    def _two_layouts(self, hoisted):
        # ``points`` read transposed, then row-major, in one body; it
        # enters the next iteration bound to ``points_mem2``.
        mem1, mem2 = _block("points_mem1"), _block("points_mem2")
        alloc2 = [AllocStmt(mem2)]
        return _points_loop(
            [
                AllocStmt(mem1), _manifest(mem1, (1, 0)),
                _reads("k1", "points"),
                *([] if hoisted else alloc2),
                _manifest(mem2, (0, 1)), _reads("k2", "points"),
            ],
            before=alloc2 if hoisted else (),
        )

    def test_two_layouts_keep_the_last_block_across_the_back_edge(self):
        # Coalescing allocates the block of the last manifest before
        # the loop: the planner frees it after the loop.
        hp = plan_memory(self._two_layouts(hoisted=True))
        assert validate_host_program(hp) == []
        assert [s.block for s in hp.stmts if isinstance(s, FreeStmt)] == [
            "points", "points_mem2"
        ]

    def test_two_layouts_allocated_in_the_body_are_never_planned(self):
        # Allocated in the body, the block is freed there, and the next
        # iteration's first manifest reads ``points`` through it: the
        # validator rejects the plan (the pass guard rolls it back).
        hp = plan_memory(self._two_layouts(hoisted=False))
        assert (
            "manifest 'points': use of 'points' after free of "
            "'points_mem2'"
        ) in validate_host_program(hp)


class TestExecutionAccounting:
    def test_simulator_reports_lower_peak_with_planning(self):
        planned, _ = _stmts_of(LOOP)
        naive, _ = _stmts_of(LOOP, disabled_passes=("memory-plan",))
        xs = array_value(np.ones(256, dtype=np.float32), F32)
        it = scalar(16, I32)
        _, cost_p, rep_p = planned.execute([xs, it])
        _, cost_n, rep_n = naive.execute([xs, it])
        assert rep_p.fallbacks == 0 and rep_n.fallbacks == 0
        assert cost_p.mem_peak_bytes < cost_n.mem_peak_bytes
        assert cost_p.mem_alloc_count > 0
