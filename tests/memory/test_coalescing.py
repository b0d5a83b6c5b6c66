"""Tests of the transposition-based coalescing pass (Section 5.2)."""

import pytest

from repro.backend.kernel_ir import (
    AllocStmt,
    HostEval,
    HostIfStmt,
    HostLoopStmt,
    LaunchStmt,
    ManifestStmt,
)
from repro.backend.validate import validate_host_program
from repro.bench.suite import BENCHMARKS
from repro.memory.index_fn import IndexFn
from repro.pipeline import CompilerOptions, compile_program, compile_source
from repro.pipeline.passes import PASSES

ROW_TRAVERSAL = """
fun main (m: [a][b]f32): [a]f32 =
  map (\\(row: [b]f32) ->
    loop (acc = 0.0f32) for j < b do acc + row[j]) m
"""


def _manifests(compiled):
    out = []

    def walk(stmts):
        for s in stmts:
            if isinstance(s, ManifestStmt):
                out.append(s)
            body = getattr(s, "body", None)
            if body is not None:
                walk(body)

    walk(compiled.host.stmts)
    return out


class TestManifestation:
    def test_input_parameter_is_manifested(self):
        compiled = compile_source(ROW_TRAVERSAL)
        manifests = _manifests(compiled)
        assert len(manifests) == 1
        m = manifests[0]
        assert m.src == "m"
        # Sequential dim first: the column-major layout of §5.2.
        assert m.layout == IndexFn((1, 0))
        # The kernel now expects that layout.
        (kernel,) = compiled.host.kernels()
        assert kernel.layouts["m"] == IndexFn((1, 0))

    def test_disabled_pass_changes_nothing(self):
        compiled = compile_source(
            ROW_TRAVERSAL, CompilerOptions(disabled_passes=("coalescing",))
        )
        assert _manifests(compiled) == []
        (kernel,) = compiled.host.kernels()
        assert kernel.layouts == {}

    def test_manifest_moves_the_array_not_the_accesses(self):
        # Even when each thread traverses its row many times, the
        # transposition moves the array once.
        src = """
        fun main (m: [a][b]f32) (t: i32): [a]f32 =
          map (\\(row: [b]f32) ->
            loop (acc = 0.0f32) for it < t do
              loop (a2 = acc) for j < b do a2 + row[j]) m
        """
        compiled = compile_source(src)
        (m,) = _manifests(compiled)
        elems = m.elems.evaluate({"a": 10, "b": 20, "t": 100})
        assert elems == 200  # a*b, not a*b*t

    def test_producer_retargeted_instead_of_manifested(self):
        # The traversed array is produced by an earlier map kernel:
        # that kernel simply writes transposed — no manifestation.
        src = """
        fun main (m: [a][b]f32): [a]f32 =
          let m2 = map (\\(row: [b]f32) ->
              map (\\(x: f32) -> x * 2.0f32) row) m
          in map (\\(row: [b]f32) ->
            loop (acc = 0.0f32) for j < b do acc + row[j]) m2
        """
        compiled = compile_source(src)
        assert _manifests(compiled) == []
        producer, consumer = compiled.host.kernels()
        out_name = producer.pat[0].name
        assert producer.layouts[out_name] == IndexFn((1, 0))

    def test_coalesced_access_untouched(self):
        compiled = compile_source(
            "fun main (xs: [n]f32): [n]f32 = "
            "map (\\(x: f32) -> x + 1.0f32) xs"
        )
        assert _manifests(compiled) == []

    def test_estimate_reflects_penalty(self):
        on = compile_source(ROW_TRAVERSAL)
        off = compile_source(
            ROW_TRAVERSAL, CompilerOptions(disabled_passes=("coalescing",))
        )
        sizes = {"a": 4096, "b": 4096}
        assert (
            off.estimate(sizes).total_us
            > on.estimate(sizes).total_us * 1.5
        )


def _programs():
    for name in BENCHMARKS.names():
        yield name, "default"
        if BENCHMARKS[name].variant("no_inplace") is not None:
            yield name, "no_inplace"


#: No ablation, and each optional pass disabled on its own.
_ABLATIONS = [()] + [(p.name,) for p in PASSES if p.optional]


def _nested(stmts):
    out = []
    for s in stmts:
        out.append(s)
        if isinstance(s, HostLoopStmt):
            out += _nested(s.body)
        elif isinstance(s, HostIfStmt):
            out += _nested(s.then_body) + _nested(s.else_body)
    return out


def _invariant_loop_manifests(stmts):
    """For every manifest inside a host loop whose source that loop
    neither carries nor binds (a loop-invariant source): the source,
    the layouts the loop's body manifests it to, and whether the body
    allocates the block the last of those fills."""
    out = []
    for loop in _nested(stmts):
        if not isinstance(loop, HostLoopStmt):
            continue
        body = _nested(loop.body)
        bound = {p.name for p, _ in loop.merge}
        for s in body:
            if isinstance(s, LaunchStmt):
                bound |= {p.name for p in s.kernel.pat}
            elif isinstance(s, HostEval):
                bound |= {p.name for p in s.binding.pat}
            elif isinstance(s, (HostLoopStmt, HostIfStmt)):
                bound |= {p.name for p in s.pat}
                bound |= {p.name for p, _ in getattr(s, "merge", ())}
        manifests = [m for m in body if isinstance(m, ManifestStmt)]
        allocated = {s.block.name for s in body if isinstance(s, AllocStmt)}
        for m in manifests:
            if m.src not in bound:
                ms = [n for n in manifests if n.src == m.src]
                out.append(
                    (m.src, [n.layout for n in ms],
                     ms[-1].block.name in allocated)
                )
    return out


def _cases():
    for name, variant in _programs():
        for disabled in _ABLATIONS:
            yield pytest.param(
                name, variant, disabled,
                id=f"{name}-{variant}-{','.join(disabled) or 'none'}",
            )


@pytest.mark.parametrize("name,variant,disabled", list(_cases()))
def test_no_loop_invariant_array_is_transposed_per_iteration(
    name, variant, disabled
):
    """An invariant array a host loop manifests once is manifested
    before the loop.  The only in-loop manifests of an invariant array
    left are those of one manifested to two layouts in one body (the
    no-in-place K-means reads ``points`` transposed, then row-major):
    a single binding of the array cannot hold both, so each iteration
    changes it twice.  The block the last of them fills is allocated
    before the loop: the array enters each iteration bound to it."""
    spec = BENCHMARKS[name]
    prog = spec.program() if variant == "default" else spec.variant(variant)
    compiled = compile_program(
        prog, CompilerOptions(disabled_passes=disabled)
    )
    assert compiled.diagnostics == []
    assert validate_host_program(compiled.host) == []
    for src, layouts, allocated in _invariant_loop_manifests(
        compiled.host.stmts
    ):
        assert len(set(layouts)) > 1, (src, layouts)
        assert (name, variant, src) == ("K-means", "no_inplace", "points")
        assert not allocated


def test_kmeans_transposes_its_points_once_before_the_loop():
    host = compile_program(BENCHMARKS["K-means"].program()).host
    (manifest,) = [
        s for s in _nested(host.stmts) if isinstance(s, ManifestStmt)
    ]
    loop = next(s for s in host.stmts if isinstance(s, HostLoopStmt))
    assert manifest.src == "points"
    assert host.stmts.index(manifest) < host.stmts.index(loop)
