"""Tests of the transposition-based coalescing pass (Section 5.2)."""

import pytest

from repro.backend.kernel_ir import LaunchStmt, ManifestStmt
from repro.memory.index_fn import IndexFn
from repro.pipeline import CompilerOptions, compile_source

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
