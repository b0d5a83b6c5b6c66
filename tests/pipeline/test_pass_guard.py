"""Tests of the self-healing pass guard: a broken optimisation pass
must degrade performance, not crash the compile."""

import dataclasses

import numpy as np
import pytest

import repro.pipeline as P
from repro.core import array_value, to_python
from repro.core import ast as A
from repro.core.prim import F32
from repro.errors import CompilerBug
from repro.pipeline import CompilerOptions, compile_source

SRC = """
fun main (xs: [n]f32): [n]f32 =
  map (\\(y: f32) -> y + 1.0f32)
      (map (\\(x: f32) -> x * 2.0f32) xs)
"""

EXPECTED = [3.0, 5.0, 7.0]


def _xs():
    return array_value([1.0, 2.0, 3.0], F32)


def _broken(*args, **kwargs):
    raise RuntimeError("sabotaged pass")


class TestRollback:
    def test_clean_compile_has_no_diagnostics(self):
        compiled = compile_source(SRC)
        assert compiled.diagnostics == []

    def test_broken_fusion_rolls_back(self, monkeypatch):
        monkeypatch.setattr(P, "fuse_prog", _broken)
        compiled = compile_source(SRC)
        assert any(
            d.pass_name == "fusion" and "sabotaged" in d.error
            for d in compiled.diagnostics
        )
        (out,), _ = compiled.run([_xs()])
        assert to_python(out) == EXPECTED

    def test_broken_simplify_rolls_back_everywhere(self, monkeypatch):
        monkeypatch.setattr(P, "simplify_prog", _broken)
        compiled = compile_source(SRC)
        # Every simplify site rolled back independently.
        assert {d.pass_name for d in compiled.diagnostics} >= {
            "simplify",
            "post-fusion-simplify",
            "post-flatten-simplify",
        }
        (out,), _ = compiled.run([_xs()])
        assert to_python(out) == EXPECTED

    def test_broken_inline_rolls_back(self, monkeypatch):
        monkeypatch.setattr(P, "inline_prog", _broken)
        src = """
fun helper (x: f32): f32 = x * 2.0f32
fun main (xs: [n]f32): [n]f32 =
  map (\\(x: f32) -> helper x + 1.0f32) xs
"""
        compiled = compile_source(src)
        assert any(d.pass_name == "inline" for d in compiled.diagnostics)
        (out,), _ = compiled.run([_xs()])
        assert to_python(out) == EXPECTED

    def test_broken_memory_passes_roll_back(self, monkeypatch):
        monkeypatch.setattr(P, "coalesce_program", _broken)
        monkeypatch.setattr(P, "tile_program", _broken)
        compiled = compile_source(SRC)
        names = {d.pass_name for d in compiled.diagnostics}
        assert {"coalescing", "tiling"} <= names
        (out,), _ = compiled.run([_xs()])
        assert to_python(out) == EXPECTED

    def test_ill_typed_output_is_caught_by_revalidation(self, monkeypatch):
        real_fuse = P.fuse_prog

        def corrupting_fuse(prog):
            fused, stats = real_fuse(prog)
            # Rewrite main's result to an unbound variable: the pass
            # "succeeded" but produced ill-typed IR.
            fun = fused.funs[0]
            bad_body = dataclasses.replace(
                fun.body, result=(A.Var("__nonexistent__"),)
            )
            bad_fun = dataclasses.replace(fun, body=bad_body)
            return A.Prog((bad_fun,) + fused.funs[1:]), stats

        monkeypatch.setattr(P, "fuse_prog", corrupting_fuse)
        compiled = compile_source(SRC)
        diag = [d for d in compiled.diagnostics if d.pass_name == "fusion"]
        assert diag and "rolled back" in diag[0].action
        (out,), _ = compiled.run([_xs()])
        assert to_python(out) == EXPECTED


class TestUnchangedOutputIsNotRevalidated:
    """A core pass that returns the very object it was given changed
    nothing, so the guard does not re-typecheck it — by identity only."""

    @staticmethod
    def _rechecks(monkeypatch, simplify):
        import repro.pipeline.driver as driver

        count = [0]
        real_check = driver.check_program

        def counting_check(prog, check_unique=True):
            # The frontend check asks for uniqueness; revalidation doesn't.
            count[0] += not check_unique
            return real_check(prog, check_unique=check_unique)

        monkeypatch.setattr(driver, "check_program", counting_check)
        monkeypatch.setattr(P, "simplify_prog", simplify)
        compiled = compile_source(SRC)
        assert compiled.diagnostics == []
        return count[0]

    def test_identity_skips_the_recheck_and_equality_does_not(self):
        with pytest.MonkeyPatch.context() as mp:
            same = self._rechecks(mp, lambda prog, **kw: prog)
        with pytest.MonkeyPatch.context() as mp:
            copied = self._rechecks(mp, lambda prog, **kw: A.Prog(prog.funs))
        # Three simplify sites; the equal-but-new programs are re-checked.
        assert copied - same == 3

    def test_host_passes_update_in_place_and_are_still_validated(
        self, monkeypatch
    ):
        import repro.pipeline.driver as driver

        seen = []
        real_validate = driver.validate_host_program
        monkeypatch.setattr(
            driver, "validate_host_program",
            lambda hp: seen.append(hp) or real_validate(hp),
        )
        compiled = compile_source(SRC)
        assert len(seen) == 3 and all(hp is compiled.host for hp in seen)


class TestStrictMode:
    def test_strict_mode_preserves_fail_fast(self, monkeypatch):
        monkeypatch.setattr(P, "fuse_prog", _broken)
        with pytest.raises(RuntimeError, match="sabotaged"):
            compile_source(SRC, CompilerOptions(strict=True))

    def test_strict_flatten_raises(self, monkeypatch):
        monkeypatch.setattr(P, "flatten_prog", _broken)
        with pytest.raises(RuntimeError, match="sabotaged"):
            compile_source(SRC, CompilerOptions(strict=True))


class TestFlattenDegradation:
    def test_flatten_degrades_to_conservative(self, monkeypatch):
        real_flatten = P.flatten_prog

        def flaky_flatten(prog, opts):
            if opts.distribute:
                raise RuntimeError("distribution exploded")
            return real_flatten(prog, opts)

        monkeypatch.setattr(P, "flatten_prog", flaky_flatten)
        compiled = compile_source(SRC)
        diag = [
            d for d in compiled.diagnostics if d.pass_name == "flatten"
        ]
        assert diag and diag[0].action == "degraded to conservative"
        (out,), _ = compiled.run([_xs()])
        assert to_python(out) == EXPECTED

    def test_flatten_total_failure_is_a_compiler_bug(self, monkeypatch):
        monkeypatch.setattr(P, "flatten_prog", _broken)
        with pytest.raises(CompilerBug) as ei:
            compile_source(SRC)
        assert ei.value.pass_name == "flatten"
        assert ei.value.ir  # the offending IR is attached

    def test_diagnostic_str_mentions_phase_and_pass(self, monkeypatch):
        monkeypatch.setattr(P, "fuse_prog", _broken)
        compiled = compile_source(SRC)
        text = str(compiled.diagnostics[0])
        assert "fusion" in text and "rolled back" in text


class TestDegradedResultsStayCorrect:
    def test_every_single_sabotage_still_computes(self, monkeypatch):
        """Sabotage each guarded pass in turn; the compile must succeed
        and the program must still be correct."""
        for name in (
            "fuse_prog",
            "simplify_prog",
            "inline_prog",
            "coalesce_program",
            "tile_program",
        ):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(P, name, _broken)
                compiled = compile_source(SRC)
                assert compiled.diagnostics, name
                (out,), _ = compiled.run([_xs()])
                assert to_python(out) == EXPECTED, name
