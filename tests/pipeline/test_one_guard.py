"""The pass list and its one guard rule.

Every pass, the initial check included, runs under the same guard: it
opens the pass span and appends one ``PassTiming``.  A pass with a
recovery is revalidated and recovers; a pass without one (check,
lower) lets a ``ReproError`` through and reports anything else as a
``CompilerBug`` with the IR attached.
"""

import dataclasses

import pytest

import repro.pipeline as P
from repro.checker import TypeCheckError
from repro.core import ast as A
from repro.errors import CompilerBug
from repro.pipeline import PASSES, CompilerOptions, compile_source, plan
from repro.pipeline.passes import rollback

SRC = """
fun main (xs: [n]f32): [n]f32 =
  map (\\(y: f32) -> y + 1.0f32)
      (map (\\(x: f32) -> x * 2.0f32) xs)
"""


def _broken(*args, **kwargs):
    raise RuntimeError("sabotaged pass")


def _ill_typed(prog):
    """``prog`` with main's result rewritten to an unbound variable."""
    fun = prog.funs[0]
    body = dataclasses.replace(fun.body, result=(A.Var("__nonexistent__"),))
    return A.Prog((dataclasses.replace(fun, body=body),) + prog.funs[1:])


class TestPassList:
    def test_the_descriptor_has_no_ordering_or_policy_fields(self):
        fields = {f.name for f in dataclasses.fields(P.Pass)}
        assert not fields & {
            "requires", "invalidates", "policy", "fallback_action",
        }
        for gone in ("PassRegistry", "REGISTRY", "compile_to_stage"):
            assert not hasattr(P, gone), gone
        assert not hasattr(P.passes, "POLICIES")

    def test_only_check_and_lower_have_no_recovery(self):
        recovery = {p.name: p.fallback for p in PASSES}
        assert {n for n, f in recovery.items() if f is None} == {
            "check", "lower",
        }
        conservative = {
            n for n, f in recovery.items() if f not in (None, rollback)
        }
        assert conservative == {"flatten"}

    def test_every_planned_pass_records_one_timing_in_plan_order(self):
        compiled = compile_source(SRC, artifact_cache=None)
        assert [t.name for t in compiled.pass_timings] == [
            p.name for p in plan(CompilerOptions())
        ]


class TestPassesWithoutRecovery:
    def test_a_check_error_propagates_as_itself(self):
        with pytest.raises(TypeCheckError):
            compile_source(
                "fun main (x: f32): i32 = x", artifact_cache=None
            )

    @pytest.mark.parametrize(
        "target, pass_name",
        [("check_program", "check"), ("lower_program", "lower")],
    )
    def test_any_other_exception_is_a_compiler_bug_with_the_ir(
        self, monkeypatch, target, pass_name
    ):
        monkeypatch.setattr(P, target, _broken)
        with pytest.raises(CompilerBug) as ei:
            compile_source(SRC, artifact_cache=None)
        assert ei.value.pass_name == pass_name
        assert "fun main" in ei.value.ir


class TestRecovery:
    def test_an_ill_typed_conservative_flatten_is_a_compiler_bug(
        self, monkeypatch
    ):
        real_flatten = P.flatten_prog

        def flatten(prog, opts):
            if opts.distribute:
                raise RuntimeError("distribution exploded")
            return _ill_typed(real_flatten(prog, opts))

        monkeypatch.setattr(P, "flatten_prog", flatten)
        with pytest.raises(CompilerBug, match="recovery also failed") as ei:
            compile_source(SRC, artifact_cache=None)
        assert ei.value.pass_name == "flatten"
        assert "fun main" in ei.value.ir

    def test_a_rollback_is_timed_and_marked(self, monkeypatch):
        monkeypatch.setattr(P, "tile_program", _broken)
        compiled = compile_source(SRC, artifact_cache=None)
        (diag,) = compiled.diagnostics
        assert (diag.pass_name, diag.action) == ("tiling", "rolled back")
        rolled = [t.name for t in compiled.pass_timings if t.rolled_back]
        assert rolled == ["tiling"]
