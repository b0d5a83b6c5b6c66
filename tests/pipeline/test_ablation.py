"""Ablation sweep over the pass list.

Disabling any *optional* pass must leave every benchmark
interpreter-identical — the passes are performance, not semantics.
Also covers the plan's validation (unknown / mandatory
disables are caller errors) and the ``disabled_passes`` plumbing.
"""

import pytest

from repro.bench.runner import validate_benchmark
from repro.bench.suite import BENCHMARKS
from repro.errors import ArgumentError
from repro.pipeline import PASSES, CompilerOptions, compile_program, plan

OPTIONAL_PASSES = [p.name for p in PASSES if p.optional]
MANDATORY_PASSES = [p.name for p in PASSES if not p.optional]


class TestRegistryPlan:
    def test_optional_and_mandatory_split(self):
        assert set(MANDATORY_PASSES) == {"check", "inline", "flatten", "lower"}
        assert set(OPTIONAL_PASSES) == {
            "simplify",
            "fusion",
            "post-fusion-simplify",
            "post-flatten-simplify",
            "coalescing",
            "tiling",
            "memory-plan",
        }

    def test_plan_preserves_pipeline_order(self):
        names = [p.name for p in plan(CompilerOptions())]
        assert names == [
            "check",
            "inline",
            "simplify",
            "fusion",
            "post-fusion-simplify",
            "flatten",
            "post-flatten-simplify",
            "lower",
            "coalescing",
            "tiling",
            "memory-plan",
        ]

    def test_no_fusion_drops_both_fusion_passes(self):
        names = [
            p.name for p in plan(CompilerOptions(fusion=False))
        ]
        assert "fusion" not in names
        assert "post-fusion-simplify" not in names

    def test_disable_unknown_pass_is_an_argument_error(self):
        with pytest.raises(ArgumentError, match="no such pass"):
            plan(CompilerOptions(disabled_passes=("frobnicate",)))

    @pytest.mark.parametrize("name", MANDATORY_PASSES)
    def test_disable_mandatory_pass_is_an_argument_error(self, name):
        with pytest.raises(ArgumentError, match="mandatory"):
            plan(CompilerOptions(disabled_passes=(name,)))

    def test_disabled_pass_is_not_run(self):
        spec = BENCHMARKS["Backprop"]
        compiled = compile_program(
            spec.program(),
            CompilerOptions(disabled_passes=("tiling",)),
            artifact_cache=None,
        )
        assert "tiling" not in [t.name for t in compiled.pass_timings]


@pytest.mark.parametrize("pass_name", OPTIONAL_PASSES)
@pytest.mark.parametrize("bench", list(BENCHMARKS.names()))
def test_ablated_compile_matches_interpreter(pass_name, bench):
    """Every benchmark, with each optional pass disabled in turn, must
    still agree with the reference interpreter at validation scale."""
    report = validate_benchmark(
        bench,
        options=CompilerOptions(disabled_passes=(pass_name,)),
    )
    assert report.attempts >= 1
