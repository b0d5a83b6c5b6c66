"""What a warm compile does not pay for again.

The pass plan and the salt of each artifact stage (options slice,
pipeline fingerprint) are computed once per options, in one memo on
the pass registry.  Every stage fingerprint stays byte-identical to
the unmemoised formula, recomputed inline here, so artifacts written
without the memo still hit.
"""

import hashlib

import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import pretty
from repro.errors import ArgumentError
from repro.frontend.parser import parse
from repro.pipeline import (
    REGISTRY,
    ArtifactCache,
    CompilerOptions,
    Pass,
    PassRegistry,
    compile_fingerprint,
    compile_program,
    stage_fingerprint,
)
from repro.pipeline import fingerprint as F
from repro.pipeline.passes import STAGES

SRC = """
fun main (xs: [n]f32): [n]f32 =
  map (\\(y: f32) -> y + 1.0f32)
      (map (\\(x: f32) -> x * 2.0f32) xs)
"""

NAMES = list(BENCHMARKS.names())
OPTIONS = {
    "default": CompilerOptions(),
    "no-fusion": CompilerOptions(fusion=False),
    "no-tiling": CompilerOptions(disabled_passes=("tiling",)),
}


def _h(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def unmemoised_stage_fingerprint(stage, prog, options, entry="main"):
    """The stage fingerprint's five parts, each computed from scratch."""
    content = _h(("program", pretty.pretty_prog(prog)))
    plan = [
        p for p in REGISTRY.ordered()
        if p.enabled(options) and p.name not in options.disabled_passes
    ]
    upto = STAGES.index(stage)
    prefix = [p for p in plan if STAGES.index(p.stage) <= upto]
    keys = sorted({k for p in prefix for k in p.option_keys})
    sliced = ",".join(f"{k}={getattr(options, k)!r}" for k in keys)
    pipeline = _h(
        [f"pipeline/v{F.ARTIFACT_VERSION}"]
        + [f"{p.stage}:{p.name}@{p.version}" for p in prefix]
    )
    return _h((f"stage:{stage}", content, entry, sliced, pipeline))


class TestByteIdenticalFingerprints:
    @pytest.mark.parametrize("opts", list(OPTIONS), ids=list(OPTIONS))
    @pytest.mark.parametrize("name", NAMES)
    def test_stage_fingerprints_are_the_unmemoised_formula(self, name, opts):
        options = OPTIONS[opts]
        prog = BENCHMARKS[name].program()
        expected = {
            stage: unmemoised_stage_fingerprint(stage, prog, options)
            for stage in ("core", "host")
        }
        # The first compile may fill the memo, the second is served by it.
        for _ in range(2):
            fps = compile_program(
                prog, options, artifact_cache=None, stop_after="core"
            ).fingerprints
            assert {s: fps[s] for s in expected} == expected

    @pytest.mark.parametrize("opts", list(OPTIONS), ids=list(OPTIONS))
    def test_a_memoised_salt_gives_the_stage_fingerprint(self, opts):
        options = OPTIONS[opts]
        plan, salts = REGISTRY.planned(options)
        content = "0" * 64
        assert list(salts) == ["core", "host"]
        for stage, salt in salts.items():
            assert salt == F.stage_salt(stage, options, plan)
            assert F.salted_stage_fingerprint(
                stage, content, "main", salt
            ) == stage_fingerprint(stage, content, options, plan)

    def test_artifacts_written_without_the_memo_hit_with_it(
        self, tmp_path, monkeypatch
    ):
        real = PassRegistry.planned

        def unmemoised(self, options):
            self._plans.clear()
            return real(self, options)

        monkeypatch.setattr(PassRegistry, "planned", unmemoised)
        progs = [BENCHMARKS[name].program() for name in NAMES]
        cache = ArtifactCache(tmp_path / "artifacts")
        cold = [compile_program(p, artifact_cache=cache) for p in progs]
        assert [c.from_artifact for c in cold] == [None] * len(progs)
        monkeypatch.undo()
        # A fresh cache object on the same directory: every hit is a
        # verified read of what the memo-less compiles wrote.
        cache = ArtifactCache(tmp_path / "artifacts")
        for prog, first in zip(progs, cold):
            warm = compile_program(prog, artifact_cache=cache)
            assert warm.from_artifact == "host"
            assert warm.fingerprints == first.fingerprints
        assert cache.stats.snapshot()["hits"] == len(progs)


def _noop(ir, options, ctx):
    return ir


class TestPlanMemo:
    @pytest.mark.parametrize("opts", list(OPTIONS), ids=list(OPTIONS))
    def test_the_memoised_plan_is_the_sorted_registry(self, opts):
        options = OPTIONS[opts]
        expected = [p for p in REGISTRY.ordered() if p.enabled_under(options)]
        assert REGISTRY.plan(options) == expected
        assert REGISTRY.plan(options) == expected

    def test_register_shows_up_in_the_next_plan_and_salt(self):
        registry = PassRegistry()
        registry.register(Pass("a", "core", "test", _noop))
        options = CompilerOptions()
        plan, before = registry.planned(options)
        assert [p.name for p in plan] == ["a"]
        registry.register(Pass("b", "host", "test", _noop))
        plan, after = registry.planned(options)
        assert [p.name for p in plan] == ["a", "b"]
        assert after["core"] == before["core"]
        assert after["host"] != before["host"]
        assert after["host"] == F.stage_salt("host", options, plan)

    def test_mutating_a_returned_plan_leaves_the_next_alone(self):
        options = CompilerOptions()
        first = REGISTRY.plan(options)
        expected = list(first)
        first.clear()
        assert REGISTRY.plan(options) == expected

    @pytest.mark.parametrize(
        "name, match", [("frobnicate", "no such pass"), ("check", "mandatory")]
    )
    def test_a_bad_disabled_pass_raises_on_every_call(self, name, match):
        options = CompilerOptions(disabled_passes=(name,))
        for _ in range(3):
            with pytest.raises(ArgumentError, match=match):
                REGISTRY.plan(options)
        for _ in range(2):
            with pytest.raises(ArgumentError, match=match):
                compile_program(parse(SRC), options, artifact_cache=None)


class TestDisabledPassesNormalised:
    def test_a_list_is_a_hashable_tuple_with_the_tuples_keys(self):
        listed = CompilerOptions(disabled_passes=["fusion"])
        tupled = CompilerOptions(disabled_passes=("fusion",))
        assert listed.disabled_passes == ("fusion",)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert repr(listed) == repr(tupled)
        assert compile_fingerprint("0" * 64, listed) == compile_fingerprint(
            "0" * 64, tupled
        )
        assert REGISTRY.plan(listed) == REGISTRY.plan(tupled)

    def test_order_and_duplicates_do_not_split_the_artifacts(self):
        a = CompilerOptions(disabled_passes=("tiling", "fusion"))
        b = CompilerOptions(disabled_passes=("fusion", "tiling", "fusion"))
        assert a == b
        assert a.disabled_passes == ("fusion", "tiling")
        assert compile_fingerprint("0" * 64, a) == compile_fingerprint(
            "0" * 64, b
        )
        prog = parse(SRC)
        fa = compile_program(prog, a, artifact_cache=None, stop_after="core")
        fb = compile_program(prog, b, artifact_cache=None, stop_after="core")
        assert fa.fingerprints == fb.fingerprints

    def test_an_unsorted_tuple_takes_the_sorted_tuples_compile_key(self):
        # The in-memory compile key hashes repr(options), which used to
        # keep the caller's order.  Stage fingerprints do not read
        # disabled_passes: no pass lists it in option_keys.
        options = CompilerOptions(disabled_passes=("tiling", "fusion"))
        as_given = repr(options).replace(
            "('fusion', 'tiling')", "('tiling', 'fusion')"
        )
        assert as_given != repr(options)
        key = compile_fingerprint("0" * 64, options)
        assert key == _h(("compile", "0" * 64, repr(options), "main"))
        assert key != _h(("compile", "0" * 64, as_given, "main"))

    @pytest.mark.parametrize("disabled", [(), ("tiling",)])
    def test_the_default_and_one_name_keep_their_keys(self, disabled):
        options = CompilerOptions(disabled_passes=disabled)
        assert options.disabled_passes == disabled
        assert f"disabled_passes={disabled!r}" in repr(options)
        prog = parse(SRC)
        fps = compile_program(
            prog, options, artifact_cache=None, stop_after="core"
        ).fingerprints
        for stage in ("core", "host"):
            assert fps[stage] == unmemoised_stage_fingerprint(
                stage, prog, options
            )
