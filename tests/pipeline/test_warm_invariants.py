"""What a warm compile does not pay for again.

The pass plan and the salt of the host fingerprint (options slice,
pipeline fingerprint) are computed once per options, in one memo
beside the pass list.  The host fingerprint stays byte-identical to
the unmemoised formula, recomputed inline here, so artifacts written
without the memo still hit, and to the digests pinned below, so
artifacts an older tree wrote still hit.
"""

import hashlib

import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import pretty
from repro.errors import ArgumentError
from repro.frontend.parser import parse
from repro.pipeline import (
    PASSES,
    ArtifactCache,
    CompilerOptions,
    compile_cache_key,
    compile_program,
    plan,
    planned,
)
from repro.pipeline import driver
from repro.pipeline import fingerprint as F
from repro.pipeline import passes

SRC = """
fun main (xs: [n]f32): [n]f32 =
  map (\\(y: f32) -> y + 1.0f32)
      (map (\\(x: f32) -> x * 2.0f32) xs)
"""

NAMES = list(BENCHMARKS.names())
OPTIONS = {
    "default": CompilerOptions(),
    "no-fusion": CompilerOptions(disabled_passes=("fusion",)),
    "no-tiling": CompilerOptions(disabled_passes=("tiling",)),
}


def _h(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def unmemoised_host_fingerprint(prog, options, entry="main"):
    """The host fingerprint's five parts, each computed from scratch."""
    content = _h(("program", pretty.pretty_prog(prog)))
    enabled = [
        p for p in PASSES
        if p.enabled(options) and p.name not in options.disabled_passes
    ]
    keys = sorted({k for p in enabled for k in p.option_keys})
    sliced = ",".join(f"{k}={getattr(options, k)!r}" for k in keys)
    pipeline = _h(
        [f"pipeline/v{F.ARTIFACT_VERSION}"]
        + [f"{p.stage}:{p.name}@{p.version}" for p in enabled]
    )
    return _h(("stage:host", content, entry, sliced, pipeline))


class TestByteIdenticalFingerprints:
    @pytest.mark.parametrize("opts", list(OPTIONS), ids=list(OPTIONS))
    @pytest.mark.parametrize("name", NAMES)
    def test_stage_fingerprints_are_the_unmemoised_formula(self, name, opts):
        options = OPTIONS[opts]
        prog = BENCHMARKS[name].program()
        expected = unmemoised_host_fingerprint(prog, options)
        # The first compile may fill the memo, the second is served by it.
        for _ in range(2):
            fps = compile_program(
                prog, options, artifact_cache=None, stop_after="core"
            ).fingerprints
            assert sorted(fps) == ["host", "source"]
            assert fps["host"] == expected

    @pytest.mark.parametrize("opts", list(OPTIONS), ids=list(OPTIONS))
    def test_a_memoised_salt_gives_the_stage_fingerprint(self, opts):
        options = OPTIONS[opts]
        steps, salt = planned(options)
        assert salt == F.stage_salt(options, steps)
        assert salt == F.stage_salt(options, plan(options))

    def test_artifacts_written_without_the_memo_hit_with_it(
        self, tmp_path, monkeypatch
    ):
        def unmemoised(options):
            passes._PLANS.clear()
            return planned(options)

        monkeypatch.setattr(driver, "planned", unmemoised)
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

#: The host fingerprints of every benchmark program, as an older tree
#: computed them.  A change to the plan order, a pass token or the
#: salt moves them, and then every artifact directory already on disk
#: misses.
PINNED_STAGE_FINGERPRINTS = {
    "Backprop": {
        "default": "097a0c68b09aa3fbd41e6a41c1b3347f3ba9742b83474411d81b26ce7d978e00",
        "no-fusion": "047598c42ba43889142236177940f496aa8635947e15ecbc3072158fed084abc",
    },
    "CFD": {
        "default": "67716dd7687778e87c57e2d27b5c5fdc8033849545f7ad176a8c0196dad59511",
        "no-fusion": "9dca05cc8aa88854c38bcf8e59cfd821abb7c703da8a12504e184248c8c3031e",
    },
    "HotSpot": {
        "default": "7e5e7143fb016f8160569e2dea34c8e6163c9fa8e1e80ad2d3cea5c10d8fb8b9",
        "no-fusion": "feaa44a0614dd138dc64167d8d3b6a0f31621d972802472a4c4eae4a27dd695e",
    },
    "K-means": {
        "default": "715aa63170f7f7b3e6ddf7b0584d8993ca54145fb06c7ea5f57ab250ad597132",
        "no-fusion": "7137315ec74ada32b80f10250d1285a03d51d5141a6a3e9fb1d8d6cb6311d164",
    },
    "LavaMD": {
        "default": "28fc15ef142e7eaf9dbff309d77dc4af0eec4ece82bb33b054c5bb3168756564",
        "no-fusion": "1dbf05a149de0a31ae4dda4dc15e62f3261477ac3b3b21f86e11547b655c5e94",
    },
    "Myocyte": {
        "default": "701d511017cdcc90e7335c028cec38e488e8a772de8c9fb82e0b0c3dce5240e8",
        "no-fusion": "90728dda9cd2d2611150dd08053f72a622b78beb8fe20bdaf1ca405dabf1490c",
    },
    "NN": {
        "default": "08f27b9b1ebfe58075f896ea5465ea892b707ec3c7075f6529961c248203254a",
        "no-fusion": "31ecf1bc838e495dfc0472bbeff6f1633594ab6ee8c03d73527cf062f11c2285",
    },
    "Pathfinder": {
        "default": "06fc999a2a3bd36fd53640fb34ab9e633b878c76367ba0857e5e1925f39c17a7",
        "no-fusion": "53a476cff03d3e1f79416fd14361e7efb7619d10909065a98ade7630c9ac7bf3",
    },
    "SRAD": {
        "default": "cf6f1f39f15380abcbefd1189cc09f409b656cf4c76d6f822fa26adc925d4b5d",
        "no-fusion": "32e54153c142c1343c7e9890be9cbb917d97c41aeb0ef76a2dd04e98c239e4c8",
    },
    "LocVolCalib": {
        "default": "9282a9229d4f3b93e5910c8ded05dfc8d72e2a7ab0cdfaf88d14ec7ec128062e",
        "no-fusion": "891d36901964dc296a7e52d72febb476525de9043f8c9dff17d2e165ef4dff72",
    },
    "OptionPricing": {
        "default": "ac254e0c7704d7b92af1c19e98085797d57e6c9c6aca4dafbf94705f95b66ebf",
        "no-fusion": "0fdcf10cf5d4ca337bcb3a742aa1a00d4c1b25fe399f271f69e71578849e33b3",
    },
    "MRI-Q": {
        "default": "1551a0cc31a0735c713ba4135177a69895043f8b9ddbcbb345dcdab8f5a42a51",
        "no-fusion": "975a2fc811e55abcafacaf8280de1f92e11d864154e22e75f36d9afe20b20618",
    },
    "Crystal": {
        "default": "1efabff984f9850b813b586f0f65a916926eebc063ed19c4836dd20abe7ee978",
        "no-fusion": "00a7410129cb490cb1f7e84a3f145f8f22f9adf5deaadbc67e932d7e59ef9a18",
    },
    "Fluid": {
        "default": "08f0989f01f6be4bd98f9b8b668d909f92b6c1f34eded0fcdbd019f41dfd2b20",
        "no-fusion": "1974a631657becf8d03bab08287c1b3e9036aabc8a7f9aeab17ea81fdc95d186",
    },
    "Mandelbrot": {
        "default": "08eadd46a490d5f71b6dd414f73d5dcd2dae54618faaa7a7fdb4a8bfabad376d",
        "no-fusion": "546efc6581cfa1e240cb4e035a1f9ef18ce3746821edcfaced7591429e1936a2",
    },
    "N-body": {
        "default": "fb184027d0e37728b40a70f6766c59beaff0b124e3622aa4589401e7f5ce5baf",
        "no-fusion": "c17957bb46eb6ed77729242fc496479193b2cbe3548f7a7a5232a7505bcdeb49",
    },
}


class TestPinnedFingerprints:
    def test_the_pins_cover_every_benchmark(self):
        assert sorted(PINNED_STAGE_FINGERPRINTS) == sorted(NAMES)

    @pytest.mark.parametrize("opts", ["default", "no-fusion"])
    @pytest.mark.parametrize("name", NAMES)
    def test_stage_fingerprints_are_the_pinned_digests(self, name, opts):
        fps = compile_program(
            BENCHMARKS[name].program(), OPTIONS[opts],
            artifact_cache=None, stop_after="core",
        ).fingerprints
        assert fps["host"] == PINNED_STAGE_FINGERPRINTS[name][opts]


class TestPlanMemo:
    @pytest.mark.parametrize("opts", list(OPTIONS), ids=list(OPTIONS))
    def test_the_memoised_plan_is_the_enabled_pass_list(self, opts):
        options = OPTIONS[opts]
        expected = [p for p in PASSES if p.enabled_under(options)]
        assert plan(options) == expected
        assert plan(options) == expected

    def test_mutating_a_returned_plan_leaves_the_next_alone(self):
        options = CompilerOptions()
        first = plan(options)
        expected = list(first)
        first.clear()
        assert plan(options) == expected

    @pytest.mark.parametrize(
        "name, match", [("frobnicate", "no such pass"), ("check", "mandatory")]
    )
    def test_a_bad_disabled_pass_raises_on_every_call(self, name, match):
        options = CompilerOptions(disabled_passes=(name,))
        for _ in range(3):
            with pytest.raises(ArgumentError, match=match):
                plan(options)
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
        prog = parse(SRC)
        assert compile_cache_key(prog, listed) == compile_cache_key(
            prog, tupled
        )
        assert plan(listed) == plan(tupled)

    def test_order_and_duplicates_do_not_split_the_artifacts(self):
        a = CompilerOptions(disabled_passes=("tiling", "fusion"))
        b = CompilerOptions(disabled_passes=("fusion", "tiling", "fusion"))
        assert a == b
        assert a.disabled_passes == ("fusion", "tiling")
        prog = parse(SRC)
        assert compile_cache_key(prog, a) == compile_cache_key(prog, b)
        fa = compile_program(prog, a, artifact_cache=None, stop_after="core")
        fb = compile_program(prog, b, artifact_cache=None, stop_after="core")
        assert fa.fingerprints == fb.fingerprints

    def test_an_unsorted_tuple_takes_the_sorted_tuples_compile_key(self):
        # The key hashes the enabled passes in plan order, never the
        # order the caller named the disabled ones in.
        prog = parse(SRC)
        key = compile_cache_key(
            prog, CompilerOptions(disabled_passes=("tiling", "fusion"))
        )
        assert key == unmemoised_host_fingerprint(
            prog, CompilerOptions(disabled_passes=("fusion", "tiling"))
        )

    @pytest.mark.parametrize("disabled", [(), ("tiling",)])
    def test_the_default_and_one_name_keep_their_keys(self, disabled):
        options = CompilerOptions(disabled_passes=disabled)
        assert options.disabled_passes == disabled
        assert f"disabled_passes={disabled!r}" in repr(options)
        prog = parse(SRC)
        fps = compile_program(
            prog, options, artifact_cache=None, stop_after="core"
        ).fingerprints
        assert fps["host"] == unmemoised_host_fingerprint(prog, options)
        assert compile_cache_key(prog, options) == fps["host"]
