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
        "default": "1a2762b0ce7cc20a1e144be74399d0c66d109e28ca4dcdc01777202e83a10260",
        "no-fusion": "f39e7e73cf2bfd2850d2fe4b5581112803530773295b2f0043979c97af032ffd",
    },
    "CFD": {
        "default": "6620daf33114a94be64e2c3d6beedc04f08ed0ab06d03450d5d608d908c40554",
        "no-fusion": "da433072ef72b5d9e213901d436fae09cf409b37e2ebaf8a4eebf5eaf0cb2fa5",
    },
    "HotSpot": {
        "default": "4d0bbad375fdef3ae958faf7f6d82fa92b8423ddb1d699356bab202f54f1ed2e",
        "no-fusion": "9b706a39a839dee61443c3feb210ad1f2b652097a0ceef7dc0a285300b705c49",
    },
    "K-means": {
        "default": "c0d5fc21ff997cfcf62860ec1583cf5bd2c5b04c2a37108ffce26cfdfd354704",
        "no-fusion": "8dc8829421891650bdef231548c220ab02e60a0d82fb0df7b27a9430cc77c1c3",
    },
    "LavaMD": {
        "default": "36f66139b4b48b0073c1d5eace15553a9e56902b63214dc60ef6b739941fdf79",
        "no-fusion": "f1dd5b577b8d69fb894704bcfa007a090d4976df029afa71a3674359fb5b583f",
    },
    "Myocyte": {
        "default": "9fd520dbfff4a479e93213bf44373271477e5d10789dd07b7b935596b459ae0c",
        "no-fusion": "1c13742b63c4f1e2b31eb79724b6a048b96c1c14e3edd0d8074af2629776b09e",
    },
    "NN": {
        "default": "22f01a2b11af9588ec88d24edd221f1f4c21b1a4e94df1710e6282b7efcb6804",
        "no-fusion": "26a14f05a11bad46634914bf5100fa1719cbbd5e81fa91edd1332fc7c13c6ba0",
    },
    "Pathfinder": {
        "default": "ed60a861a2227b182d08369ee62346ac996138aef9b427276ea41c0d5e01c04a",
        "no-fusion": "f50993203b83e9ae8388faa5330bc6d11b2fcdcd0a5bcdc60ed3b8a5bb4c3c58",
    },
    "SRAD": {
        "default": "1c4442c6354bd2bee87ad17539fab5eadcce9ec01b3c3a071503a9c5d470705f",
        "no-fusion": "cb372db14afceff4eb36b325bf6cd29921b3b24bcf9a68a42a2395b9d22acbf3",
    },
    "LocVolCalib": {
        "default": "41933683b11f783db68177e88c20a0f93b7b24afbd38e314759e1f81b56592c6",
        "no-fusion": "24671d90f5ecc9c3a08f6c5fd46c2337ba8e50738cced56b48dae2c275847774",
    },
    "OptionPricing": {
        "default": "aa2170fad9b9ad5116d742deff896c65b2050b68cbd82ca848a6419eb115056c",
        "no-fusion": "d723b2771089235e4c86fd245ce952037884a0536b0f27ed7f35728e8d5f91eb",
    },
    "MRI-Q": {
        "default": "068159c8638cf734e52ae8a124977fb31439e270c5af8c53dd035860257bd49f",
        "no-fusion": "95ce2150b41e8522615dae8f1d6e13eac77a2ca0404009da12bc605da24cd41a",
    },
    "Crystal": {
        "default": "f186226d450778ac39b42c6e69569f89ed8f80effa5ef6938b213ff9ac4e58b8",
        "no-fusion": "d6db357591dd796031b67394be4962b0c38203bf58fabc41b014e40012d3fb4d",
    },
    "Fluid": {
        "default": "0026026e45392adeb09d56870cbfddedd43ebc93aa70c7e5f0ae6140e14ab63e",
        "no-fusion": "1470b31d0c183fc13a8cbdb5d646c6108fc3cde38ec58c67a7be528a7972ed22",
    },
    "Mandelbrot": {
        "default": "e01879c2ecdc150e23d6bcb6aa5a8f1713cf77794ff85c6101b59ebeaf5c8012",
        "no-fusion": "57e490c545d921dfb76be6b14df2fb1b8f3a483470d02d4734d81882901ec6f7",
    },
    "N-body": {
        "default": "62a94c34b9b36bab77c903e58f4777dc3fbbe32ab7a32ddb9c048767f3025b9a",
        "no-fusion": "b986b1833856638c7dfff0dfe780bac47b060981d0b0e0e8655215c04e48ad2d",
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
