"""What a warm compile does not pay for again.

The pass plan and the salt of each artifact stage (options slice,
pipeline fingerprint) are computed once per options, in one memo
beside the pass list.  Every stage fingerprint stays byte-identical to
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
    compile_fingerprint,
    compile_program,
    plan,
    planned,
    stage_fingerprint,
)
from repro.pipeline import driver
from repro.pipeline import fingerprint as F
from repro.pipeline import passes
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
    enabled = [
        p for p in PASSES
        if p.enabled(options) and p.name not in options.disabled_passes
    ]
    upto = STAGES.index(stage)
    prefix = [p for p in enabled if STAGES.index(p.stage) <= upto]
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
        steps, salts = planned(options)
        content = "0" * 64
        assert list(salts) == ["core", "host"]
        for stage, salt in salts.items():
            assert salt == F.stage_salt(stage, options, steps)
            assert F.salted_stage_fingerprint(
                stage, content, "main", salt
            ) == stage_fingerprint(stage, content, options, steps)

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

#: The ``core`` and ``host`` stage fingerprints of every benchmark
#: program, as an older tree computed them.  A change to the plan
#: order, a pass token or a stage salt moves them, and then every
#: artifact directory already on disk misses.
PINNED_STAGE_FINGERPRINTS = {
    "Backprop": {
        "default": (
            "6ac1360c5980ea5f9e68bd0c311bf474d4ed4b4b7a3a7de83ff2f01b34e4c742",
            "06ceec54fa3777b339aaf6b51f721b9f08129efc312019792e5fabdebfb3c5e3",
        ),
        "no-fusion": (
            "3b9c345495ff2ea2cf6419e0d617140afb9265a10c0a02b4354abe7d6a1599df",
            "b7007d77adde9e97bc0d35ebd70e84c36234dcd1f5ca119518a91c2d95290fab",
        ),
    },
    "CFD": {
        "default": (
            "a6952d7b94ec9cbf27b0980888dd8281451a7d1b04e7096437a9f569818a22a8",
            "46502ccb67909ba10bb95d78fb25cf0ff3f6fb1d1c47c05898080370d1de6055",
        ),
        "no-fusion": (
            "c5d9c1883a21d307b1e22bef9e76935cc4f6c0553391ff8a4137bdb1c420e18d",
            "2df20d922094d5b4d38821dcd2940d7ad4cc0ef3b7061fd052953400c7e2b75e",
        ),
    },
    "HotSpot": {
        "default": (
            "44cba433e9e5b518c53e68c1922646a177effb48db394e7fd0971df69bfbd05f",
            "111e43d116e812bd9bce37a0928201669065df2854464ad0eab7a264232266f9",
        ),
        "no-fusion": (
            "e40ffd4a9f4bc358648502e3fcd9325f379746ec063e91155bd06dccc7ec443a",
            "33f427975e56a0fecf54b068162e5d20ce84233a4424ca2aeeb377a5464908dd",
        ),
    },
    "K-means": {
        "default": (
            "0fb88536ea7555b959d12cd8befb8f5a1e62871b59f1e69d1b87f1a978fbbad8",
            "7dee15bb7f5bfbd8f3dd61349133c195d5e4564aa322b105b9cdb6f81d772c6d",
        ),
        "no-fusion": (
            "a45d5a2868c5dfaf8e525979490982122515f6eeb19552a3edf38745e2be6439",
            "1be629070fa07a8711044f2474ac438f78411173b635fb930eb722fdd862a507",
        ),
    },
    "LavaMD": {
        "default": (
            "3081e5aa9dce7ef83bf4fb311d63ed474348136ad80b392b11c5fc3620fb1ac1",
            "a2b181aa26365338f2e3eb235183d33f9957c24715c72cf8a3abe42b31910835",
        ),
        "no-fusion": (
            "9ee7273d3006f537b0426d8d24c46ad84097bf20436e2c897b0c43c6fb1ee4c9",
            "bfaacf4a66eca9679788bcc7d4c16831bd3fa889147352b1de8cbef49ee6bb77",
        ),
    },
    "Myocyte": {
        "default": (
            "570170ede72b657d9076544b670e7c6de00ad4d3d967036c23b455e80826628d",
            "c531697457bc4564d65eb39f5bd04752fe9b80faadfe4ab10d040e057acb33d6",
        ),
        "no-fusion": (
            "4895671c497d7f73c45209e00340a19a0eaaefd151cacd3eb8671465aac17a46",
            "4360caeb0e23de3a85deefc841f2eed85185abfa95155cd085dd3ff608e6fbb9",
        ),
    },
    "NN": {
        "default": (
            "7d33cc38675ac8c73c8811c9ebf0ad2291a6e7ce24480aa300c313c931cfb622",
            "9c67ff04c82ae153455a3cbfd480297d37603c2a7e9cd1c976e746187a2acdd7",
        ),
        "no-fusion": (
            "806a5ad17c28fd3d5bfe140845a73307c489758025e75d3965bf6052cf62bb67",
            "be12476c421c8850bcdd6bc9897fee33a5a413bf616eb8645d4b4eaa637c9d09",
        ),
    },
    "Pathfinder": {
        "default": (
            "44fd30f0ac12366c42cf76404e1785bbe3d25e9678d11578ee2afe81bfd7db3d",
            "05bb9390759f0267e33f515a4353861f8227858d30695eeb7337179d72557b74",
        ),
        "no-fusion": (
            "e123f02bb422f526c50eb382e9ad1434e09a7646198df90625f47d7dde1313fb",
            "ae2c2412e438f3a739337850c80e1eb55e3dcf5a762e5d608b88ad61f9b4b6ae",
        ),
    },
    "SRAD": {
        "default": (
            "9d5454195d9108a2154a16aed6514d05ca11446e36757403dd05b6ea2b0a0508",
            "d4b97de1a20d2bf93c10aae6df4ee147315d6ac358afa44662ed09eee3e9a5ab",
        ),
        "no-fusion": (
            "5fdf3a2a7fd549b2ba3a5dc60abcdd365e609943daa12067afb343581dd1524f",
            "d8d5024236fc53a2242c15e7234cad2c8a60d16a98c177b2a9e270c4c4fc3b24",
        ),
    },
    "LocVolCalib": {
        "default": (
            "47add5a064c9a2874ed39a2a92cddefea545697de1b23f23a6d0dbdddae38920",
            "4ff84a07e2ba49d77daebd1d2fd2b0848c075e37c27ba2b7c5de42a01d09d3c6",
        ),
        "no-fusion": (
            "140455a13b13bda3f8e840c67124d27050074a61d8b264db27b5f2926f7507c2",
            "c1a4b8d01ad2a7b2e9df45f90a830762262d911d51c04b662b17b66a0a268ab3",
        ),
    },
    "OptionPricing": {
        "default": (
            "bbca8fdf23be807a9fc79a733062202a89cfe072a45544059c775d563cc7fc30",
            "9c0ff3c5ed523b8a9c73ba79c37e62be073b61b0e4c3a94f0c0779025ec89056",
        ),
        "no-fusion": (
            "1b1916bfad6682cef0501cce370703a4bb95bada3f53de369e1eb822195c0805",
            "1f7f53ca67507cb2bc61c3b6a0261d05952494030107f528321c7ce68c5a38a7",
        ),
    },
    "MRI-Q": {
        "default": (
            "ce3b5c6861fd08e20670deb3d854600729a601f04ad2354395545cbae31103f8",
            "3b650c96f27ca29ca8e38a51b2853f84e7f91405fb72cb866d1d900892bd66b2",
        ),
        "no-fusion": (
            "3c582694b6c9fa8deac3e3275b0ab5916ca4a17aa35e90127b41455394fd3af9",
            "381c7a754bf0955a362809b4e4389be0069ff553621a42d1bed5262cb29e7e74",
        ),
    },
    "Crystal": {
        "default": (
            "a26e5130e71323adc41edbf3efcd5f8ebcc69e504a0787fd907b8e3b7dc72665",
            "042212460d6a307f472ef4b897bc3870879a6da6f238168b1da706ae15d5ef81",
        ),
        "no-fusion": (
            "39cc42e8a6f2a7bde7c7cf55baae0bea67c986010f6240c1736063372afcfc3f",
            "c3ec6ccf4dbcae293fa8603e3885f79f67c224c59bc70d77fc0c48213c9c407a",
        ),
    },
    "Fluid": {
        "default": (
            "db83c1b90203b87a5f155814bc8cc522bf47090a10be8916e641efe21b0736ea",
            "60ff6e35bcdb836a3b48e513e4c485190deed290edc8001ad1992016eaa87f71",
        ),
        "no-fusion": (
            "51c49890c14ee8d73b601324d82a0fb7a12ffee65bd805824c112070fa59adac",
            "159c26b23e5ad3fe24970cf86e91574e5db6e2e79f7ca2a2f8ae886a68165307",
        ),
    },
    "Mandelbrot": {
        "default": (
            "c3d141707f2e52a5e7719bcff567979644bd94da89023b6bbe8168dbffadecb8",
            "1e23ff873ec19298a979f4b11501408d584b6f55c7a494c6de3e4334b50fb622",
        ),
        "no-fusion": (
            "1972392cc86478c0d5db1582344550bdf8d1ebef74fff57eb2a596445ab935d7",
            "27b174ce83aa19cf14f52c0cc8a6d1157120bb86822b5e75053241e6d061157c",
        ),
    },
    "N-body": {
        "default": (
            "2d26b8dfa664c1ae8e046debc2e34bfe4c2d85beafc14630c986a311432221a6",
            "1c9d906569f1b719188dee0a5bad5c979a9dbf3d097fba6b395137fd1767416f",
        ),
        "no-fusion": (
            "3edf158a7a3bbd9c6584e4df7437d01e811e81f6b57ae8dd27956273b97addd0",
            "ca097808c765c2c493d03cc4c209daeff10e000859c3a8ac36b3207be4713776",
        ),
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
        assert (fps["core"], fps["host"]) == (
            PINNED_STAGE_FINGERPRINTS[name][opts]
        )


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
        assert compile_fingerprint("0" * 64, listed) == compile_fingerprint(
            "0" * 64, tupled
        )
        assert plan(listed) == plan(tupled)

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
