"""Stage artifacts and the on-disk cache: round-trips, verified loads,
corruption recovery, and the driver's resume semantics."""

import json
import os
import pickle

import numpy as np
import pytest

from repro.core import array_value, scalar, to_python
from repro.core.prim import F32, I32
from repro.pipeline import (
    ArtifactCache,
    CompilerOptions,
    StageArtifact,
    compile_source,
    default_artifact_cache,
)
from repro.pipeline.artifact import ARTIFACT_DIR_ENV
from repro.errors import ArgumentError
from repro.runtime import ExecutionPolicy

SRC = """
fun main (xs: [n]f32): [n]f32 =
  map (\\(y: f32) -> y + 1.0f32)
      (map (\\(x: f32) -> x * 2.0f32) xs)
"""

EXPECTED = [3.0, 5.0, 7.0]

#: A host loop of in-place updates.
UPDATES = """
fun main (xs: *[n]f32) (k: i32): [n]f32 =
  loop (ys: *[n]f32 = xs) for i < k do
    ys with [i] <- f32 (i % 2 + 1)
"""

#: Set by unpickling a :class:`_RunsCode`: proof that a payload ran.
UNPICKLED = []


def _mark_unpickled():
    UNPICKLED.append(True)


class _RunsCode:
    """A payload whose unpickling calls a function of our choosing."""

    def __reduce__(self):
        return (_mark_unpickled, ())


def _split(data):
    header, _, payload = data.partition(b"\n")
    return json.loads(header), payload


def _xs():
    return array_value([1.0, 2.0, 3.0], F32)


def _run(compiled):
    (out,), _ = compiled.run([_xs()])
    return to_python(out)


class TestStageArtifactEnvelope:
    def test_round_trip(self):
        art = StageArtifact(
            stage="core",
            fingerprint="f" * 64,
            entry="main",
            payload={"core": [1, 2, 3]},
            meta={"passes": ["inline"]},
        )
        back = StageArtifact.from_bytes(art.to_bytes())
        assert back.stage == "core"
        assert back.fingerprint == art.fingerprint
        assert back.entry == "main"
        assert back.payload == {"core": [1, 2, 3]}
        assert back.meta == {"passes": ["inline"]}

    def test_fingerprint_mismatch_is_rejected(self):
        art = StageArtifact("core", "a" * 64, "main", {"core": None})
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            StageArtifact.from_bytes(
                art.to_bytes(), expect_fingerprint="b" * 64
            )

    def test_payload_corruption_is_rejected(self):
        art = StageArtifact("core", "a" * 64, "main", {"core": "x" * 100})
        header, payload = _split(art.to_bytes())
        corrupted = payload[:-10] + b"\x00" * 10
        with pytest.raises(ValueError, match="checksum"):
            StageArtifact.from_bytes(
                json.dumps(header).encode() + b"\n" + corrupted
            )

    def test_garbage_bytes_are_rejected(self):
        with pytest.raises(ValueError, match="undecodable"):
            StageArtifact.from_bytes(b"not a pickle at all")

    def test_wrong_schema_is_rejected(self):
        data = json.dumps({"schema": "something/else"}).encode() + b"\n"
        with pytest.raises(ValueError, match="not a"):
            StageArtifact.from_bytes(data)

    def test_the_header_is_json_and_the_payload_follows_it(self):
        art = StageArtifact("host", "e" * 64, "main", {"host": [1]})
        header, payload = _split(art.to_bytes())
        assert header["schema"] == "repro.stage_artifact/v2"
        assert (header["stage"], header["fingerprint"]) == ("host", "e" * 64)
        assert pickle.loads(payload) == {"host": [1]}

    def test_a_pickled_envelope_is_refused_without_unpickling(self):
        """The v1 format pickled the whole envelope, header included."""
        UNPICKLED.clear()
        envelope = pickle.dumps({"schema": _RunsCode(), "payload": b""})
        with pytest.raises(ValueError):
            StageArtifact.from_bytes(envelope)
        assert not UNPICKLED


class TestArtifactCache:
    def test_store_load_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        art = StageArtifact("host", "c" * 64, "main", {"host": "payload"})
        path = cache.store(art)
        assert path is not None and path.is_file()
        back = cache.load("host", "c" * 64)
        assert back is not None and back.payload == {"host": "payload"}
        assert cache.stats.snapshot()["hits"] == 1
        assert len(cache) == 1

    def test_missing_file_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.load("host", "d" * 64) is None
        assert cache.stats.snapshot()["misses"] == 1

    def test_corrupted_file_is_evicted_and_recompiled(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        compiled = compile_source(SRC, artifact_cache=cache)
        path = cache.path_for("host", compiled.fingerprints["host"])
        assert path.is_file()
        path.write_bytes(b"truncated garbage")
        again = compile_source(SRC, artifact_cache=cache)
        # The corrupt host artifact counts as a miss and is removed;
        # the compile falls back to the next-deepest valid stage (the
        # core artifact), reruns the host passes, and re-stores.
        assert again.from_artifact == "core"
        assert cache.stats.snapshot()["evictions"] == 1
        assert _run(again) == EXPECTED
        assert path.is_file()  # re-stored by the recompile
        # With the core artifact corrupted too, the compile goes cold.
        path.write_bytes(b"junk")
        cache.path_for("core", compiled.fingerprints["core"]).write_bytes(
            b"junk"
        )
        cold = compile_source(SRC, artifact_cache=cache)
        assert cold.from_artifact is None
        assert cache.stats.snapshot()["evictions"] == 3
        assert _run(cold) == EXPECTED

    def test_a_payload_that_runs_code_fails_its_checksum_unpickled(
        self, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        fp = "f" * 64
        path = cache.store(StageArtifact("host", fp, "main", {"host": 1}))
        header, _ = _split(path.read_bytes())
        evil = pickle.dumps({"host": _RunsCode()})
        UNPICKLED.clear()
        pickle.loads(evil)
        assert UNPICKLED, "the payload must run code when unpickled"
        UNPICKLED.clear()
        # The header is well formed and names this stage and fingerprint.
        path.write_bytes(json.dumps(header).encode() + b"\n" + evil)
        assert cache.load("host", fp) is None
        assert not UNPICKLED
        stats = cache.stats.snapshot()
        assert (stats["misses"], stats["evictions"], stats["hits"]) == (1, 1, 0)
        assert not path.exists()

    def test_stage_swap_is_rejected(self, tmp_path):
        """A core artifact renamed to a host path must not load."""
        cache = ArtifactCache(tmp_path)
        compiled = compile_source(SRC, artifact_cache=cache)
        core_path = cache.path_for("core", compiled.fingerprints["core"])
        host_path = cache.path_for("host", compiled.fingerprints["host"])
        host_path.unlink()
        os.replace(core_path, host_path)
        again = compile_source(SRC, artifact_cache=cache)
        # Host load fails (fingerprint mismatch -> evicted), core was
        # renamed away, so this is a cold compile.
        assert again.from_artifact is None
        assert cache.stats.snapshot()["evictions"] >= 1


class TestCacheRootTrust:
    """Whoever can write the cache root can plant an artifact whose
    checksum matches, so only a root this user alone may write is read
    or written."""

    def _plant(self, root):
        fp = "9" * 64
        path = ArtifactCache(root).path_for("host", fp)
        path.write_bytes(
            StageArtifact("host", fp, "main", {"host": _RunsCode()}).to_bytes()
        )
        return fp, path

    def test_a_planted_artifact_in_a_shared_root_is_not_loaded(
        self, tmp_path
    ):
        root = tmp_path / "shared"
        root.mkdir()
        fp, path = self._plant(root)
        root.chmod(0o777)
        cache = ArtifactCache(root)
        UNPICKLED.clear()
        assert cache.load("host", fp) is None
        assert not UNPICKLED
        assert path.exists()  # refused, not evicted
        stats = cache.stats.snapshot()
        assert (stats["refusals"], stats["misses"], stats["hits"]) == (1, 1, 0)
        # The same file in a root only its owner may write is a valid
        # artifact (so the refusal, not the checksum, stopped it).
        root.chmod(0o700)
        assert ArtifactCache(root).load("host", fp) is not None
        assert UNPICKLED

    def test_a_refused_root_compiles_cold_and_stores_nothing(
        self, tmp_path
    ):
        tmp_path.chmod(0o775)  # group-writable
        cache = ArtifactCache(tmp_path)
        for _ in range(2):
            compiled = compile_source(SRC, artifact_cache=cache)
            assert compiled.from_artifact is None
            assert _run(compiled) == EXPECTED
        assert len(cache) == 0
        stats = cache.stats.snapshot()
        assert stats["stores"] == stats["hits"] == stats["errors"] == 0
        # Every load was refused (a miss), and so was every store.
        assert stats["misses"] > 0 and stats["refusals"] > stats["misses"]

    def test_a_root_another_uid_owns_is_refused(self, tmp_path, monkeypatch):
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        cache = ArtifactCache(tmp_path)
        assert not cache.trusted()
        assert cache.store(StageArtifact("core", "a" * 64, "main", {})) is None
        assert cache.stats.snapshot()["refusals"] == 1

    def test_the_root_is_created_0700(self, tmp_path):
        cache = ArtifactCache(tmp_path / "a" / "cache")
        assert cache.store(StageArtifact("core", "a" * 64, "main", {}))
        assert (tmp_path / "a" / "cache").stat().st_mode & 0o777 == 0o700

    def test_mkdtemp_and_tmp_path_roots_are_trusted(self, tmp_path):
        import shutil
        import tempfile

        assert ArtifactCache(tmp_path).trusted()
        root = tempfile.mkdtemp(prefix="artifacts-")
        try:
            assert ArtifactCache(root).trusted()
        finally:
            shutil.rmtree(root)


class TestDriverResume:
    def test_second_compile_resumes_from_host(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = compile_source(SRC, artifact_cache=cache)
        assert cold.from_artifact is None
        warm = compile_source(SRC, artifact_cache=cache)
        assert warm.from_artifact == "host"
        assert [t.name for t in warm.pass_timings] == ["artifact:host"]
        assert _run(warm) == EXPECTED
        assert warm.opencl() == cold.opencl()

    def test_core_artifact_resumes_host_passes_only(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        compile_source(SRC, artifact_cache=cache, stop_after="core")
        warm = compile_source(SRC, artifact_cache=cache)
        assert warm.from_artifact == "core"
        names = [t.name for t in warm.pass_timings]
        assert names[0] == "artifact:core"
        assert "fusion" not in names  # core passes skipped
        assert "lower" in names  # host passes ran
        assert _run(warm) == EXPECTED

    def test_compile_options_invalidate_artifacts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        compile_source(SRC, artifact_cache=cache)
        other = compile_source(
            SRC, CompilerOptions(fusion=False), artifact_cache=cache
        )
        assert other.from_artifact is None

    def test_runtime_only_options_share_artifacts(self, tmp_path):
        """`executor` doesn't affect generated code, so it must not
        invalidate stage artifacts."""
        cache = ArtifactCache(tmp_path)
        compile_source(SRC, artifact_cache=cache)
        warm = compile_source(
            SRC, CompilerOptions(executor="sim"), artifact_cache=cache
        )
        assert warm.from_artifact == "host"

    def test_a_warm_load_keeps_the_in_place_mode(self, tmp_path):
        """``in_place`` is compiled into the host program: a warm load
        runs in the mode it was compiled in, bit-identically."""
        cache = ArtifactCache(tmp_path)
        options = CompilerOptions(in_place=False)
        cold = compile_source(UPDATES, options, artifact_cache=cache)
        warm = compile_source(UPDATES, options, artifact_cache=cache)
        assert warm.from_artifact == "host"
        assert cold.host.in_place is False and warm.host.in_place is False
        args = [
            array_value(np.arange(6, dtype=np.float32), F32),
            scalar(3, I32),
        ]
        for executor in ("jit", "sim"):
            policy = ExecutionPolicy(executor=executor)
            want, want_cost, _ = cold.execute(args, policy=policy)
            got, cost, _ = warm.execute(args, policy=policy)
            assert to_python(got[0]) == to_python(want[0])
            assert to_python(got[0])[:4] == [1.0, 2.0, 1.0, 3.0]
            assert cost == want_cost

    def test_in_place_is_in_the_host_fingerprint(self):
        """Lowering reads ``in_place``, so the host stage's fingerprint
        covers it even with the memory planner (its other reader)
        disabled."""
        unplanned = ("memory-plan",)
        on = compile_source(
            UPDATES, CompilerOptions(disabled_passes=unplanned)
        )
        off = compile_source(
            UPDATES,
            CompilerOptions(in_place=False, disabled_passes=unplanned),
        )
        assert on.fingerprints["core"] == off.fingerprints["core"]
        assert on.fingerprints["host"] != off.fingerprints["host"]
        assert (on.host.in_place, off.host.in_place) == (True, False)

    def test_source_change_invalidates_artifacts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        compile_source(SRC, artifact_cache=cache)
        changed = compile_source(
            SRC.replace("2.0f32", "3.0f32"), artifact_cache=cache
        )
        assert changed.from_artifact is None

    def test_no_cache_by_default(self):
        compiled = compile_source(SRC)
        assert compiled.from_artifact is None
        assert "artifact:host" not in [
            t.name for t in compiled.pass_timings
        ]

    def test_stop_after_core_has_no_host(self):
        compiled = compile_source(SRC, stop_after="core")
        assert compiled.host is None
        assert compiled.core is not None

    def test_stop_after_bad_stage_is_an_argument_error(self):
        with pytest.raises(ArgumentError, match="stop_after"):
            compile_source(SRC, stop_after="backend")


class TestDefaultCache:
    def test_env_var_opts_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
        cache = default_artifact_cache()
        assert cache is not None and cache.root == tmp_path
        compile_source(SRC)  # uses the env default
        warm = compile_source(SRC)
        assert warm.from_artifact == "host"

    def test_unset_env_means_no_cache(self, monkeypatch):
        monkeypatch.delenv(ARTIFACT_DIR_ENV, raising=False)
        assert default_artifact_cache() is None
