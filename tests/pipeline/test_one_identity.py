"""A compile has one identity, its host fingerprint.

The serving layer's in-memory key (:func:`compile_cache_key`), the
``host`` entry of a compile's fingerprints and the name of its on-disk
artifact are one digest, for every benchmark program under the default
options and with each optional pass disabled.  A server that compiles
through a warm artifact cache therefore loads the artifact a direct
compile stored.
"""

import pytest

import repro.pipeline
from repro.bench.suite import BENCHMARKS
from repro.pipeline import (
    PASSES,
    ArtifactCache,
    CompilerOptions,
    compile_cache_key,
    compile_program,
)
from repro.serve import Server

NAMES = list(BENCHMARKS.names())
OPTIONS = {"default": CompilerOptions()}
OPTIONS.update(
    (f"no-{p.name}", CompilerOptions(disabled_passes=(p.name,)))
    for p in PASSES
    if p.optional
)


@pytest.mark.parametrize("opts", list(OPTIONS))
@pytest.mark.parametrize("name", NAMES)
def test_the_serve_key_is_the_host_fingerprint(name, opts, tmp_path):
    options = OPTIONS[opts]
    prog = BENCHMARKS[name].program()
    cache = ArtifactCache(tmp_path)
    compiled = compile_program(prog, options, artifact_cache=cache)
    key = compile_cache_key(prog, options)
    assert key == compiled.fingerprints["host"]
    # Only a clean compile is stored (K-means without simplify rolls
    # fusion back); the server then compiles it again, cold.
    stored = not compiled.diagnostics
    assert cache.path_for("host", key).is_file() == stored
    handle = Server(options=options, artifact_cache=cache).load(prog)
    assert handle.key == key
    assert handle.compiled.from_artifact == ("host" if stored else None)


def test_a_strict_compile_shares_the_key_and_the_artifact(tmp_path):
    """``strict`` says only how the driver treats a failing pass: no
    pass's output reads it, so it shares the key and the artifact."""
    prog = BENCHMARKS["NN"].program()
    cache = ArtifactCache(tmp_path)
    lax = compile_program(prog, artifact_cache=cache)
    strict = compile_program(
        prog, CompilerOptions(strict=True), artifact_cache=cache
    )
    assert strict.from_artifact == "host"
    assert compile_cache_key(prog, CompilerOptions(strict=True)) == (
        lax.fingerprints["host"]
    )


def test_one_fingerprint_function_is_exported():
    exported = set(repro.pipeline.__all__)
    assert not exported & {"compile_fingerprint", "stage_fingerprint"}
    assert not hasattr(repro.pipeline, "compile_fingerprint")
    assert not hasattr(repro.pipeline, "stage_fingerprint")
