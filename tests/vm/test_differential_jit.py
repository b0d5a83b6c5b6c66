"""The differential suite for the kernel transpiler
(:mod:`repro.vm.jit`): jit execution must be observationally identical
to the reference interpreter.

Every paper benchmark runs under ``executor="jit"`` at reduced scale,
for several dataset seeds, and the results are checked against the
interpreter (bit-exact for integers, tolerance for floats) by
:func:`repro.bench.runner.validate_benchmark`.  On top of value
equality the suite asserts the quality bar the transpiler claims:

* *full transpilation* — no kernel degrades to the vectorized engine
  or the interpreter (``vm.fallback`` stays at zero across the whole
  suite, ``jit.kernels`` is positive for every program);
* *clock semantics* — the cost-model clock still advances, and
  kernel-launch spans land on the ``vm-jit`` trace track;
* *persistence* — a second process pointed at the same
  ``$REPRO_ARTIFACT_DIR`` reuses the cached generated source and
  performs **zero** transpilations, while source persisted under an
  older ``PYCODE_SCHEMA`` is discarded and re-transpiled.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.bench.runner import validate_benchmark
from repro.bench.suite import BENCHMARKS
from repro.core.values import values_equal
from repro.interp import run_program
from repro.obs import metering, observe
from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.pipeline import CompilerOptions, compile_program
from repro.pipeline.artifact import ArtifactCache, StageArtifact
from repro.pipeline.fingerprint import _digest
from repro.runtime import ExecutionPolicy
from repro.vm.jit import jit_cache_for
from repro.vm.jit.codegen import PYCODE_SCHEMA

SEEDS = [
    int(s) for s in os.environ.get("VM_SEEDS", "0,1,2").split(",")
]
NAMES = list(BENCHMARKS.names())
JIT = CompilerOptions(executor="jit")


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_jit_matches_interpreter(name, seed):
    with metering() as m:
        report = validate_benchmark(name, seed=seed, options=JIT)
    assert report.fallbacks == 0, f"{name}: {report.summary()}"
    counters = m.snapshot()["counters"]
    fallbacks = {
        k: v for k, v in counters.items() if k.startswith("vm.fallback")
    }
    assert not fallbacks, (
        f"{name}/seed{seed}: kernels fell back off the jit tier: "
        f"{fallbacks}"
    )
    jitted = sum(
        v for k, v in counters.items() if k.startswith("jit.kernels")
    )
    assert jitted > 0, f"{name}/seed{seed}: no kernel ran transpiled"


def test_jit_run_is_traceable(tmp_path):
    """A jit-executor run emits kernel spans on the ``vm-jit`` track
    and exports a schema-valid Chrome trace."""
    with observe() as session:
        validate_benchmark("HotSpot", options=JIT)
    assert "vm-jit" in session.tracer.tracks()
    vm_spans = [
        s for s in session.tracer.spans
        if s.track == "vm-jit" and s.category == "kernel"
    ]
    assert vm_spans, "no kernel spans on the vm-jit track"
    out = tmp_path / "trace.json"
    write_chrome_trace(session.tracer, str(out))
    problems = validate_chrome_trace(json.load(open(out)))
    assert problems == [], problems


_WARM_START_SCRIPT = """\
import json
from repro.bench.runner import validate_benchmark
from repro.obs import metering
from repro.pipeline import CompilerOptions

with metering() as m:
    validate_benchmark("Pathfinder", options=CompilerOptions(executor="jit"))
c = m.snapshot()["counters"]
print(json.dumps({
    "transpiles": sum(
        v for k, v in c.items() if k.startswith("jit.transpiles")
    ),
    "compiles": sum(
        v for k, v in c.items() if k.startswith("jit.compiles")
    ),
    "jitted": sum(
        v for k, v in c.items() if k.startswith("jit.kernels")
    ),
}))
"""


def _run_once(artifact_dir) -> dict:
    env = dict(os.environ)
    env["REPRO_ARTIFACT_DIR"] = str(artifact_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            os.path.join(os.getcwd(), "src"),
            env.get("PYTHONPATH", ""),
        ) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _WARM_START_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_warm_start_skips_transpilation(tmp_path):
    """The generated source survives the process: a second process
    with the same ``$REPRO_ARTIFACT_DIR`` loads the ``pycode``
    artifact and transpiles nothing (it still pays ``compile()``)."""
    cold = _run_once(tmp_path)
    assert cold["transpiles"] > 0, cold
    assert cold["jitted"] > 0, cold
    warm = _run_once(tmp_path)
    assert warm["transpiles"] == 0, (
        f"warm start re-transpiled: {warm}"
    )
    assert warm["compiles"] > 0, warm
    assert warm["jitted"] > 0, warm


def test_pycode_from_an_older_schema_is_discarded(tmp_path):
    """Generated source persisted under another ``PYCODE_SCHEMA`` is
    never served: the artifact fingerprint includes the schema (an old
    file is not even looked up), and a payload whose own tag disagrees
    with the file it sits in is ignored and re-transpiled."""
    old_schema = "repro.pycode/v1"
    assert PYCODE_SCHEMA != old_schema
    spec = BENCHMARKS["Pathfinder"]
    args = spec.small_args(np.random.default_rng(0))
    expected = run_program(spec.program(), args)
    cache = ArtifactCache(tmp_path)
    policy = ExecutionPolicy(executor="jit")

    def serve():
        compiled = compile_program(spec.program(), artifact_cache=cache)
        with metering() as m:
            got, _cost, report = compiled.execute(args, policy=policy)
        assert report.fallbacks == 0
        for e, g in zip(expected, got):
            assert values_equal(e, g, rtol=1e-4, atol=1e-4)
        counters = m.snapshot()["counters"]
        assert not [k for k in counters if k.startswith("vm.fallback")]
        return compiled, sum(
            v for k, v in counters.items() if k.startswith("jit.transpiles")
        )

    compiled, transpiles = serve()
    assert transpiles > 0
    host_fp = compiled.fingerprints["host"]
    fresh = jit_cache_for(compiled.host).sources()

    # What an older build left behind: every kernel's source replaced
    # by one that would return garbage if it were ever compiled.
    poisoned = {
        kernel: {
            sig: "OUTS = ()\ndef run(R, *args):\n    return ()\n"
            for sig in by_sig
        }
        for kernel, by_sig in fresh.items()
    }
    current_fp = _digest(("pycode", host_fp, PYCODE_SCHEMA))
    for fp in (_digest(("pycode", host_fp, old_schema)), current_fp):
        assert cache.store(
            StageArtifact(
                "pycode", fp, "main",
                {"schema": old_schema, "kernels": poisoned},
                meta={"schema": old_schema},
            )
        )

    compiled, transpiles = serve()
    assert compiled.from_artifact == "host"
    assert transpiles == sum(len(v) for v in fresh.values())
    assert jit_cache_for(compiled.host).sources() == fresh
    # ... and the file under the current fingerprint was rewritten.
    rewritten = cache.load("pycode", current_fp)
    assert rewritten.payload["schema"] == PYCODE_SCHEMA
    assert rewritten.payload["kernels"] == fresh
