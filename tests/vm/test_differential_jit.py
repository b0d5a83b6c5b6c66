"""The differential suite for the kernel transpiler
(:mod:`repro.vm.jit`): jit execution must be observationally identical
to the reference interpreter.

Every paper benchmark runs under ``executor="jit"`` at reduced scale,
for several dataset seeds, and the results are checked against the
interpreter (bit-exact for integers, tolerance for floats) by
:func:`repro.bench.runner.validate_benchmark`.  On top of value
equality the suite asserts the quality bar the transpiler claims:

* *full transpilation* — no launch degrades to the interpreter
  (``vm.fallback`` stays at zero across the whole suite,
  ``jit.kernels`` is positive for every program);
* *clock semantics* — the cost-model clock still advances, and
  kernel-launch spans land on the ``vm-jit`` trace track;
* *persistence* — a second process pointed at the same
  ``$REPRO_ARTIFACT_DIR`` reuses the cached generated source and
  performs **zero** transpilations, while source persisted under an
  older ``PYCODE_SCHEMA`` is discarded and re-transpiled;
* *fallback = interpreter* — a launch the transpiler refuses, or whose
  generated code meets a trap, re-runs on the scalar interpreter:
  exactly one ``vm.fallback{kind="jit"}`` per launch, the
  interpreter's values or the interpreter's error;
* *two executors* — ``"vector"`` is no longer a name anything accepts;
* *process state* — what the engines memoise on a host program is
  neither compared nor pickled.
"""

import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.bench.runner import validate_benchmark
from repro.bench.suite import BENCHMARKS
import repro.pipeline as P
from repro.__main__ import main as repro_main
from repro.core.prim import F32, I32
from repro.core.values import array_value, scalar, values_equal
from repro.errors import ArgumentError
from repro.frontend import parse
from repro.interp import run_program
from repro.obs import metering
from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.pipeline import compile_program
from repro.pipeline.artifact import ArtifactCache, StageArtifact
from repro.pipeline.fingerprint import _digest
from repro.gpu.device import NVIDIA_GTX780TI
from repro.runtime import ExecutionPolicy, run_resilient
from repro.serve import ServeRequest
from repro.vm.jit import jit_cache_for
from repro.vm.jit.codegen import PYCODE_SCHEMA

SEEDS = [
    int(s) for s in os.environ.get("VM_SEEDS", "0,1,2").split(",")
]
NAMES = list(BENCHMARKS.names())
JIT_POLICY = ExecutionPolicy(executor="jit")


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_jit_matches_interpreter(name, seed):
    with metering() as m:
        report = validate_benchmark(name, seed=seed, policy=JIT_POLICY)
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


@pytest.mark.parametrize("name", NAMES)
def test_no_launch_leaves_the_jit_at_perf_scale(name):
    """The one thing ``bench jit`` held that the reduced-scale sweep
    above does not: at ``Dataset.perf`` sizes (wider batches, deeper
    trees, more chunks per lane) every launch still runs transpiled.
    No interpreter run: values are compared at reduced scale above
    (and, for four programs at this scale, by the e2e harness's
    ``run_perf`` workload)."""
    spec = BENCHMARKS[name]
    args = spec.perf_args(np.random.default_rng(0))
    with metering() as m:
        _, _, report = compile_program(spec.program()).execute(
            args, policy=JIT_POLICY
        )
    assert report.fallbacks == 0, f"{name}: {report.summary()}"
    fallbacks = [
        k for k in m.snapshot()["counters"] if k.startswith("vm.fallback")
    ]
    assert not fallbacks, f"{name}: kernels fell back at perf scale"


def test_jit_run_is_traceable(tmp_path):
    """A jit-executor run emits kernel spans on the ``vm-jit`` track
    and exports a schema-valid Chrome trace."""
    with metering() as session:
        validate_benchmark("HotSpot", policy=JIT_POLICY)
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
from repro.runtime import ExecutionPolicy

with metering() as m:
    validate_benchmark("Pathfinder", policy=ExecutionPolicy(executor="jit"))
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
    old_schemas = (
        "repro.pycode/v1", "repro.pycode/v2", "repro.pycode/v3",
        "repro.pycode/v4", "repro.pycode/v5", "repro.pycode/v6",
        "repro.pycode/v7", "repro.pycode/v8", "repro.pycode/v9",
    )
    assert PYCODE_SCHEMA not in old_schemas
    spec = BENCHMARKS["Pathfinder"]
    args = spec.small_args(np.random.default_rng(0))
    expected = run_program(spec.program(), args)
    cache = ArtifactCache(tmp_path)
    policy = JIT_POLICY

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
    for old_schema in old_schemas:
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


# -- fallback = interpreter --------------------------------------------------


def _jit_counters(m) -> dict:
    return {
        k: v
        for k, v in m.snapshot()["counters"].items()
        if k.startswith(("vm.", "jit."))
    }


CALL_IN_A_HOST_LOOP = r"""
fun sq (x: f32): f32 = x * x
fun main (xs: [n]f32) (k: i32): [n]f32 =
  loop (ys = xs) for i < k do map (\(y: f32) -> sq y + 1.0f32) ys
"""


def test_kernel_with_a_call_runs_every_launch_on_the_interpreter(
    monkeypatch,
):
    """An inlining rollback leaves a function call in the kernel; the
    transpiler refuses it once, and each of the ``k`` launches then
    takes one ``vm.fallback`` and computes the interpreter's values."""

    def sabotaged(*args, **kwargs):
        raise RuntimeError("sabotaged inlining")

    monkeypatch.setattr(P, "inline_prog", sabotaged)
    prog = parse(CALL_IN_A_HOST_LOOP)
    compiled = compile_program(prog)
    assert [d.pass_name for d in compiled.diagnostics] == ["inline"]

    def args():
        return [
            array_value(np.linspace(0.0, 1.0, 5, dtype=np.float32), F32),
            scalar(3, I32),
        ]

    with metering() as m:
        got, cost, report = compiled.execute(args(), policy=JIT_POLICY)
    assert report.fallbacks == 0 and cost.launches == 3
    (kernel,) = compiled.host.kernels()
    assert _jit_counters(m) == {
        f"jit.transpiles{{kernel={kernel.name}}}": 1.0,
        f"vm.fallback{{kernel={kernel.name},kind=jit}}": 3.0,
    }
    (want,) = run_program(prog, args())
    assert np.array_equal(got[0].data, want.data)


ZERO_DIVISOR = r"""
fun main (xs: [n]i32) (d: i32) (k: i32): [n]i32 =
  loop (ys = xs) for i < k do map (\(y: i32) -> y / d + 1) ys
"""


def test_zero_divisor_lands_on_the_interpreter_and_raises_its_error():
    """A trap check that fires hands the launch down once;
    the error is the interpreter's own.  With a non-zero divisor the
    same compiled kernel is served by the jit."""
    prog = parse(ZERO_DIVISOR)
    compiled = compile_program(prog)
    (kernel,) = compiled.host.kernels()

    def args(d):
        return [
            array_value(np.arange(6, dtype=np.int32), I32),
            scalar(d, I32),
            scalar(2, I32),
        ]

    with pytest.raises(ZeroDivisionError) as want:
        run_program(prog, args(0))
    with metering() as m:
        with pytest.raises(ZeroDivisionError) as got:
            compiled.execute(args(0), policy=JIT_POLICY)
    assert str(got.value) == str(want.value)
    assert _jit_counters(m) == {
        f"jit.transpiles{{kernel={kernel.name}}}": 1.0,
        f"jit.compiles{{kernel={kernel.name}}}": 1.0,
        f"vm.fallback{{kernel={kernel.name},kind=jit}}": 1.0,
    }
    with metering() as m:
        values, _cost, _report = compiled.execute(args(3), policy=JIT_POLICY)
    assert _jit_counters(m) == {"jit.kernels{kind=map}": 2.0}
    (want,) = run_program(prog, args(3))
    assert np.array_equal(values[0].data, want.data)


def test_vector_is_not_an_executor(capsys):
    for make in (
        lambda: ExecutionPolicy(executor="vector"),
        lambda: ServeRequest(parse(ZERO_DIVISOR), [], executor="vector"),
    ):
        with pytest.raises(ArgumentError, match="unknown executor 'vector'"):
            make()
    with pytest.raises(SystemExit) as exit_:
        repro_main(["bench", "validate", "--executor", "vector"])
    assert exit_.value.code == 2
    assert "invalid choice: 'vector'" in capsys.readouterr().err


# -- process state -----------------------------------------------------------


def test_a_host_program_that_ran_under_jit_pickles(tmp_path):
    """The jit cache (which holds a lock), the price memos and the
    artifact breadcrumbs are process state: not compared, not pickled,
    recreated empty — and a thawed program transpiles again."""
    spec = BENCHMARKS["Pathfinder"]
    args = spec.small_args(np.random.default_rng(0))
    compiled = compile_program(
        spec.program(), artifact_cache=ArtifactCache(tmp_path)
    )
    host = compiled.host
    want, _cost, _report = compiled.execute(args, policy=JIT_POLICY)
    assert host.jit_cache is not None and host.launch_costs
    assert host.stage_fingerprints and host.artifact_cache is not None

    thawed = pickle.loads(pickle.dumps(host))
    assert thawed == host
    assert thawed.jit_cache is None and thawed.artifact_cache is None
    assert thawed.launch_costs == {} and thawed.stage_fingerprints == {}
    assert "jit_cache" not in repr(host)

    with metering() as m:
        got, _cost, _report = run_resilient(
            thawed, compiled.core, args, NVIDIA_GTX780TI, policy=JIT_POLICY
        )
    counters = _jit_counters(m)
    assert not [k for k in counters if k.startswith("vm.fallback")]
    assert sum(
        v for k, v in counters.items() if k.startswith("jit.transpiles")
    ) == sum(len(v) for v in jit_cache_for(host).sources().values())
    for w, g in zip(want, got):
        assert np.array_equal(w.data, g.data)
