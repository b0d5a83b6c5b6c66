"""The host program runs as one generated function, under both
executors.

``repro.vm.jit.codegen.host`` transpiles each ``HostProgram`` into one
Python function; ``GpuSimulator`` calls it with the books and the
runner's launchers.  Here: there is one host path (the same function
object under ``sim`` and ``jit``, no statement dispatch left in the
simulator, no per-launch signature); a warm ``jit`` run binds nothing
on the interpreter and calls it only for the host evaluations the
function does not emit itself and for hand-overs; a second cache over
the same artifacts transpiles nothing; a failed inline check raises the
interpreter's own error; and an argument that is not of its parameter's
type is an ``ArgumentError`` — never retried, never held against a
breaker.
"""

import ast
import pathlib
import sys
import threading

import numpy as np
import pytest

from repro.backend.kernel_ir import HostEval
from repro.bench.suite import BENCHMARKS
from repro.core import array_value, scalar
from repro.core.prim import F32, F64, I32
from repro.core.values import ArrayValue, ScalarValue, values_equal
from repro.errors import ArgumentError
from repro.gpu import NVIDIA_GTX780TI
from repro.gpu import simulator
from repro.gpu.simulator import DeviceAccounting, InterpRunner
from repro.interp import InterpError
from repro.interp.interpreter import Interpreter
from repro.obs import metering
from repro.pipeline import compile_program, compile_source
from repro.pipeline.artifact import ArtifactCache
from repro.runtime import EXECUTORS, ExecutionPolicy, make_engine
from repro.serve import Server, ServeRequest
from repro.vm.jit import engine as jit_engine
from repro.vm.jit import jit_cache_for
from repro.vm.jit.codegen.host import SCALAR_EVALS, host_statements

NAMES = list(BENCHMARKS.names())


def _compiled(name, **kw):
    spec = BENCHMARKS[name]
    return compile_program(spec.program(), **kw), spec.small_args(
        np.random.default_rng(0)
    )


# -- one host path --------------------------------------------------------------


def test_the_simulator_dispatches_on_no_host_statement():
    tree = ast.parse(pathlib.Path(simulator.__file__).read_text())
    statements = {
        "LaunchStmt", "HostEval", "HostLoopStmt", "HostIfStmt",
        "ManifestStmt", "AllocStmt", "FreeStmt",
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
        ):
            tested = {n.id for n in ast.walk(node.args[1])
                      if isinstance(n, ast.Name)}
            assert not tested & statements, ast.unparse(node)
    defined = {
        n.name for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.ClassDef))
    }
    assert not defined & {"_exec_stmts", "_exec_loop", "_size_of", "_sizes_for"}
    assert not hasattr(jit_engine.JitProgramCache, "signature")


def test_both_executors_run_one_function(monkeypatch):
    transpiled = []
    real = jit_engine.transpile_host
    monkeypatch.setattr(
        jit_engine, "transpile_host",
        lambda hp: transpiled.append(hp.name) or real(hp),
    )
    compiled, args = _compiled("HotSpot")
    host = compiled.host
    seen, runners = [], []
    for executor in EXECUTORS:
        engine = make_engine(executor, NVIDIA_GTX780TI, prog=compiled.core)
        engine.run(host, args)
        seen.append(jit_cache_for(host).host())
        runners.append(type(engine.runner))
    assert transpiled == ["main"]
    assert seen[0] is seen[1]
    assert runners[0] is InterpRunner and runners[1] is not InterpRunner


def _pycode_stores(monkeypatch) -> list:
    """The root of each cache a ``pycode`` artifact is stored in, one
    entry per store."""
    stores = []
    real = ArtifactCache.store

    def store(self, artifact):
        if artifact.stage == "pycode":
            stores.append(self.root.name)
        return real(self, artifact)

    monkeypatch.setattr(ArtifactCache, "store", store)
    return stores


def test_concurrent_first_runs_build_one_function(monkeypatch, tmp_path):
    """Serving threads share a host program: racing first runs build
    its function and each kernel once, and agree on every value.
    Through a cache, the build stores its sources once."""
    transpiled, kernels = [], []
    real = jit_engine.transpile_host
    monkeypatch.setattr(
        jit_engine, "transpile_host",
        lambda hp: transpiled.append(hp.name) or real(hp),
    )
    real_kernel = jit_engine.transpile_kernel
    monkeypatch.setattr(
        jit_engine, "transpile_kernel",
        lambda k, sig: kernels.append((k.name, repr(sig)))
        or real_kernel(k, sig),
    )
    stores = _pycode_stores(monkeypatch)
    for cache in ({}, {"artifact_cache": ArtifactCache(tmp_path)}):
        del transpiled[:], kernels[:], stores[:]
        compiled, args = _compiled("Pathfinder", **cache)
        start = threading.Barrier(8)
        results, errors = [], []

        def worker(k):
            try:
                start.wait(timeout=30)
                executor = EXECUTORS[k % len(EXECUTORS)]
                engine = make_engine(
                    executor, NVIDIA_GTX780TI, prog=compiled.core
                )
                for _ in range(5):
                    (out,), cost = engine.run(compiled.host, args)
                    results.append((out.data.tobytes(), cost.total_us))
            except Exception as ex:  # surfaced below, on the main thread
                errors.append(ex)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert transpiled == ["main"]
        assert len(results) == 8 * 5 and len(set(results)) == 1
        sources = jit_cache_for(compiled.host).sources()
        assert all(len(by_sig) == 1 for by_sig in sources.values())
        assert sorted(kernels) == sorted(
            (name, sig) for name, by_sig in sources.items() for sig in by_sig
        )
        assert len(stores) == (1 if cache else 0), stores


# -- what a warm jit run no longer does ----------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Calls to the interpreter's binding and evaluation, the non-scalar
    host evaluations the books see, and transpilations."""
    counts = dict(bind=0, eval=0, host_evals=0, transpiles=0)

    def count(cls, name, key, when=lambda *a: True):
        real = getattr(cls, name)

        def wrapper(*a, **kw):
            if when(*a):
                counts[key] += 1
            return real(*a, **kw)

        monkeypatch.setattr(cls, name, wrapper)

    count(Interpreter, "bind_param", "bind")
    count(Interpreter, "eval_exp", "eval")
    count(
        DeviceAccounting, "host_eval", "host_evals",
        lambda books, s: not isinstance(s.binding.exp, SCALAR_EVALS),
    )
    count(jit_engine, "transpile_host", "transpiles")
    count(jit_engine, "transpile_kernel", "transpiles")
    return counts


@pytest.mark.parametrize("name", NAMES)
def test_a_warm_jit_launch_binds_and_signs_nothing(name, counted):
    compiled, args = _compiled(name)
    policy = ExecutionPolicy(executor="jit")
    compiled.execute(args, policy=policy)
    for k in counted:
        counted[k] = 0
    with metering() as m:
        compiled.execute(args, policy=policy)
    fallbacks = sum(
        v for k, v in m.snapshot()["counters"].items()
        if k.startswith("vm.fallback")
    )
    assert counted["transpiles"] == 0
    assert counted["bind"] == 0
    assert counted["eval"] == counted["host_evals"] + fallbacks


def test_the_interpreter_is_called_by_three_programs_only(counted):
    """NN's ``UpdateExp``, LocVolCalib's ``RearrangeExp`` and SRAD's
    ``ReshapeExp`` are the host evaluations the function does not emit;
    every other warm run never enters the interpreter."""
    calling = []
    for name in NAMES:
        compiled, args = _compiled(name)
        compiled.execute(args, policy=ExecutionPolicy(executor="jit"))
        counted["eval"] = 0
        compiled.execute(args, policy=ExecutionPolicy(executor="jit"))
        if counted["eval"]:
            calling.append(name)
    assert sorted(calling) == ["LocVolCalib", "NN", "SRAD"]
    non_scalar = {
        name: {
            type(s.binding.exp).__name__
            for s in host_statements(_compiled(name)[0].host.stmts)
            if isinstance(s, HostEval)
            and not isinstance(s.binding.exp, SCALAR_EVALS)
        }
        for name in calling
    }
    assert non_scalar == {
        "LocVolCalib": {"RearrangeExp"},
        "NN": {"UpdateExp"},
        "SRAD": {"ReshapeExp"},
    }


def test_a_second_cache_over_the_same_artifacts_transpiles_nothing(
    tmp_path, counted, monkeypatch
):
    cache = ArtifactCache(tmp_path)
    policy = ExecutionPolicy(executor="jit")
    first, args = _compiled("LocVolCalib", artifact_cache=cache)
    want, _, _ = first.execute(args, policy=policy)
    assert counted["transpiles"] > 1  # the host function and kernels
    counted["transpiles"] = 0
    warm, _ = _compiled("LocVolCalib", artifact_cache=cache)
    assert warm.from_artifact == "host"
    fresh = jit_engine.JitProgramCache(warm.host)
    assert fresh.host_source() == jit_cache_for(first.host).host_source()
    warm.host.jit_cache = fresh
    got, _, report = warm.execute(args, policy=policy)
    assert counted["transpiles"] == 0
    assert report.fallbacks == 0
    for g, w in zip(got, want):
        assert values_equal(g, w, rtol=0.0, atol=0.0)
    # A cold first run stores each program's generated code once.
    stores = _pycode_stores(monkeypatch)
    for name in NAMES:
        compiled, args = _compiled(
            name, artifact_cache=ArtifactCache(tmp_path / "cold" / name)
        )
        compiled.execute(args, policy=policy)
    assert sorted(stores) == sorted(NAMES)


# -- the checks are the interpreter's -------------------------------------------

TWO = """
fun main (xs: [n]f32) (ys: [n]f32): [n]f32 =
  map (\\(x: f32) (y: f32) -> x + y) xs ys
"""


def test_a_failed_size_check_raises_the_interpreters_error():
    compiled = compile_source(TWO)
    args = [
        array_value(np.ones(3, np.float32), F32),
        array_value(np.ones(4, np.float32), F32),
    ]
    for executor in EXECUTORS:
        with pytest.raises(
            InterpError, match=r"^binding of ys: size n=3 but got 4$"
        ):
            compiled.execute(args, policy=ExecutionPolicy(executor=executor))


class _Wrong(InterpRunner):
    """A runner whose launches answer ``WRONG`` instead of computing."""

    WRONG = None

    def start(self, hp):
        return tuple(lambda *raws: (self.WRONG,) for _ in super().start(hp))


@pytest.mark.parametrize("wrong, message", [
    (np.zeros(5, np.float32), r"size n=4 but got 5"),
    (np.zeros((4, 1), np.float32), r"rank mismatch \(1 vs 2\)"),
    (1.0, r"expected array, got scalar"),
])
def test_a_kernel_result_is_checked_as_the_walk_checked_it(wrong, message):
    compiled = compile_source(TWO)
    args = [array_value(np.ones(4, np.float32), F32)] * 2
    runner = type("Runner", (_Wrong,), {"WRONG": wrong})
    engine = simulator.GpuSimulator(
        NVIDIA_GTX780TI, prog=compiled.core, runner=runner
    )
    with pytest.raises(InterpError, match=rf"^binding of \w+: {message}$"):
        engine.run(compiled.host, args)


# -- an argument of another type -----------------------------------------------


def _mistyped(args):
    """Each way an argument can disagree with its parameter's type, one
    argument at a time: another element type over the same data, data of
    another dtype under the right label, a scalar for an array (and the
    reverse), another primitive type."""
    for k, a in enumerate(args):
        if isinstance(a, ArrayValue):
            other = I32 if a.elem is not I32 else F32
            bad = [
                ArrayValue(a.data, other),
                ArrayValue(a.data.astype(other.to_dtype()), a.elem),
                scalar(1, a.elem),
            ]
        else:
            other = F32 if a.type is not F32 else I32
            bad = [
                ScalarValue(a.value, other),
                array_value(np.zeros(2, F64.to_dtype()), F64),
            ]
        for b in bad:
            yield k, args[:k] + [b] + args[k + 1:]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("name", NAMES)
def test_an_argument_of_another_type_is_an_argument_error(
    name, executor, monkeypatch
):
    compiled, args = _compiled(name)
    policy = ExecutionPolicy(executor=executor)
    runs = []
    real = simulator.GpuSimulator.run
    monkeypatch.setattr(
        simulator.GpuSimulator, "run",
        lambda self, *a: runs.append(1) or real(self, *a),
    )
    for k, bad in _mistyped(args):
        p = compiled.host.params[k]
        runs.clear()
        with pytest.raises(
            ArgumentError, match=rf"argument {k + 1} \({p.name}\)"
        ):
            compiled.execute(bad, policy=policy)
        assert len(runs) == 1  # never retried, never interpreted


def test_a_served_call_with_an_argument_of_another_type_is_an_error():
    with Server(queue_capacity=64) as server:
        for name in NAMES:
            spec = BENCHMARKS[name]
            args = spec.small_args(np.random.default_rng(0))
            for executor in EXECUTORS:
                _, bad = next(_mistyped(args))
                r = server.call(
                    ServeRequest(spec.program(), bad, executor=executor),
                    timeout=60,
                )
                assert r.status == "error", (name, executor, r)
                assert isinstance(r.error, ArgumentError), r.error
        health = server.health()
    assert health["breakers"]["dev0"]["state"] == "closed"
