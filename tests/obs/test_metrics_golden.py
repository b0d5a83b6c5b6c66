"""One observed scenario's metrics, pinned: every metric family the
system records, with its labels and values.

The scenario reaches the pipeline (passes, compiles, a rollback,
artifact stores and loads, fusion), the resilient executor (faults,
retries, backoff, the interpreter fallback, a breaker refusal), the
jit (transpiles, compiles, jitted launches, a hand-over), the books of
the plain device (``gpu.*``) and of a pooled one (``gpu.dev0.*``),
manifests included, and the server (admissions, queue depth, a shed
request, requests and their latencies).  Everything in it is
deterministic except the served requests' wall-clock latencies, which
are compared by count.

After an intentional change to what is recorded::

    GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest \
        tests/obs/test_metrics_golden.py
"""

import json
import os
import pathlib

import numpy as np
import pytest

import repro.pipeline as P
from repro.bench.suite import BENCHMARKS
from repro.core.prim import I32
from repro.core.traversal import name_source
from repro.core.values import ScalarValue, array_value
from repro.frontend import parse
from repro.gpu.device import NVIDIA_GTX780TI
from repro.gpu.faults import FaultPlan
from repro.obs import FlightRecorder, metering
from repro.pipeline import ArtifactCache, compile_program
from repro.runtime import ExecutionPolicy
from repro.sched import DevicePool
from repro.serve import CircuitBreaker, Server, ServeRequest

GOLDEN = pathlib.Path(__file__).parent / "data" / "metrics_golden.json"

#: A uniform shift count out of range: the jit hands the launch over.
SHIFT = r"""
fun main (xs: [n]i32) (k: i32): [n]i32 =
  map (\(x: i32) -> shl x k) xs
"""

SIM = ExecutionPolicy(executor="sim")
JIT = ExecutionPolicy(executor="jit")

#: Wall-clock histograms: only their observation counts are pinned.
WALL_CLOCK = ("serve.latency_us",)


def _broken(*args, **kwargs):
    raise RuntimeError("sabotaged pass")


def _scenario(tmp_path, monkeypatch) -> dict:
    name_source.reset()
    kmeans, hotspot = BENCHMARKS["K-means"], BENCHMARKS["HotSpot"]
    kargs = kmeans.small_args(np.random.default_rng(0))
    hargs = hotspot.small_args(np.random.default_rng(0))
    shift_args = [
        array_value(np.array([1, 2, 3], dtype=np.int32), I32),
        ScalarValue(40, I32),
    ]
    refusing = CircuitBreaker("jit", failure_threshold=1, recovery_s=3600.0)
    refusing.record_failure()
    with metering() as session:
        cache = ArtifactCache(tmp_path / "artifacts")
        cold = compile_program(kmeans.program(), artifact_cache=cache)
        warm = compile_program(kmeans.program(), artifact_cache=cache)
        assert warm.from_artifact == "host"
        cold.execute(kargs, policy=SIM)
        cold.execute(kargs, policy=JIT)

        with monkeypatch.context() as m:
            m.setattr(P, "tile_program", _broken)
            shift = compile_program(parse(SHIFT), artifact_cache=None)
        assert shift.diagnostics
        _, _, report = shift.execute(shift_args, policy=JIT)
        assert report.fallbacks == 0

        hot = compile_program(hotspot.program(), artifact_cache=None)
        plan = FaultPlan(
            seed=3,
            launch_failure_rate=0.3,
            memory_fault_rate=0.1,
            timeout_rate=0.2,
        )
        _, _, report = hot.execute(hargs, fault_plan=plan, policy=JIT)
        assert report.faults > 0 and report.retries > 0
        _, _, report = hot.execute(
            hargs, fault_plan=FaultPlan(
                seed=1, launch_failure_rate=1.0, fatal_rate=1.0
            ),
            policy=SIM,
        )
        assert report.fallbacks == 1
        # A device whose breaker is open: a placement with no device.
        pool = DevicePool([NVIDIA_GTX780TI])
        pool.devices[0].breaker = refusing
        _, _, report, _ = pool.run(
            hot.host, hot.core, hargs, executor="jit", entry="main",
            run_id="refused", fallback=True,
        )
        assert report.gave_up_reason == "breaker open"

        recorder = FlightRecorder(dump_dir=str(tmp_path / "flight"))
        server = Server(flight_recorder=recorder)
        hprog = hotspot.program()
        requests = [
            ServeRequest(kmeans.program(), kargs, executor="jit"),
            ServeRequest(hprog, hargs, executor="sim"),
            ServeRequest(hprog, hargs, executor="jit"),
        ]
        with server:
            for i, request in enumerate(requests):
                request.request_id = f"req-{i}"
                served = server.call(request, timeout=60)
                assert served.ok, served.error
        shed = server.submit(ServeRequest(hprog, hargs, request_id="late"))
        assert shed.result(timeout=5).status == "shed"
    return session.snapshot()


def _comparable(snapshot: dict) -> dict:
    """``snapshot`` with each wall-clock histogram cut to its count."""
    out = json.loads(json.dumps(snapshot))
    for key, h in out["histograms"].items():
        if key.split("{", 1)[0] in WALL_CLOCK:
            out["histograms"][key] = {"count": h["count"]}
    return out


def test_the_metrics_are_the_pinned_metrics(tmp_path, monkeypatch):
    got = _comparable(_scenario(tmp_path, monkeypatch))
    if os.environ.get("GOLDEN_UPDATE"):
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip("golden re-pinned")
    want = json.loads(GOLDEN.read_text())
    for section in ("counters", "gauges", "histograms"):
        assert sorted(got[section]) == sorted(want[section]), section
        for key, value in want[section].items():
            assert got[section][key] == value, (section, key)
