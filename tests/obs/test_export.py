"""Exporter tests: Chrome trace structure, schema validation (golden
file), metrics dumps, and the terminal summary."""

import json
import os

import numpy as np
import pytest

from repro.core.prim import I32
from repro.core.values import ScalarValue, array_value
from repro.frontend import parse
from repro.obs import metering
from repro.obs.export import (
    chrome_trace,
    metrics_dump,
    summary,
    validate_chrome_trace,
    validate_metrics_dump,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.trace import Tracer
from repro.pipeline import compile_program
from repro.runtime import ExecutionPolicy

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_trace.json")


def _golden_tracer() -> Tracer:
    """A deterministic trace: only explicit-clock events, so the export
    is byte-stable across runs."""
    tr = Tracer()
    tr.complete(
        "pass:fusion", "pipeline", ts_us=0.0, dur_us=120.0,
        bindings_before=30, bindings_after=24, soacs_before=5,
        soacs_after=3,
    )
    tr.complete(
        "kernel:map_1", "kernel", ts_us=10.0, dur_us=35.5,
        track="sim-gpu", kind="map", cycles=32944.0,
        bytes_effective=1024.0, occupancy=0.01,
    )
    tr.complete(
        "kernel:redomap_2", "kernel", ts_us=45.5, dur_us=70.0,
        track="sim-gpu", kind="reduce", cycles=64960.0,
        bytes_effective=2048.0, occupancy=0.02,
    )
    tr.metadata["run_id"] = "golden/seed0"
    return tr


def test_chrome_trace_structure():
    trace = chrome_trace(_golden_tracer())
    assert validate_chrome_trace(trace) == []
    events = trace["traceEvents"]
    # Process + two thread metadata events, then the three completes.
    phases = [e["ph"] for e in events]
    assert phases.count("M") == 3
    assert phases.count("X") == 3
    names = {e["name"] for e in events if e["ph"] == "M"}
    assert names == {"process_name", "thread_name"}
    kernel = next(e for e in events if e["name"] == "kernel:map_1")
    assert kernel["ts"] == 10.0
    assert kernel["dur"] == 35.5
    assert kernel["args"]["cycles"] == 32944.0
    # Kernel events sit on the sim-gpu track, pass events on main.
    pass_ev = next(e for e in events if e["name"] == "pass:fusion")
    assert kernel["tid"] != pass_ev["tid"]
    assert trace["otherData"]["run_id"] == "golden/seed0"


def test_golden_trace_file_matches_and_validates():
    """The committed golden file is exactly what the exporter produces
    for the deterministic trace, and passes the schema check."""
    with open(GOLDEN) as f:
        golden = json.load(f)
    assert validate_chrome_trace(golden) == []
    assert chrome_trace(_golden_tracer()) == golden


def test_write_chrome_trace_roundtrip(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(_golden_tracer(), str(path))
    with open(path) as f:
        loaded = json.load(f)
    assert validate_chrome_trace(loaded) == []


def test_validator_rejects_malformed_traces():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) != []
    assert validate_chrome_trace({"traceEvents": []}) != []
    bad_phase = {"traceEvents": [
        {"name": "x", "ph": "Q", "pid": 1, "tid": 0}
    ]}
    assert any("phase" in e for e in validate_chrome_trace(bad_phase))
    missing_dur = {"traceEvents": [
        {"name": "x", "ph": "X", "ts": 1.0, "pid": 1, "tid": 0}
    ]}
    assert any("dur" in e for e in validate_chrome_trace(missing_dur))
    negative_ts = {"traceEvents": [
        {"name": "x", "ph": "i", "ts": -5.0, "pid": 1, "tid": 0}
    ]}
    assert any("ts" in e for e in validate_chrome_trace(negative_ts))


def test_instants_export_as_thread_scoped_markers():
    tr = Tracer()
    tr.instant("rollback:fusion", "pipeline", error="bug")
    trace = chrome_trace(tr)
    assert validate_chrome_trace(trace) == []
    ev = next(e for e in trace["traceEvents"] if e["ph"] == "i")
    assert ev["s"] == "t"
    assert ev["args"]["error"] == "bug"


def test_non_json_attribute_values_are_stringified():
    tr = Tracer()
    tr.complete("x", "t", ts_us=0.0, dur_us=1.0, obj=object())
    trace = chrome_trace(tr)
    json.dumps(trace)  # must not raise
    assert validate_chrome_trace(trace) == []


def _launch(tracer: Tracer, dur_us: float) -> None:
    tracer.complete(
        "kernel:map_1", "kernel", ts_us=0.0, dur_us=dur_us,
        track="sim-gpu", namespace="gpu", runner="interp", kind="map",
        launches=1, cycles=1.0, bytes_effective=1.0, bytes_raw=1.0,
        flops=1.0, occupancy=0.5, watchdog_consumed=0.1,
    )


def test_metrics_dump_and_validation(tmp_path):
    tr = Tracer()
    tr.instant("backoff", "runtime", us=1.0)
    tr.instant("backoff", "runtime", us=1.0)
    _launch(tr, 42.0)
    dump = metrics_dump(tr, metadata={"run_id": "golden/seed0"})
    assert validate_metrics_dump(dump) == []
    assert dump["schema"] == "repro.metrics/v1"
    assert dump["metadata"]["run_id"] == "golden/seed0"
    assert dump["counters"]["runtime.retries"] == 2
    path = tmp_path / "metrics.json"
    write_metrics(tr, str(path))
    with open(path) as f:
        assert validate_metrics_dump(json.load(f)) == []
    # Malformed dumps are rejected.
    assert validate_metrics_dump({"schema": "nope"}) != []
    broken = metrics_dump(tr)
    broken["histograms"]["gpu.kernel_time_us"]["counts"] = [1]
    assert validate_metrics_dump(broken) != []


def test_summary_renders_passes_kernels_and_counters():
    tr = _golden_tracer()
    for _ in range(4):
        tr.instant("backoff", "runtime", us=2.0)
    _launch(tr, 35.5)
    text = summary(tr)
    assert "pass:fusion" in text
    assert "kernel:map_1" in text
    assert "runtime.retries" in text
    assert "gpu.kernel_time_us" in text
    assert summary(None) == "(no observability data recorded)"


def test_metrics_dump_carries_bucket_bounds():
    tr = Tracer()
    _launch(tr, 1.5)
    dump = metrics_dump(tr)
    h = dump["histograms"]["gpu.occupancy"]
    assert h["bounds"] == [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    assert len(h["counts"]) == len(h["bounds"]) + 1


def test_metrics_validator_rejects_inconsistent_bucket_counts():
    tr = Tracer()
    _launch(tr, 1.5)
    dump = metrics_dump(tr)
    assert validate_metrics_dump(dump) == []
    # Bucket counts that do not sum to the observation count.
    broken = metrics_dump(tr)
    broken["histograms"]["gpu.kernel_time_us"]["count"] = 5
    errs = validate_metrics_dump(broken)
    assert any("sum to" in e for e in errs)
    # Non-ascending bounds.
    broken = metrics_dump(tr)
    h = broken["histograms"]["gpu.kernel_time_us"]
    h["bounds"] = list(reversed(h["bounds"]))
    errs = validate_metrics_dump(broken)
    assert any("ascending" in e for e in errs)


def test_an_instant_is_drawn_on_its_track():
    tr = Tracer()
    tr.instant("vm.fallback:k", "vm", track="vm-jit", kind="jit")
    trace = chrome_trace(tr)
    tids = {
        e["args"]["name"]: e["tid"]
        for e in trace["traceEvents"] if e["name"] == "thread_name"
    }
    (ev,) = [e for e in trace["traceEvents"] if e["ph"] == "i"]
    assert ev["tid"] == tids["vm-jit"] != tids["main"]
    assert ev["args"] == {"kind": "jit"}


def test_a_jit_hand_over_is_marked_on_the_jit_track():
    """``vm.fallback:<kernel>`` lands on the ``vm-jit`` track of the
    kernel it hands over, with no ``track`` among its attributes."""
    compiled = compile_program(parse(
        "fun main (xs: [n]i32) (k: i32): [n]i32 =\n"
        "  map (\\(x: i32) -> shl x k) xs\n"
    ), artifact_cache=None)
    args = [
        array_value(np.array([1, 2, 3], dtype=np.int32), I32),
        ScalarValue(40, I32),
    ]
    with metering() as session:
        compiled.execute(args, policy=ExecutionPolicy(executor="jit"))
    trace = chrome_trace(session.tracer)
    tids = {
        e["args"]["name"]: e["tid"]
        for e in trace["traceEvents"] if e["name"] == "thread_name"
    }
    (ev,) = [
        e for e in trace["traceEvents"]
        if e["ph"] == "i" and e["name"].startswith("vm.fallback:")
    ]
    assert ev["tid"] == tids["vm-jit"] != tids["main"]
    assert "track" not in ev["args"]
    assert ev["args"]["kind"] == "jit"
