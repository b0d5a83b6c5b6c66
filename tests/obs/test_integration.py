"""End-to-end observability: compile + execute a real benchmark under
tracing/metering and check the acceptance criteria — one span per
executed optimisation pass (with IR-size deltas) and one span per
simulated kernel launch (with cycle/memory-traffic attributes)."""

import pytest

from repro.bench.runner import validate_benchmark
from repro.gpu.faults import FaultPlan
from repro.obs import observe
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.pipeline import CompilerOptions


@pytest.fixture(scope="module")
def observed_run():
    with observe() as session:
        report = validate_benchmark(
            "HotSpot", seed=0, options=CompilerOptions(executor="sim")
        )
    return session, report


def test_pass_spans_carry_ir_deltas(observed_run):
    session, _ = observed_run
    pass_spans = [
        s for s in session.tracer.spans if s.name.startswith("pass:")
    ]
    assert pass_spans, "no optimisation-pass spans recorded"
    core = [s for s in pass_spans if "bindings_before" in s.attrs]
    assert core, "no pass span carries IR-size attributes"
    for s in core:
        assert isinstance(s.attrs["bindings_before"], int)
        assert isinstance(s.attrs["bindings_after"], int)
        assert "soacs_before" in s.attrs
        assert s.dur_us >= 0.0


def test_kernel_spans_carry_cycles_and_traffic(observed_run):
    session, _ = observed_run
    kernels = [
        s for s in session.tracer.spans if s.name.startswith("kernel:")
    ]
    assert kernels, "no simulated kernel-launch spans recorded"
    for s in kernels:
        assert s.track.startswith("sim-gpu")
        assert s.attrs["cycles"] > 0.0
        assert s.attrs["bytes_effective"] >= 0.0
        assert 0.0 <= s.attrs["occupancy"] <= 1.0
        assert "watchdog_consumed" in s.attrs


def test_run_report_has_run_id_seed_and_pass_timings(observed_run):
    _, report = observed_run
    assert report.run_id == "HotSpot/seed0"
    assert report.seed == 0
    assert report.pass_timings, "RunReport.pass_timings is empty"
    names = [t.name for t in report.pass_timings]
    assert "fusion" in names
    assert "lower" in names
    assert "HotSpot/seed0" in report.summary()
    assert "fusion" in report.timing_breakdown()


def test_execute_span_and_metrics_recorded(observed_run):
    session, _ = observed_run
    (ex,) = session.tracer.find("execute")
    assert ex.attrs["run_id"] == "HotSpot/seed0"
    snap = session.metrics.snapshot()
    launches = [
        k for k in snap["counters"] if k.startswith("gpu.launches")
    ]
    assert launches
    assert "gpu.kernel_time_us" in snap["histograms"]


def test_exported_trace_is_valid_chrome_trace(observed_run):
    session, _ = observed_run
    trace = chrome_trace(session.tracer)
    assert validate_chrome_trace(trace) == []
    names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
    assert any(n.startswith("pass:") for n in names)
    assert any(n.startswith("kernel:") for n in names)


def test_chaos_run_id_correlates_with_fault_plan():
    plan = FaultPlan(seed=7, launch_failure_rate=0.3)
    with observe() as session:
        report = validate_benchmark("HotSpot", seed=0, fault_plan=plan)
    assert report.run_id == "HotSpot/seed0/faultseed7"
    assert report.fatal_faults == 0
    (ex,) = session.tracer.find("execute")
    assert ex.attrs["run_id"] == "HotSpot/seed0/faultseed7"


def test_untraced_run_collects_pass_timings_but_no_spans():
    report = validate_benchmark("HotSpot", seed=0)
    assert report.pass_timings  # timings come for free, sans tracing
    assert all(t.bindings_before is None for t in report.pass_timings)
