"""What the CI artefacts job uploads is valid: the job's own commands,
run here into a temporary directory, write a Chrome trace and a
metrics dump that pass their schema checks (the dump's launches are
the trace's), and flight bundles plus the ambient trace that absorbed
their captures."""

import json
import os
import subprocess
import sys

from repro.obs.export import (
    validate_chrome_trace,
    validate_flight_bundle,
    validate_metrics_dump,
)

REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _repro(cwd, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_the_uploaded_trace_and_metrics_validate(tmp_path):
    # The command of .github/workflows/ci.yml's "One benchmark with
    # tracing enabled" step.
    _repro(
        tmp_path, "bench", "validate", "--names", "HotSpot",
        "--trace-out", "trace.json", "--metrics-out", "metrics.json",
    )
    trace = json.loads((tmp_path / "trace.json").read_text())
    dump = json.loads((tmp_path / "metrics.json").read_text())
    assert validate_chrome_trace(trace) == []
    assert validate_metrics_dump(dump) == []
    launched = sum(
        ev["args"]["launches"]
        for ev in trace["traceEvents"]
        if ev["ph"] == "X" and ev["cat"] == "kernel"
    )
    counted = sum(
        v for k, v in dump["counters"].items()
        if k.startswith("gpu.launches{")
    )
    assert launched > 0
    assert counted == launched


def test_the_uploaded_flight_bundles_and_trace_validate(tmp_path):
    # The commands of the "Flight bundles from a chaos run replay in the
    # terminal" step: every request dumps a bundle (an SLO none meets).
    _repro(
        tmp_path, "serve-bench", "--clients", "4",
        "--requests-per-client", "2", "--chaos", "--flight-dir", "flight",
        "--slo-ms", "0.001", "--trace-out", "flight/trace.json",
    )
    flight = tmp_path / "flight"
    trace = json.loads((flight / "trace.json").read_text())
    assert validate_chrome_trace(trace) == []
    first = sorted(flight.glob("flightrec-*.json"))[0]
    bundle = json.loads(first.read_text())
    assert validate_flight_bundle(bundle) == []
    _repro(tmp_path, "obs", "replay", str(first))
    # The ambient trace absorbed the request's capture: its request
    # span is there once, at the bundle's own timestamp.
    name = f"request:{bundle['run_id']}"

    def spans(events):
        return [
            (ev["ts"], ev["dur"]) for ev in events
            if ev["ph"] == "X" and ev["name"] == name
        ]

    captured = spans(bundle["trace"]["traceEvents"])
    assert len(captured) == 1
    assert spans(trace["traceEvents"]) == captured
