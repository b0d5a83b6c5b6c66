"""What the CI artefacts job uploads from its traced run is valid: the
job's own command, run here into a temporary directory, writes a
Chrome trace and a metrics dump that pass their schema checks, and the
dump's launches are the trace's."""

import json
import os
import subprocess
import sys

from repro.obs.export import validate_chrome_trace, validate_metrics_dump

REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def test_the_uploaded_trace_and_metrics_validate(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")])
    )
    # The command of .github/workflows/ci.yml's "One benchmark with
    # tracing enabled" step.
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "validate",
         "--names", "HotSpot",
         "--trace-out", "trace.json", "--metrics-out", "metrics.json"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
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
