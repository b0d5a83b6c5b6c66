"""The trace is the one event channel: each event is recorded once,
metrics are a view of it, and ``--verbose`` prints the trace summary
instead of a second log."""

import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.gpu.faults import FaultPlan, chaos_plans
import repro.obs
from repro.obs import Tracer, metering
from repro.obs.export import summary
from repro.pipeline import compile_program
from repro.pipeline.artifact import ArtifactCache, StageArtifact
from repro.serve import Server, ServeRequest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def test_a_traced_fault_run_records_each_fault_once():
    spec = BENCHMARKS["HotSpot"]
    prog = spec.program()
    args = spec.small_args(np.random.default_rng(0))
    plan = FaultPlan(
        seed=3,
        launch_failure_rate=0.3,
        memory_fault_rate=0.1,
        timeout_rate=0.2,
    )
    with metering() as session:
        compiled = compile_program(prog, artifact_cache=None)
        _, _, report = compiled.execute(args, fault_plan=plan)
        faults = [
            s for s in session.tracer.instants if s.name.startswith("fault:")
        ]
        with Server(fault_plans=chaos_plans(9, 1)) as server:
            served = server.call(ServeRequest(prog, args), timeout=60)
    assert report.faults > 0
    assert len(faults) == report.faults
    assert served.ok
    tracer = session.tracer
    names = {s.name for s in tracer.spans + tracer.instants + tracer.counters}
    assert not [n for n in names if n.startswith("log:")]


def test_the_summary_lists_the_first_instants_and_counts_the_rest():
    tracer = Tracer()
    with tracer.span("execute", "runtime"):
        for i in range(5):
            tracer.instant("fault:transient", "runtime", attempt=i)
        tracer.instant("backoff", "runtime", us=12.5)
    text = summary(tracer, top=3)
    events = text.split("== events ==\n", 1)[1].splitlines()
    assert events[2:5] == [
        f"fault:transient  attempt={i}" for i in range(3)
    ]
    assert events[5] == "... and 3 more"


def test_a_clean_trace_says_it_has_no_events():
    tracer = Tracer()
    with tracer.span("compile", "pipeline"):
        pass
    assert "== events ==\n(none)" in summary(tracer)


def test_verbose_prints_the_summary_and_writes_no_file(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "validate",
         "--names", "HotSpot", "--verbose"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "HotSpot: OK" in proc.stdout
    for section in ("== spans (wall clock) ==", "== events ==",
                    "== counters =="):
        assert section in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_a_refused_artifact_root_warns_once(tmp_path):
    tmp_path.chmod(0o777)
    cache = ArtifactCache(tmp_path)
    with pytest.warns(RuntimeWarning, match="refused") as caught:
        assert cache.load("host", "a" * 64) is None
        assert cache.store(StageArtifact("host", "a" * 64, "main", {})) is None
    assert len(caught) == 1
    assert cache.stats.snapshot()["refusals"] == 2


def test_nothing_outside_obs_names_a_second_recording_path():
    src = pathlib.Path(REPO) / "src" / "repro"
    banned = re.compile(
        r"\b(get_metrics|thread_metering|MetricsRegistry|TeeMetrics)\b"
    )
    offenders = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if path.parent.name != "obs" and banned.search(path.read_text())
    ]
    assert offenders == []


def test_the_obs_surface_is_pinned():
    assert sorted(repro.obs.__all__) == sorted([
        "DUMP_TRIGGERS",
        "FLIGHT_SCHEMA",
        "FlightRecord",
        "FlightRecorder",
        "Histogram",
        "MetricsView",
        "PassTiming",
        "Span",
        "Tracer",
        "get_tracer",
        "metering",
        "set_tracer",
        "thread_tracing",
        "tracing",
    ])
    for name in repro.obs.__all__:
        assert hasattr(repro.obs, name), name
