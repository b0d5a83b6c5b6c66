"""The flight recorder in isolation: tee mirroring, ring eviction
(including under a concurrent hammer), dump triggers per terminal
error class, bundle validation and terminal replay."""

import json
import threading

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.obs.export import validate_flight_bundle
from repro.obs.flight import (
    DUMP_TRIGGERS,
    FLIGHT_SCHEMA,
    SLO_TRIGGER,
    FlightRecorder,
    TeeMetrics,
    TeeTracer,
    read_bundle,
    render_bundle,
)
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer


class _Err(Exception):
    pass


class DeviceFault(_Err):
    pass


class DeviceOOM(_Err):
    pass


class KernelTimeout(_Err):
    pass


class DeadlineExceeded(_Err):
    pass


class CompilerBug(_Err):
    """Not a dump trigger: compiler bugs are reproducible offline."""


def _finish_one(recorder, request_id, error=None, latency_us=1_000.0,
                status=None):
    with recorder.capture(request_id, program="p") as record:
        get_tracer().complete("kernel:k0", "kernel", ts_us=0.0, dur_us=5.0,
                              track="gpu")
        get_metrics().counter("test.launches").inc()
        recorder.finish(
            record,
            status=status or ("error" if error is not None else "ok"),
            latency_us=latency_us,
            error=error,
            lane="interactive",
            backend="jit",
            rungs=["jit"],
            queue_wait_us=10.0,
            cache_hit=True,
        )
    return record


class TestTeeTracer:
    def test_spans_land_locally_and_in_mirror(self):
        mirror = Tracer()
        tee = TeeTracer(mirror=mirror)
        with tee.span("work", "test"):
            pass
        assert [s.name for s in tee.spans] == ["work"]
        assert [s.name for s in mirror.spans] == ["work"]

    def test_mirror_timestamps_are_offset_into_mirror_epoch(self):
        mirror = Tracer()
        with mirror.span("earlier", "test"):
            pass
        tee = TeeTracer(mirror=mirror)
        with tee.span("later", "test"):
            pass
        local = next(s for s in tee.spans if s.name == "later")
        mirrored = next(s for s in mirror.spans if s.name == "later")
        # Local capture starts near zero; the mirror sees wall order.
        assert mirrored.ts_us >= local.ts_us
        earlier = next(s for s in mirror.spans if s.name == "earlier")
        assert mirrored.ts_us >= earlier.ts_us

    def test_simulated_clock_spans_mirror_unchanged(self):
        mirror = Tracer()
        tee = TeeTracer(mirror=mirror)
        tee.complete("kernel:k", "kernel", ts_us=123.0, dur_us=7.0,
                     track="gpu")
        assert mirror.spans[-1].ts_us == 123.0
        assert mirror.spans[-1].dur_us == 7.0

    def test_disabled_mirror_is_dropped(self):
        tee = TeeTracer(mirror=get_tracer())  # ambient NullTracer
        with tee.span("work", "test"):
            pass
        assert [s.name for s in tee.spans] == ["work"]


class TestTeeMetrics:
    def test_updates_land_locally_and_in_mirror(self):
        mirror = MetricsRegistry()
        tee = TeeMetrics(mirror=mirror)
        tee.counter("c").inc(3)
        tee.gauge("g").set(7.0)
        tee.histogram("h").observe(1.0)
        assert tee.counter("c").value == 3
        assert mirror.counter("c").value == 3
        assert mirror.gauge("g").value == 7.0
        assert mirror.histogram("h").count == 1

    def test_snapshot_is_request_local(self):
        mirror = MetricsRegistry()
        mirror.counter("global.only").inc()
        tee = TeeMetrics(mirror=mirror)
        tee.counter("local").inc()
        snap = tee.snapshot()
        assert "local" in snap["counters"]
        assert "global.only" not in snap["counters"]


class TestRingEviction:
    def test_ring_keeps_newest_and_counts_evictions(self, tmp_path):
        recorder = FlightRecorder(capacity=3, dump_dir=str(tmp_path))
        for i in range(5):
            _finish_one(recorder, f"r{i}")
        held = [r.request_id for r in recorder.records()]
        assert held == ["r2", "r3", "r4"]  # oldest first
        stats = recorder.stats()
        assert stats["occupancy"] == 3
        assert stats["completed"] == 5
        assert stats["evicted"] == 2

    def test_capacity_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0, dump_dir=str(tmp_path))

    def test_concurrent_hammer_never_corrupts_the_ring(self, tmp_path):
        threads_n, per_thread = 8, 200
        recorder = FlightRecorder(capacity=16, dump_dir=str(tmp_path))
        barrier = threading.Barrier(threads_n)
        errors = []

        def work(tid):
            barrier.wait()
            try:
                for k in range(per_thread):
                    _finish_one(recorder, f"t{tid}-r{k}")
            except Exception as e:  # surfaced below
                errors.append(e)

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        stats = recorder.stats()
        total = threads_n * per_thread
        assert stats["completed"] == total
        assert stats["occupancy"] == 16
        assert stats["evicted"] == total - 16
        assert len(recorder.records()) == 16

    def test_shed_requests_are_counted_not_ringed(self, tmp_path):
        recorder = FlightRecorder(capacity=4, dump_dir=str(tmp_path))
        recorder.note_shed("nope")
        assert recorder.stats()["shed"] == 1
        assert recorder.records() == []


class TestDumpTriggers:
    @pytest.mark.parametrize(
        "exc_cls", [DeviceFault, DeviceOOM, KernelTimeout, DeadlineExceeded]
    )
    def test_each_terminal_error_class_dumps_one_bundle(
        self, tmp_path, exc_cls
    ):
        assert exc_cls.__name__ in DUMP_TRIGGERS
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        record = _finish_one(
            recorder, f"req-{exc_cls.__name__}", error=exc_cls("boom")
        )
        assert record.dump_trigger == exc_cls.__name__
        assert record.dump_path is not None
        bundle = read_bundle(record.dump_path)
        assert validate_flight_bundle(bundle) == []
        assert bundle["schema"] == FLIGHT_SCHEMA
        assert bundle["error"] == exc_cls.__name__
        assert bundle["error_message"] == "boom"
        assert recorder.stats()["dumps"] == 1

    def test_non_terminal_error_does_not_dump(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        record = _finish_one(recorder, "req-bug", error=CompilerBug("oops"))
        assert record.dump_trigger is None
        assert record.dump_path is None
        assert recorder.stats()["dumps"] == 0
        assert list(tmp_path.iterdir()) == []

    def test_clean_fast_request_does_not_dump(self, tmp_path):
        recorder = FlightRecorder(
            capacity=8, dump_dir=str(tmp_path), slo_latency_us=10_000.0
        )
        record = _finish_one(recorder, "fast", latency_us=500.0)
        assert record.dump_trigger is None
        assert list(tmp_path.iterdir()) == []

    def test_slo_breach_dumps_even_on_success(self, tmp_path):
        recorder = FlightRecorder(
            capacity=8, dump_dir=str(tmp_path), slo_latency_us=10_000.0
        )
        record = _finish_one(recorder, "slow", latency_us=25_000.0)
        assert record.dump_trigger == SLO_TRIGGER
        bundle = read_bundle(record.dump_path)
        assert validate_flight_bundle(bundle) == []
        assert bundle["status"] == "ok"
        assert bundle["trigger"] == SLO_TRIGGER

    def test_a_missing_dump_dir_is_created(self, tmp_path):
        # A recorder is usable wherever it is pointed, not only where
        # someone ran mkdir first.
        target = tmp_path / "new" / "dir"
        recorder = FlightRecorder(capacity=8, dump_dir=str(target))
        record = _finish_one(recorder, "req", error=DeviceFault("x"))
        assert recorder.stats()["dump_failures"] == 0
        assert [p.name for p in target.iterdir()] == ["flightrec-req.json"]
        assert validate_flight_bundle(read_bundle(record.dump_path)) == []

    def test_dump_failure_is_counted_never_raised(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("file, not directory")
        recorder = FlightRecorder(capacity=8, dump_dir=str(target))
        record = _finish_one(recorder, "req", error=DeviceFault("x"))
        assert record.dump_path is None
        assert recorder.stats()["dump_failures"] == 1

    def test_run_id_is_sanitized_in_filename(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        record = _finish_one(
            recorder, "a/b c!@#", error=DeviceFault("x")
        )
        assert record.dump_path is not None
        assert "/b" not in record.dump_path.split("flightrec-", 1)[1]
        assert (tmp_path / "flightrec-a_b_c___.json").exists()


class TestBundle:
    def test_bundle_is_joinable_on_run_id(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        with recorder.capture("join-me", program="p") as record:
            get_metrics().counter("runtime.attempts", run_id="join-me").inc()
            recorder.finish(
                record,
                status="error",
                latency_us=1.0,
                error=DeviceFault("x"),
                run_report={"run_id": "join-me", "attempts": 1},
            )
        bundle = recorder.bundle(record)
        assert validate_flight_bundle(bundle) == []
        assert bundle["run_id"] == "join-me"
        assert bundle["trace"]["otherData"]["run_id"] == "join-me"
        assert bundle["metrics"]["metadata"]["run_id"] == "join-me"
        assert bundle["run_report"]["run_id"] == "join-me"

    def test_bundle_is_json_serializable(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        record = _finish_one(recorder, "req")
        json.dumps(recorder.bundle(record))

    def test_validator_rejects_mismatched_run_ids(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        record = _finish_one(recorder, "req")
        bundle = recorder.bundle(record)
        bundle["run_report"] = {"run_id": "someone-else"}
        assert any("run_report" in e for e in validate_flight_bundle(bundle))
        bundle = recorder.bundle(record)
        bundle["trace"]["otherData"]["run_id"] = "someone-else"
        assert any("trace" in e for e in validate_flight_bundle(bundle))

    def test_validator_rejects_structural_problems(self):
        assert validate_flight_bundle([]) == ["top level must be an object"]
        errs = validate_flight_bundle({"schema": "nope"})
        assert any("unknown schema" in e for e in errs)
        assert any("missing field" in e for e in errs)
        errs = validate_flight_bundle(
            {
                "schema": FLIGHT_SCHEMA,
                "run_id": "",
                "status": "exploded",
                "trigger": 7,
                "trace": {},
                "metrics": {},
            }
        )
        assert any("run_id" in e for e in errs)
        assert any("bad status" in e for e in errs)
        assert any("trigger" in e for e in errs)


class TestRenderBundle:
    def test_render_covers_the_story(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        with recorder.capture("req-render", program="myprog") as record:
            get_tracer().complete(
                "kernel:map_1", "kernel", ts_us=0.0, dur_us=50.0, track="gpu"
            )
            get_tracer().instant("breaker:jit opened", "serve")
            get_metrics().counter("runtime.attempts").inc()
            recorder.finish(
                record,
                status="error",
                latency_us=2_000.0,
                error=DeviceFault("bad launch"),
                run_report={
                    "run_id": "req-render",
                    "attempts": 2,
                    "retries": 1,
                    "events": ["fault at k0"],
                },
                lane="interactive",
                backend="",
                rungs=["jit", "sim"],
                queue_wait_us=100.0,
                cache_hit=False,
            )
        text = render_bundle(recorder.bundle(record))
        assert "req-render" in text
        assert "myprog" in text
        assert "DeviceFault" in text
        assert "bad launch" in text
        assert "jit -> sim" in text
        assert "kernel:map_1" in text
        assert "breaker:jit opened" in text
        assert "runtime.attempts" in text
        assert "fault at k0" in text
