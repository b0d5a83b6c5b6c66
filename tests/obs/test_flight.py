"""The flight recorder in isolation: the capture window and the
ambient tracer's absorption of it, per-request metrics, ring eviction
(including under a concurrent hammer), dump triggers per terminal error
class, bundle validation and terminal replay."""

import json
import threading

import pytest

from repro.obs import Tracer
from repro.obs.export import validate_flight_bundle
from repro.obs.flight import (
    DUMP_TRIGGERS,
    FLIGHT_SCHEMA,
    SLO_TRIGGER,
    FlightRecorder,
    read_bundle,
    render_bundle,
)
from repro.obs.metrics import fold
from repro.obs.trace import get_tracer, tracing
from repro.runtime import RunReport
from repro.serve import ServeResult


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


def _result(request_id, error=None, latency_us=1.0, lane="batch",
            **report):
    """A finished request as the server hands it to the recorder; the
    ``report`` fields (``backend``, ``abandoned``, ...) make its
    :class:`RunReport`."""
    return ServeResult(
        request_id,
        "error" if error is not None else "ok",
        error=error,
        lane=lane,
        latency_s=latency_us / 1e6,
        run_report=(
            RunReport("gpu", run_id=request_id, **report) if report else None
        ),
    )


def _finish_one(recorder, request_id, error=None, latency_us=1_000.0):
    with recorder.capture(request_id, program="p") as record:
        get_tracer().complete("kernel:k0", "kernel", ts_us=0.0, dur_us=5.0,
                              track="gpu")
    recorder.finish(
        record,
        _result(request_id, error, latency_us, lane="interactive",
                backend="jit"),
        queue_wait_us=10.0,
        cache_hit=True,
    )
    return record


def _records(tracer):
    return tracer.spans + tracer.instants + tracer.counters


class TestCaptureWindow:
    def test_spans_land_in_the_capture_and_the_ambient_tracer(self):
        recorder = FlightRecorder()
        with tracing() as ambient:
            with recorder.capture("r") as record:
                with get_tracer().span("work", "test"):
                    pass
        assert [s.name for s in record.tracer.spans] == ["work"]
        assert [s.name for s in ambient.spans] == ["work"]

    def test_absorbed_spans_follow_the_ambient_tracers_in_wall_order(self):
        recorder = FlightRecorder()
        with tracing() as ambient:
            with ambient.span("earlier", "test"):
                pass
            with recorder.capture("r") as record:
                with get_tracer().span("later", "test"):
                    pass
        earlier, later = ambient.spans
        assert (earlier.name, later.name) == ("earlier", "later")
        # One epoch: the capture's timestamps are the ambient tracer's.
        assert later.ts_us >= earlier.ts_us + earlier.dur_us
        assert record.tracer.spans == [later]

    def test_simulated_clock_spans_and_counters_keep_their_timestamps(self):
        recorder = FlightRecorder()
        with tracing() as ambient:
            with recorder.capture("r"):
                get_tracer().complete("kernel:k", "kernel", ts_us=123.0,
                                      dur_us=7.0, track="gpu")
                get_tracer().counter("gpu.mem", 64.0, ts_us=130.0,
                                     track="gpu")
        (span,) = ambient.spans
        assert (span.ts_us, span.dur_us, span.track) == (123.0, 7.0, "gpu")
        (counter,) = ambient.counters
        assert (counter.ts_us, counter.attrs["value"]) == (130.0, 64.0)

    def test_instants_keep_their_track_and_attributes(self):
        recorder = FlightRecorder()
        with tracing() as ambient:
            with recorder.capture("r") as record:
                get_tracer().instant("vm.fallback:k", "vm", track="vm-jit",
                                     kind="jit")
        for tracer in (record.tracer, ambient):
            (inst,) = tracer.instants
            assert inst.track == "vm-jit"
            assert inst.attrs == {"kind": "jit"}

    def test_without_an_ambient_tracer_only_the_capture_records(self):
        recorder = FlightRecorder()
        assert not get_tracer().enabled
        with recorder.capture("r") as record:
            with get_tracer().span("work", "test"):
                pass
        assert [s.name for s in record.tracer.spans] == ["work"]
        assert not get_tracer().enabled

    def test_the_ambient_tracer_holds_each_captured_record_once(self):
        recorder = FlightRecorder()
        with tracing() as ambient:
            get_tracer().instant("before", "test")
            with recorder.capture("r") as record:
                with get_tracer().span("outer", "test"):
                    with get_tracer().span("inner", "test"):
                        get_tracer().instant("mark", "test")
                get_tracer().complete("kernel:k", "kernel", ts_us=1.0,
                                      dur_us=2.0, track="gpu")
                get_tracer().counter("gpu.mem", 8.0, track="gpu")
                # Nothing reaches the ambient tracer while the window
                # is open.
                assert [s.name for s in _records(ambient)] == ["before"]
        captured = _records(record.tracer)
        assert len(captured) == 5
        ids = [id(s) for s in _records(ambient)]
        assert len(ids) == len(set(ids)) == 6
        for s in captured:
            assert ids.count(id(s)) == 1


class TestBundleMetrics:
    def test_a_bundles_metrics_are_its_own_requests(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        with tracing() as ambient:
            get_tracer().instant("fault:oom", "runtime")
            with recorder.capture("mine", program="p") as record:
                get_tracer().instant("fault:transient", "runtime")
            recorder.finish(record, _result("mine"))
        counters = recorder.bundle(record)["metrics"]["counters"]
        assert counters == {"runtime.faults{kind=transient}": 1.0}
        # Absorbed: the ambient tracer saw the request's event too.
        assert fold(ambient)["counters"] == {
            "runtime.faults{kind=oom}": 1.0,
            "runtime.faults{kind=transient}": 1.0,
        }

    def test_concurrent_captures_keep_their_own_metrics(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        barrier = threading.Barrier(2)
        records = {}

        def serve(kind):
            with recorder.capture(kind, program="p") as record:
                barrier.wait()
                for _ in range(50):
                    get_tracer().instant(f"fault:{kind}", "runtime")
                barrier.wait()
            recorder.finish(record, _result(kind))
            records[kind] = record

        threads = [
            threading.Thread(target=serve, args=(kind,))
            for kind in ("oom", "timeout")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for kind, record in records.items():
            counters = recorder.bundle(record)["metrics"]["counters"]
            assert counters == {f"runtime.faults{{kind={kind}}}": 50.0}


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
            get_tracer().instant(
                "backoff", "runtime", us=1.0, run_id="join-me"
            )
        recorder.finish(
            record, _result("join-me", DeviceFault("x"), attempts=1)
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
            get_tracer().instant("backoff", "runtime", us=3.0)
        recorder.finish(
            record,
            _result(
                "req-render", DeviceFault("bad launch"), 2_000.0,
                lane="interactive", attempts=2, retries=1,
                events=["fault at k0"], backend="interp",
                abandoned="jit:DeviceFault",
            ),
            queue_wait_us=100.0,
            cache_hit=False,
        )
        text = render_bundle(recorder.bundle(record))
        assert "req-render" in text
        assert "myprog" in text
        assert "DeviceFault" in text
        assert "bad launch" in text
        assert "jit -> interp" in text
        assert "kernel:map_1" in text
        assert "breaker:jit opened" in text
        assert "runtime.retries" in text
        assert "fault at k0" in text

    def test_replay_renders_one_placement_row_per_shard(self):
        """The placement section of ``obs replay``: the plan's line, then
        each shard's rows, device and simulated time — one row a shard,
        since a shard has one live task at a time."""
        placement = {
            "mode": "sharded", "batch_dim": 0, "batch": 512,
            "makespan_us": 300.0,
            "shards": [
                {"index": 0, "lo": 0, "hi": 256, "device": 0,
                 "sim_us": 150.0, "replacements": 0},
                {"index": 1, "lo": 256, "hi": 512, "device": 2,
                 "sim_us": 300.0, "replacements": 1},
            ],
        }
        text = render_bundle({"run_id": "r", "placement": placement})
        lines = text.splitlines()
        at = lines.index("== placement ==")
        assert lines[at + 1:at + 6] == [
            "mode=sharded batch_dim=0 batch=512 makespan=300us",
            "shard  rows       dev  sim",
            "-----  ---------  ---  -----",
            "0      [0:256)    0    150us",
            "1      [256:512)  2    300us",
        ]
