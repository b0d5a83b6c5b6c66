"""The flight recorder wired into the server: every terminal failure
class produces exactly one valid, joinable bundle; healthy traffic
stays in the ring without dumping."""

import dataclasses

import pytest

from repro.core.prim import F32
from repro.core.values import array_value
from repro.frontend.parser import parse
from repro.gpu.device import NVIDIA_GTX780TI
from repro.gpu.faults import FaultPlan, broken_device
from repro.obs.export import validate_chrome_trace, validate_flight_bundle
from repro.obs.flight import FlightRecorder, read_bundle
from repro.pipeline import CompilerOptions
from repro.serve import Server, ServeRequest
from tests.helpers import tune

MAP_SRC = r"fun main (xs: [n]f32): [n]f32 = map (\(x: f32) -> x + 1.0f32) xs"


@pytest.fixture(scope="module")
def prog():
    return parse(MAP_SRC)


def xs(*vals):
    return [array_value(list(vals), F32)]


def _bundles(tmp_path):
    return sorted(tmp_path.glob("flightrec-*.json"))


def _assert_one_valid_bundle(tmp_path, request_id, error_cls):
    files = _bundles(tmp_path)
    assert len(files) == 1, [f.name for f in files]
    bundle = read_bundle(str(files[0]))
    assert validate_flight_bundle(bundle) == []
    assert validate_chrome_trace(bundle["trace"]) == []
    assert bundle["run_id"] == request_id
    assert bundle["error"] == error_cls
    assert bundle["trigger"] == error_cls
    assert bundle["status"] == "error"
    return bundle


class TestTerminalErrorsDump:
    def test_device_fault_dumps_one_joinable_bundle(self, prog, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        with tune(
            Server(
                queue_capacity=4,
                fallback=False,
                fault_plans=[broken_device()],
                flight_recorder=recorder,
            ),
            retries=1,
        ) as s:
            r = s.call(
                ServeRequest(prog, xs(1.0, 2.0), request_id="req-fault"),
                timeout=60,
            )
        assert not r.ok
        bundle = _assert_one_valid_bundle(tmp_path, "req-fault", "DeviceFault")
        # The trace, metrics and run report all join on the request id.
        assert bundle["trace"]["otherData"]["run_id"] == "req-fault"
        assert bundle["metrics"]["metadata"]["run_id"] == "req-fault"
        assert any(
            "run_id=req-fault" in key
            for key in bundle["metrics"]["counters"]
        )
        assert bundle["run_report"] is not None
        assert bundle["run_report"]["run_id"] == "req-fault"
        assert (
            bundle["run_report"]["transient_faults"]
            + bundle["run_report"]["fatal_faults"]
        ) >= 1
        assert bundle["rungs"] == ["jit"]

    def test_kernel_timeout_dumps(self, prog, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        runaway = FaultPlan(
            seed=0, timeout_rate=1.0, max_consecutive=1_000_000_000
        )
        with tune(
            Server(
                queue_capacity=4,
                fallback=False,
                options=CompilerOptions(executor="sim"),
                fault_plans=[runaway],
                flight_recorder=recorder,
            ),
            retries=1,
        ) as s:
            r = s.call(
                ServeRequest(prog, xs(1.0), request_id="req-timeout"),
                timeout=60,
            )
        assert not r.ok
        _assert_one_valid_bundle(tmp_path, "req-timeout", "KernelTimeout")

    def test_device_oom_dumps(self, prog, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        tiny = dataclasses.replace(NVIDIA_GTX780TI, memory_bytes=8)
        with tune(
            Server(
                queue_capacity=4,
                devices=[tiny],
                fallback=False,
                flight_recorder=recorder,
            ),
            retries=0,
        ) as s:
            r = s.call(
                ServeRequest(prog, xs(*range(64)), request_id="req-oom"),
                timeout=60,
            )
        assert not r.ok
        _assert_one_valid_bundle(tmp_path, "req-oom", "DeviceOOM")

    def test_deadline_exceeded_dumps(self, prog, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        with Server(queue_capacity=4, flight_recorder=recorder) as s:
            r = s.call(
                ServeRequest(
                    prog, xs(1.0), deadline_ms=1e-6, request_id="req-late"
                ),
                timeout=60,
            )
        assert r.status == "deadline"
        files = _bundles(tmp_path)
        assert len(files) == 1
        bundle = read_bundle(str(files[0]))
        assert validate_flight_bundle(bundle) == []
        assert bundle["run_id"] == "req-late"
        assert bundle["trigger"] == "DeadlineExceeded"
        # Expired while queued: never reached the device.
        assert bundle["backend"] == ""
        assert bundle["run_report"]["attempts"] == 0


class TestHealthyTraffic:
    def test_success_is_ringed_but_not_dumped(self, prog, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        with Server(queue_capacity=8, flight_recorder=recorder) as s:
            for i in range(3):
                r = s.call(
                    ServeRequest(prog, xs(float(i)), request_id=f"ok-{i}"),
                    timeout=60,
                )
                assert r.ok, r.error
            health = s.health()
        assert _bundles(tmp_path) == []
        stats = health["flight_recorder"]
        assert stats["completed"] == 3
        assert stats["occupancy"] == 3
        assert stats["dumps"] == 0
        ids = [rec.request_id for rec in recorder.records()]
        assert ids == ["ok-0", "ok-1", "ok-2"]
        rec = recorder.records()[-1]
        assert rec.status == "ok"
        assert rec.backend == "jit"
        assert rec.latency_us > 0
        assert rec.queue_wait_us >= 0
        # The second call of the same program hits the compile cache.
        assert recorder.records()[1].cache_hit is True

    def test_slo_breach_dumps_successful_request(self, prog, tmp_path):
        recorder = FlightRecorder(
            capacity=8, dump_dir=str(tmp_path), slo_latency_us=0.001
        )
        with Server(queue_capacity=4, flight_recorder=recorder) as s:
            r = s.call(
                ServeRequest(prog, xs(1.0), request_id="req-slow"), timeout=60
            )
        assert r.ok
        files = _bundles(tmp_path)
        assert len(files) == 1
        bundle = read_bundle(str(files[0]))
        assert validate_flight_bundle(bundle) == []
        assert bundle["status"] == "ok"
        assert bundle["trigger"] == "slo_latency"

    def test_shed_requests_are_counted(self, prog, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        s = Server(queue_capacity=1, flight_recorder=recorder)  # unstarted
        try:
            s.load(prog)
            s.submit(ServeRequest(prog, xs(1.0)))
            shed = s.submit(ServeRequest(prog, xs(2.0)))
            assert shed.result(timeout=5).status == "shed"
        finally:
            s.stop()
        assert recorder.stats()["shed"] >= 1
        assert _bundles(tmp_path) == []

    def test_health_without_recorder_has_no_flight_section(self, prog):
        with Server(queue_capacity=4) as s:
            s.call(ServeRequest(prog, xs(1.0)), timeout=60)
            health = s.health()
        assert "flight_recorder" not in health
