"""Server behaviour: admission, degradation, deadlines, health surfaces."""

import collections
import threading
import time

import pytest

from repro.core.prim import F32
from repro.core.values import array_value, values_equal
from repro.errors import (
    ArgumentError,
    DeadlineExceeded,
    DeviceFault,
    ReproError,
    ServiceOverloaded,
)
from repro.frontend.parser import parse
from repro.gpu.device import NVIDIA_GTX780TI
from repro.gpu.faults import broken_device
from repro.interp import run_program
from repro.pipeline import ArtifactCache, CompilerOptions
from repro.runtime import DEFAULT_EXECUTOR, ExecutionPolicy
from repro.serve import (
    BreakerState,
    Server,
    ServeRequest,
)
from repro.serve.queue import AdmissionQueue
from tests.helpers import tune

MAP_SRC = r"fun main (xs: [n]f32): [n]f32 = map (\(x: f32) -> x + 1.0f32) xs"


@pytest.fixture(scope="module")
def prog():
    return parse(MAP_SRC)


def xs(*vals):
    return [array_value(list(vals), F32)]


class TestHappyPath:
    def test_submit_and_result(self, prog):
        with Server(queue_capacity=8) as s:
            r = s.call(ServeRequest(prog, xs(1.0, 2.0, 3.0)), timeout=30)
        assert r.ok
        assert r.backend == "jit"
        expected = run_program(prog, xs(1.0, 2.0, 3.0))
        assert values_equal(r.values[0], expected[0])

    def test_results_match_interpreter(self, prog):
        with Server(queue_capacity=16) as s:
            s.load(prog)
            inputs = [xs(*(float(i + k) for k in range(4))) for i in range(8)]
            handles = [s.submit(ServeRequest(prog, a)) for a in inputs]
            for a, h in zip(inputs, handles):
                r = h.result(timeout=30)
                assert r.ok, r.error
                expected = run_program(prog, a)
                assert values_equal(r.values[0], expected[0])

    def test_compile_cached_across_requests(self, prog):
        with Server(queue_capacity=8) as s:
            s.call(ServeRequest(prog, xs(1.0)), timeout=30)
            s.call(ServeRequest(prog, xs(2.0)), timeout=30)
            stats = s.cache.stats
        assert stats.misses == 1
        assert stats.hits >= 1

    def test_executor_preference_respected(self, prog):
        with Server(queue_capacity=8) as s:
            r = s.call(
                ServeRequest(prog, xs(1.0, 2.0), executor="sim"), timeout=30
            )
        assert r.ok
        assert r.backend == "sim"

    def test_raise_for_status_passthrough(self, prog):
        with Server(queue_capacity=8) as s:
            r = s.call(ServeRequest(prog, xs(1.0)), timeout=30)
        assert r.raise_for_status() is r


class TestShedding:
    def test_queue_full_sheds_with_typed_error(self, prog):
        # Workers never started: the queue only fills.
        s = Server(queue_capacity=2)
        try:
            s.load(prog)
            handles = [
                s.submit(ServeRequest(prog, xs(1.0))) for _ in range(4)
            ]
            results = [h.result(timeout=5) for h in handles[2:]]
            for r in results:
                assert r.status == "shed"
                assert isinstance(r.error, ServiceOverloaded)
                assert r.error.capacity == 2
                with pytest.raises(ServiceOverloaded):
                    r.raise_for_status()
        finally:
            s.stop()

    def test_full_queue_sheds_before_compiling(self, prog):
        from repro.core import ast as A

        s = Server(queue_capacity=1)
        try:
            s.load(prog)
            admitted = s.submit(ServeRequest(prog, xs(1.0)))
            assert not admitted.done()  # queued: the queue is now full
            misses_before = s.cache.stats.misses
            # A never-seen program: admitting it would cost a compile.
            # An overloaded server must refuse *before* paying it.
            r = s.submit(ServeRequest(A.Prog(funs=()), [])).result(
                timeout=5
            )
            assert r.status == "shed"
            assert isinstance(r.error, ServiceOverloaded)
            assert s.cache.stats.misses == misses_before  # no compile
        finally:
            s.stop()

    def test_pending_failed_on_shutdown(self, prog):
        s = Server(queue_capacity=4)
        s.load(prog)
        handles = [s.submit(ServeRequest(prog, xs(1.0))) for _ in range(3)]
        s.stop()
        for h in handles:
            r = h.result(timeout=5)
            assert r.status == "shed"
            assert "shutting down" in str(r.error)

    def test_submit_after_stop_sheds(self, prog):
        s = Server(queue_capacity=4)
        s.start()
        s.load(prog)
        s.stop()
        r = s.submit(ServeRequest(prog, xs(1.0))).result(timeout=5)
        assert r.status == "shed"


class TestWorkers:
    @pytest.mark.parametrize("n_devices", [1, 2, 4])
    def test_one_worker_per_device_blocks_until_work_arrives(
        self, n_devices, monkeypatch
    ):
        """A started server has one worker per device, and an idle
        worker waits inside one ``take`` instead of polling."""
        takes = collections.Counter()
        real_take = AdmissionQueue.take

        def spy(queue, *args, **kwargs):
            takes[threading.current_thread().name] += 1
            return real_take(queue, *args, **kwargs)

        monkeypatch.setattr(AdmissionQueue, "take", spy)
        before = set(threading.enumerate())
        s = Server(devices=[NVIDIA_GTX780TI] * n_devices).start()
        try:
            started = set(threading.enumerate()) - before
            workers = {
                t.name for t in started
                if t.name.startswith("repro-serve-worker-")
            }
            assert workers == {
                f"repro-serve-worker-{i}" for i in range(n_devices)
            }
            assert s.health()["workers"] == n_devices
            time.sleep(0.5)
            assert takes == {name: 1 for name in workers}
        finally:
            t0 = time.monotonic()
            s.stop(timeout=5.0)
            stopped_in = time.monotonic() - t0
        assert stopped_in < 5.0
        assert not any(t.is_alive() for t in started)


class TestLanes:
    def test_array_dimensions_price_the_lane(self):
        """Regression: admission bound only integral *scalar*
        arguments, so every array dimension priced as 1 and N-body at
        its full n = 10^5 (136 ms of simulated work) rode the
        interactive lane at an estimate of 35 us."""
        import numpy as np

        from repro.bench.suite import BENCHMARKS

        spec = BENCHMARKS["N-body"]
        prog = spec.program()
        rng = np.random.default_rng(0)
        s = Server(queue_capacity=4)  # unstarted: admit, never execute
        try:
            s.load(prog)
            s.submit(ServeRequest(prog, spec.small_args(rng)))
            assert s.queue.depths() == {"interactive": 1, "batch": 0}
            s.submit(ServeRequest(prog, spec.args_at(rng, spec.dataset.full)))
            assert s.queue.depths() == {"interactive": 1, "batch": 1}
            # Priced once per (program, sizes), on the program itself.
            s.submit(ServeRequest(prog, spec.small_args(rng)))
            host = s.cache.peek(s.load(prog).key).host
            assert len(host.price_cache) == 2
        finally:
            s.stop()


class TestDeadlines:
    def test_hopeless_deadline_is_typed(self, prog):
        with Server(queue_capacity=8) as s:
            s.load(prog)
            r = s.call(
                ServeRequest(prog, xs(1.0), deadline_ms=0.0), timeout=30
            )
        assert r.status == "deadline"
        assert isinstance(r.error, DeadlineExceeded)

    def test_generous_deadline_succeeds(self, prog):
        with Server(queue_capacity=8) as s:
            s.load(prog)
            r = s.call(
                ServeRequest(prog, xs(1.0, 2.0), deadline_ms=30_000),
                timeout=60,
            )
        assert r.ok, r.error

    def test_deadline_counted_in_health(self, prog):
        with Server(queue_capacity=8) as s:
            s.load(prog)
            s.call(ServeRequest(prog, xs(1.0), deadline_ms=0.0), timeout=30)
            health = s.health()
        assert health["deadline_exceeded"] == 1


class TestErrors:
    def test_program_error_is_typed_and_does_not_trip_breaker(self, prog):
        with Server(queue_capacity=8) as s:
            # Wrong arity: an ArgumentError on *every* backend — the
            # caller's fault, not the device's.
            r = s.call(ServeRequest(prog, []), timeout=30)
            assert r.status == "error"
            assert isinstance(r.error, ReproError)
            breaker = s.pool.devices[0].breaker
            assert breaker.state is BreakerState.CLOSED
            assert breaker.trips == 0

    def test_parse_failure_surfaces_as_error(self):
        bad = parse(MAP_SRC)  # valid program...
        with Server(queue_capacity=8) as s:
            # ...but a poisoned cache key build: simulate by submitting
            # a program whose compile raises (empty program has no main).
            from repro.core import ast as A

            empty = A.Prog(funs=())
            r = s.call(ServeRequest(empty, []), timeout=30)
        assert r.status == "error"
        assert r.error is not None


class TestDegradation:
    def test_broken_jit_backend_is_served_by_interp(self, prog):
        with tune(
            Server(queue_capacity=16, fault_plans=[broken_device(seed=3)]),
            retries=1,
            breaker=dict(failure_threshold=2, recovery_s=60.0),
        ) as s:
            s.load(prog)
            handles = [
                s.submit(ServeRequest(prog, xs(1.0, 2.0))) for _ in range(6)
            ]
            results = [h.result(timeout=60) for h in handles]
            # The breaker guards the device, not the executor: once a
            # broken jit has tripped it, a sim request is refused too.
            on_sim = s.call(
                ServeRequest(prog, xs(1.0, 2.0), executor="sim"), timeout=60
            )
            health = s.health()
        expected = run_program(prog, xs(1.0, 2.0))
        for r in results + [on_sim]:
            assert r.ok, r.error
            # One plan: the device, else the interpreter — never sim.
            assert r.backend == "interp"
            assert r.run_report.backend == "interp"
            assert r.run_report.fallbacks == 1
            assert r.degraded_from == [r.run_report.abandoned]
            assert values_equal(r.values[0], expected[0])
        assert set(health["breakers"]) == {"dev0"}
        assert health["breakers"]["dev0"]["trips"] >= 1
        # Pre-trip requests record the fault that ended the device
        # step, post-trip ones the skip.
        trails = {d for r in results for d in r.degraded_from}
        assert trails == {"jit:DeviceFault", "jit:open"}
        skipped = [r for r in results if r.degraded_from == ["jit:open"]]
        assert all(r.run_report.attempts == 0 for r in skipped)
        assert on_sim.degraded_from == ["sim:open"]
        assert on_sim.run_report.attempts == 0

    def test_program_error_during_probe_does_not_wedge_breaker(self, prog):
        # Regression: a half-open probe that dies of a *program* error
        # (or deadline) used to leave the probe slot held forever,
        # permanently refusing the rung.  The neutral outcome must
        # release the slot so the next request can probe.
        with tune(
            Server(queue_capacity=8, fault_plans=[broken_device(seed=7)]),
            retries=0,
            # Open resolves to half-open at once.
            breaker=dict(failure_threshold=1, recovery_s=0.0),
        ) as s:
            s.load(prog)
            breaker = s.pool.devices[0].breaker
            first = s.call(ServeRequest(prog, xs(1.0)), timeout=60)
            assert first.ok, first.error
            assert breaker.trips >= 1
            # Burn the half-open probe on a request with a caller
            # error (wrong arity): neutral outcome for the device.
            bad = s.call(ServeRequest(prog, []), timeout=60)
            assert bad.status == "error"
            assert breaker.state is BreakerState.HALF_OPEN
            # Heal the device: the very next request must win a fresh
            # probe and succeed on jit instead of being refused.
            s.pool.devices[0].fault_plan = None
            healed = s.call(ServeRequest(prog, xs(2.0)), timeout=60)
            assert healed.ok, healed.error
            assert healed.backend == "jit"
            assert breaker.state is BreakerState.CLOSED

    def test_interp_floor_when_everything_is_broken(self, prog):
        expected = run_program(prog, xs(1.0, 5.0))
        with tune(
            Server(queue_capacity=8, fault_plans=[broken_device(seed=1)]),
            retries=1,
            # Open resolves to half-open at once: every request probes
            # the device on the executor it asked for.
            breaker=dict(failure_threshold=1, recovery_s=0.0),
        ) as s:
            s.load(prog)
            # Whichever executor a request asks for, its floor is the
            # interpreter — a broken jit never degrades *to* sim.
            for executor in (None, "jit", "sim", "sim"):
                r = s.call(
                    ServeRequest(prog, xs(1.0, 5.0), executor=executor),
                    timeout=60,
                )
                assert r.ok, r.error
                assert r.backend == "interp"
                assert r.degraded_from == [
                    f"{executor or 'jit'}:DeviceFault"
                ]
                assert values_equal(r.values[0], expected[0])
            # Each failed probe re-opened the device's one breaker.
            assert s.pool.devices[0].breaker.trips == 4

    def test_no_floor_surfaces_the_device_error(self, prog):
        """``fallback=False``: a terminal device error reaches the
        caller (and the flight recorder) typed, report attached."""
        with tune(
            Server(
                queue_capacity=8,
                fallback=False,
                fault_plans=[broken_device()],
            ),
            retries=1,
        ) as s:
            assert tuple(s.ladder) == ("jit",)
            r = s.call(ServeRequest(prog, xs(1.0)), timeout=60)
        assert r.status == "error" and r.backend is None
        assert isinstance(r.error, DeviceFault)
        assert r.error.report.attempts == 2
        assert r.degraded_from == ["jit:DeviceFault"]


class TestJitRung:
    def test_jit_request_serves_on_jit_backend(self, prog):
        """``executor="jit"`` runs the request on the transpiling
        engine; results still match the interpreter."""
        with Server(queue_capacity=8) as s:
            r = s.call(
                ServeRequest(prog, xs(1.0, 2.0), executor="jit"),
                timeout=30,
            )
        assert r.ok, r.error
        assert r.backend == "jit"
        expected = run_program(prog, xs(1.0, 2.0))
        assert values_equal(r.values[0], expected[0])

    @pytest.mark.parametrize("executor", [None, "jit", "sim"])
    def test_a_request_starts_on_its_executor_or_the_default(
        self, prog, executor
    ):
        """A request is served on the executor it asks for, and one
        that asks for none on ``DEFAULT_EXECUTOR`` (jit): the executor
        is not a compile option."""
        assert DEFAULT_EXECUTOR == "jit"
        with Server(queue_capacity=8) as s:
            assert s.default_executor == DEFAULT_EXECUTOR
            assert tuple(s.ladder) == (DEFAULT_EXECUTOR, "interp")
            r = s.call(
                ServeRequest(prog, xs(1.0), executor=executor), timeout=30
            )
        assert r.ok
        assert r.backend == (executor or DEFAULT_EXECUTOR)
        assert not r.degraded_from

    def test_jit_warm_restart_skips_transpilation(self, prog, tmp_path):
        """A restarted server with the same artifact dir loads the
        persisted generated source and transpiles nothing."""
        from repro.obs import metering

        with metering() as m:
            with Server(
                queue_capacity=8, artifact_cache=ArtifactCache(tmp_path)
            ) as s:
                r = s.call(
                    ServeRequest(prog, xs(1.0), executor="jit"), timeout=30
                )
                assert r.ok and r.backend == "jit"
        cold = m.snapshot()["counters"]
        assert sum(
            v for k, v in cold.items() if k.startswith("jit.transpiles")
        ) > 0
        with metering() as m:
            with Server(
                queue_capacity=8, artifact_cache=ArtifactCache(tmp_path)
            ) as s:
                r = s.call(
                    ServeRequest(prog, xs(1.0), executor="jit"), timeout=30
                )
                assert r.ok and r.backend == "jit"
        warm = m.snapshot()["counters"]
        assert sum(
            v for k, v in warm.items() if k.startswith("jit.transpiles")
        ) == 0
        assert sum(
            v for k, v in warm.items() if k.startswith("jit.kernels")
        ) > 0


class TestHealth:
    def test_health_shape(self, prog):
        with Server(queue_capacity=8) as s:
            s.call(ServeRequest(prog, xs(1.0)), timeout=30)
            h = s.health()
            assert h["workers"] == 1  # one per device
        assert h["queue_capacity"] == 8
        assert h["completed"] == 1
        assert h["admitted"] == 1
        # One device, one breaker: the pool's registry.
        assert set(h["breakers"]) == {"dev0"}
        assert h["breakers"]["dev0"] == h["pool"]["devices"][0]["breaker"]
        assert h["pool"]["devices"][0]["executed"] == 1
        assert h["compile_cache"]["misses"] == 1
        lane = h["lanes"]["interactive"]
        assert lane["count"] == 1
        assert lane["p50_ms"] > 0

    def test_health_is_json_serialisable(self, prog):
        import json

        with Server(queue_capacity=8) as s:
            s.call(ServeRequest(prog, xs(1.0)), timeout=30)
            json.dumps(s.health())

    def test_unknown_executor_is_rejected_at_construction(self, prog):
        with pytest.raises(ArgumentError, match="unknown executor"):
            ExecutionPolicy(executor="tpu")
        with pytest.raises(ArgumentError, match="unknown executor"):
            ServeRequest(prog, xs(1.0), executor="tpu")

    def test_unknown_disabled_pass_is_rejected_at_construction(self):
        """Options no compile can use fail once, where the server is
        built, not as an error result on every request."""
        with pytest.raises(ArgumentError, match="no such pass"):
            Server(options=CompilerOptions(disabled_passes=("nope",)))
        with pytest.raises(ArgumentError, match="mandatory"):
            Server(options=CompilerOptions(disabled_passes=("flatten",)))


class TestArtifactWarmStart:
    def test_restarted_server_resumes_from_artifacts(self, prog, tmp_path):
        """A server restart with the same artifact dir compiles from
        the persisted host artifact instead of rerunning the passes."""
        with Server(queue_capacity=8,
                    artifact_cache=ArtifactCache(tmp_path)) as s1:
            r = s1.call(ServeRequest(prog, xs(1.0, 2.0)), timeout=30)
            assert r.ok
            health = s1.health()
        # The host artifact, and the generated source: the host
        # function and its kernel, stored once, together.
        assert health["artifact_cache"]["stores"] == 2
        assert health["artifact_cache"]["hits"] == 0

        with Server(queue_capacity=8,
                    artifact_cache=ArtifactCache(tmp_path)) as s2:
            r = s2.call(ServeRequest(prog, xs(3.0, 4.0)), timeout=30)
            assert r.ok
            health = s2.health()
            expected = run_program(prog, xs(3.0, 4.0))
            assert values_equal(r.values[0], expected[0])
        # The in-memory compile cache missed (fresh process), but the
        # compile resumed from the on-disk host artifact.
        assert health["compile_cache"]["misses"] == 1
        # compile resumed from the on-disk host artifact, and the jit
        # loaded its source instead of transpiling.
        assert health["artifact_cache"]["hits"] == 2
        assert health["artifact_cache"]["stores"] == 0

    def test_no_artifact_cache_no_health_entry(self, prog):
        with Server(queue_capacity=8) as s:
            s.call(ServeRequest(prog, xs(1.0)), timeout=30)
            health = s.health()
        assert "artifact_cache" not in health
