"""Caller-runs: a ``Server.call`` that finds the admission queue empty
and a device slot free runs on the caller's own thread.

The rule keeps every invariant of the queued path: at most one request
runs per device (a slot per device, held by a worker from ``take()`` to
its next ``take()`` or by a caller for its one run); an inline run never
overtakes a queued request; a full queue sheds; ``stop()`` waits for
the calls running on their callers' threads; and an inline request gets
the same span, flight record, counts and error backstop as a queued one.
The stress test takes its interleaving seeds from ``CHAOS_SEEDS``
(default ``0,1,2``; CI's ``chaos`` job runs three more).
"""

import collections
import os
import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.core.prim import F32
from repro.core.values import array_value
from repro.errors import ServiceOverloaded
from repro.frontend.parser import parse
from repro.gpu.device import NVIDIA_GTX780TI
from repro.obs.flight import FlightRecorder
from repro.sched import ShardPlanner
from repro.sched import pool as pool_mod
from repro.serve import Server, ServeRequest
from repro.serve.queue import AdmissionQueue
from tests.helpers import StintSpy, split_friendly, tune

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")]

MAP_SRC = r"fun main (xs: [n]f32): [n]f32 = map (\(x: f32) -> x + 1.0f32) xs"


@pytest.fixture(scope="module")
def prog():
    return parse(MAP_SRC)


def xs(*vals):
    return [array_value(list(vals), F32)]


def _wait_for(cond, timeout=30.0):
    end = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < end, "condition never held"
        time.sleep(0.001)


class _Gate:
    """A spy on the pool's attempt loop that records each run's id and
    thread, and holds the runs named in ``hold`` until ``open()``."""

    def __init__(self, monkeypatch, hold=()):
        self.ran = []
        self.threads = {}
        self.hold = set(hold)
        self.entered = threading.Event()
        self._open = threading.Event()
        real = pool_mod.run_resilient

        def spy(*args, **kwargs):
            run_id = kwargs["run_id"]
            self.ran.append(run_id)
            self.threads[run_id] = threading.current_thread().name
            if run_id.split("/")[0] in self.hold:
                self.entered.set()
                assert self._open.wait(timeout=60)
            return real(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "run_resilient", spy)

    def open(self):
        self._open.set()


def _call_in_thread(server, request, results):
    t = threading.Thread(
        target=lambda: results.append(server.call(request, timeout=60))
    )
    t.start()
    return t


# -- the queue's slots ------------------------------------------------------


def test_a_slot_is_held_from_take_to_the_next_take():
    q = AdmissionQueue(4, slots=1)
    assert q.offer("a") and q.offer("b")
    assert q.take(timeout=0.1) == "a"
    assert q.take(timeout=0.05) is None  # "a" still holds the slot
    assert not q.claim()  # and a caller gets none either
    assert q.take(timeout=0.1, release=True) == "b"


def test_claim_needs_an_empty_open_queue_and_a_free_slot():
    q = AdmissionQueue(4, slots=2)
    assert q.claim()
    assert q.offer("queued")
    assert not q.claim()  # it would overtake "queued"
    assert q.take(timeout=0.1) == "queued"
    assert not q.claim()  # both slots held
    q.release()
    assert q.claim()
    q.close()
    q.release()
    assert not q.claim()  # closed


def test_release_wakes_a_consumer_waiting_for_the_slot():
    q = AdmissionQueue(4, slots=1)
    assert q.claim()
    assert q.offer("x")
    got = []
    t = threading.Thread(target=lambda: got.append(q.take(timeout=30)))
    t.start()
    time.sleep(0.05)
    assert not got  # the caller holds the only slot
    q.release()
    t.join(timeout=30)
    assert got == ["x"]
    assert not q.wait_idle(timeout=0.01)  # the consumer holds it now
    assert q.take(timeout=0.01, release=True) is None
    assert q.wait_idle(timeout=0.01)


# -- one running request per device -----------------------------------------


@pytest.mark.parametrize("n_devices", [1, 2])
@pytest.mark.parametrize("seed", SEEDS)
def test_calls_and_submits_never_share_a_device(
    prog, monkeypatch, n_devices, seed
):
    """8 threads mixing ``call`` and ``submit`` under a fine switch
    interval: no device ever runs two stints at once, and no more
    requests run at once than the server has devices."""
    stints = StintSpy(monkeypatch)
    in_flight = [0]
    peak_requests = [0]
    ran_on = collections.Counter()
    lock = threading.Lock()
    real_execute = Server._execute

    def spy_execute(self, work):
        with lock:
            in_flight[0] += 1
            peak_requests[0] = max(peak_requests[0], in_flight[0])
            ran_on[work.ran_on] += 1
        try:
            return real_execute(self, work)
        finally:
            with lock:
                in_flight[0] -= 1

    monkeypatch.setattr(Server, "_execute", spy_execute)
    rng = random.Random(seed)
    plans = [
        [(rng.random() < 0.5, rng.randint(1, 64)) for _ in range(12)]
        for _ in range(8)
    ]
    results = []

    def client(plan):
        handles = []
        for use_call, n in plan:
            request = ServeRequest(
                prog, [array_value(np.ones(n, np.float32), F32)]
            )
            if use_call:
                results.append(server.call(request, timeout=120))
            else:
                handles.append(server.submit(request))
        results.extend(h.result(timeout=120) for h in handles)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Server(
            devices=[NVIDIA_GTX780TI] * n_devices, queue_capacity=128
        ) as server:
            server.load(prog)
            clients = [
                threading.Thread(target=client, args=(p,)) for p in plans
            ]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=300)
            assert not any(t.is_alive() for t in clients)
            health = server.health()
    finally:
        sys.setswitchinterval(switch_interval)
    assert len(results) == 8 * 12
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    assert health["completed"] == health["admitted"] == len(results)
    assert max(stints.peak.values()) == 1, dict(stints.peak)
    assert 1 <= peak_requests[0] <= n_devices
    assert sum(ran_on.values()) == len(results)
    assert ran_on["worker"] >= sum(not c for p in plans for c, _ in p)


# -- order, shedding, shutdown ----------------------------------------------


def test_a_call_with_the_slot_busy_queues_even_if_the_queue_is_empty(
    prog, monkeypatch
):
    gate = _Gate(monkeypatch, hold={"r0"})
    results = []
    with Server() as server:
        first = _call_in_thread(
            server, ServeRequest(prog, xs(1.0), request_id="r0"), results
        )
        assert gate.entered.wait(timeout=60)
        second = _call_in_thread(
            server, ServeRequest(prog, xs(2.0), request_id="r1"), results
        )
        _wait_for(lambda: len(server.queue) == 1)
        gate.open()
        first.join(timeout=60)
        second.join(timeout=60)
    assert sorted(r.request_id for r in results if r.ok) == ["r0", "r1"]
    assert gate.ran == ["r0", "r1"]
    assert gate.threads["r0"] not in ("MainThread", "repro-serve-worker-0")
    assert gate.threads["r1"] == "repro-serve-worker-0"


def test_a_later_call_queues_behind_a_queued_request(prog, monkeypatch):
    """The device is busy and an interactive request waits: a ``call``
    made now joins the queue behind it, never runs ahead of it."""
    gate = _Gate(monkeypatch, hold={"r0"})
    results = []
    with Server() as server:
        held = server.submit(ServeRequest(prog, xs(1.0), request_id="r0"))
        assert gate.entered.wait(timeout=60)
        queued = server.submit(ServeRequest(prog, xs(2.0), request_id="r1"))
        assert server.queue.depths() == {"interactive": 1, "batch": 0}
        caller = _call_in_thread(
            server, ServeRequest(prog, xs(3.0), request_id="r2"), results
        )
        _wait_for(lambda: server.queue.depths()["interactive"] == 2)
        gate.open()
        caller.join(timeout=60)
        assert held.result(timeout=60).ok and queued.result(timeout=60).ok
    assert [r.request_id for r in results if r.ok] == ["r2"]
    assert gate.ran == ["r0", "r1", "r2"]
    assert gate.threads["r2"] == "repro-serve-worker-0"


def test_a_call_to_a_full_queue_with_the_slot_busy_is_shed(
    prog, monkeypatch
):
    gate = _Gate(monkeypatch, hold={"r0"})
    with Server(queue_capacity=1) as server:
        held = server.submit(ServeRequest(prog, xs(1.0), request_id="r0"))
        assert gate.entered.wait(timeout=60)
        queued = server.submit(ServeRequest(prog, xs(2.0), request_id="r1"))
        r = server.call(ServeRequest(prog, xs(3.0), request_id="r2"))
        assert r.status == "shed"
        assert isinstance(r.error, ServiceOverloaded)
        assert server.health()["shed"] == 1
        gate.open()
        assert held.result(timeout=60).ok and queued.result(timeout=60).ok
        health = server.health()
    assert gate.ran == ["r0", "r1"]
    assert health["shed"] == 1 and health["completed"] == 2


def test_an_unstarted_or_stopping_server_never_runs_a_call_inline(prog):
    server = Server()  # unstarted: a call is admitted and waits
    with pytest.raises(TimeoutError):
        server.call(ServeRequest(prog, xs(1.0)), timeout=0.05)
    assert len(server.queue) == 1
    server.start()
    server.stop()
    r = server.call(ServeRequest(prog, xs(1.0)), timeout=1)
    assert r.status == "shed"


def test_stop_waits_for_an_inline_sharded_call(monkeypatch):
    """A 4-device server splits the call across its devices; ``stop()``
    issued while a shard runs returns only after the call completed,
    which ran shard 0 on the caller's thread and each other shard on a
    thread started for it."""
    spec = BENCHMARKS["Backprop"]
    prog = spec.program()
    args = spec.args_at(np.random.default_rng(9), {"n": 16, "h": 512})
    gate = _Gate(monkeypatch, hold={"sharded"})
    results = []
    server = tune(
        Server(devices=[split_friendly(NVIDIA_GTX780TI)] * 4),
        planner=ShardPlanner(16),
    ).start()
    completed_at_stop = []

    def stop():
        server.stop()
        completed_at_stop.append(server.health()["completed"])

    caller = _call_in_thread(
        server, ServeRequest(prog, args, request_id="sharded"), results
    )
    assert gate.entered.wait(timeout=60)
    stopper = threading.Thread(target=stop)
    stopper.start()
    _wait_for(server._stopping.is_set)
    time.sleep(0.1)
    assert stopper.is_alive() and caller.is_alive()
    gate.open()
    stopper.join(timeout=60)
    caller.join(timeout=60)
    assert not stopper.is_alive() and not caller.is_alive()
    assert completed_at_stop == [1]
    (r,) = results
    assert r.ok, r.error
    assert r.placement["mode"] == "sharded"
    k = len(r.placement["shards"])
    assert k > 1
    assert gate.threads == {
        f"sharded/s{i}": caller.name if i == 0 else f"sharded/s{i}"
        for i in range(k)
    }


# -- the same request, whichever thread runs it -----------------------------


def test_inline_and_queued_requests_count_alike(prog):
    n = 5

    def health(run):
        with Server() as server:
            server.load(prog)
            results = run(server)
            assert all(r.ok for r in results)
            out = server.health()
        return (
            {k: out[k] for k in (
                "admitted", "shed", "completed", "deadline_exceeded",
                "errors",
            )},
            {lane: h["count"] for lane, h in out["lanes"].items()},
            out["compile_cache"],
        )

    def inline(server):
        return [
            server.call(ServeRequest(prog, xs(float(i)))) for i in range(n)
        ]

    def queued(server):
        return [
            server.submit(ServeRequest(prog, xs(float(i)))).result(60)
            for i in range(n)
        ]

    counts, lanes, cache = health(inline)
    assert (counts, lanes, cache) == health(queued)
    assert counts["admitted"] == counts["completed"] == n
    assert sum(lanes.values()) == n


def test_an_inline_flight_record_has_every_field(prog, tmp_path):
    recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
    with Server(flight_recorder=recorder) as server:
        server.load(prog)
        assert server.call(
            ServeRequest(prog, xs(1.0), request_id="inline"), timeout=60
        ).ok
        assert server.submit(
            ServeRequest(prog, xs(1.0), request_id="queued")
        ).result(timeout=60).ok
    records = {r.request_id: r for r in recorder.records()}
    inline, queued = records["inline"], records["queued"]

    def fields(record):
        return {
            k for k, v in vars(record).items()
            if v is not None and k != "tracer"
        } | {
            f"result.{k}" for k, v in vars(record.result).items()
            if v is not None
        }

    assert fields(inline) == fields(queued)
    result = inline.result
    assert result.status == "ok" and result.backend == "jit"
    assert result.degraded_from == [] and inline.cache_hit is True
    assert result.placement["mode"] == "whole"
    assert result.run_report is not None
    assert 0.0 <= inline.queue_wait_us < 10_000.0
    assert inline.queue_wait_us < result.latency_s * 1e6
    bundle = recorder.bundle(inline)
    assert bundle["rungs"] == ["jit"] and bundle["status"] == "ok"

    def ran_on(record):
        (span,) = [
            s for s in record.tracer.spans
            if s.name == f"request:{record.request_id}"
        ]
        return span.attrs["ran_on"]

    assert (ran_on(inline), ran_on(queued)) == ("caller", "worker")


def test_an_exception_in_an_inline_run_is_an_error_result(prog, monkeypatch):
    real = pool_mod.run_resilient

    def boom(*args, **kwargs):
        if kwargs["run_id"] == "boom":
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(pool_mod, "run_resilient", boom)
    with Server() as server:
        r = server.call(ServeRequest(prog, xs(1.0), request_id="boom"))
        assert r.status == "error"
        assert isinstance(r.error, RuntimeError)
        # The slot came back: the next call runs, inline again.
        assert server.call(ServeRequest(prog, xs(1.0)), timeout=60).ok
        health = server.health()
    assert health["errors"] == 1 and health["completed"] == 1


def test_an_interrupt_in_an_inline_run_reaches_the_caller(prog, monkeypatch):
    """Ctrl-C during an inline run interrupts the caller, as it would
    interrupt a wait; the request is still answered and counted, and
    its slot comes back."""
    real = pool_mod.run_resilient

    def interrupted(*args, **kwargs):
        if kwargs["run_id"] == "ctrl-c":
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(pool_mod, "run_resilient", interrupted)
    with Server() as server:
        with pytest.raises(KeyboardInterrupt):
            server.call(ServeRequest(prog, xs(1.0), request_id="ctrl-c"))
        assert server.call(ServeRequest(prog, xs(1.0)), timeout=60).ok
        health = server.health()
    assert health["errors"] == 1 and health["completed"] == 1


def test_call_timeout_bounds_the_wait_not_an_inline_run(prog, monkeypatch):
    real = pool_mod.run_resilient

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return real(*args, **kwargs)

    monkeypatch.setattr(pool_mod, "run_resilient", slow)
    with Server() as server:
        server.load(prog)
        with pytest.raises(TimeoutError):
            server.call(ServeRequest(prog, xs(1.0)), timeout=0.05)
        # The run was not cut short: it completed, and was counted.
        assert server.health()["completed"] == 1
        assert server.call(ServeRequest(prog, xs(1.0)), timeout=60).ok
        health = server.health()
    assert health["completed"] == 2 and health["errors"] == 0
