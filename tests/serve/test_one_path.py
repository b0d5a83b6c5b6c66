"""One serving path: ``Server()`` is a device pool of one.

A request to a one-device server is placed whole on ``dev0`` and run on
the thread holding the device's slot (an idle ``call``'s own, else the
server worker's) — the run the pool returns is the one
``compiled.execute`` would make.  The device's books hold one run at a
time whatever thread runs it (the per-device run lock), so its heap's
lifetime counts every request once and peaks where the largest
standalone run peaks.  The server runs one worker per device, so a
device runs its requests in the order the admission queue hands them
out.
"""

import collections
import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.core.prim import F32
from repro.core.values import array_value, values_equal
from repro.frontend.parser import parse
from repro.gpu.device import NVIDIA_GTX780TI
from repro.pipeline import compile_program
from repro.runtime import EXECUTORS, ExecutionPolicy
from repro.sched import pool as pool_mod
from repro.serve import BreakerState, Server, ServeRequest
from repro.serve.server import INTERACTIVE_THRESHOLD_US
from tests.helpers import StintSpy, tune

NAMES = list(BENCHMARKS.names())


def _case(name):
    spec = BENCHMARKS[name]
    return spec.program(), spec.small_args(np.random.default_rng(0))


@pytest.fixture(scope="module")
def cases():
    return {name: _case(name) for name in NAMES}


@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_served_call_is_the_run_compiled_execute_makes(cases, executor):
    with Server() as server:
        for name in NAMES:
            prog, args = cases[name]
            r = server.call(
                ServeRequest(prog, args, executor=executor), timeout=120
            )
            assert r.ok, f"{name}: {r.error}"
            want, _, _ = compile_program(prog).execute(
                args, policy=ExecutionPolicy(executor=executor)
            )
            assert len(r.values) == len(want), name
            for got, exp in zip(r.values, want):
                assert values_equal(got, exp, rtol=0.0, atol=0.0), name
            assert r.backend == executor and not r.degraded_from, name
            assert r.run_report.attempts == 1, name
            placement = r.placement
            assert placement["mode"] == "whole", name
            assert [s["device"] for s in placement["shards"]] == [0], name


def test_a_one_device_request_runs_on_the_thread_holding_its_slot(
    cases, monkeypatch
):
    """A spy on the device stints records which thread ran each: an
    idle ``call`` runs on the calling thread, a ``submit`` on the server
    worker."""
    stints = StintSpy(monkeypatch)
    prog, args = cases["NN"]
    before = set(threading.enumerate())
    with Server() as server:
        threads = {t.name for t in set(threading.enumerate()) - before}
        assert threads == {"repro-serve-worker-0"}  # the pool has none
        for _ in range(4):
            assert server.call(ServeRequest(prog, args), timeout=60).ok
        me = threading.current_thread().name
        assert stints.runs == [(0, me)] * 4
        stints.runs.clear()
        for _ in range(4):
            h = server.submit(ServeRequest(prog, args))
            assert h.result(timeout=60).ok
    assert stints.runs == [(0, "repro-serve-worker-0")] * 4
    # With two healthy devices an idle call runs on the calling thread
    # too: its whole placement finds its device idle.
    stints.runs.clear()
    with Server(devices=[NVIDIA_GTX780TI] * 2) as server:
        assert server.call(ServeRequest(prog, args), timeout=60).ok
    assert [t for _, t in stints.runs] == [me]


def test_concurrent_requests_take_the_device_one_at_a_time(
    cases, monkeypatch
):
    """``serve_sat``'s shape on two workers that share one device: 2
    clients with 4 requests each in flight, every program four times.
    The server has two devices and a worker each, but ``dev1``'s breaker
    is held open, so both workers run their requests alone on ``dev0``.
    Two runs sharing the device heap at once would fold each other's
    blocks into one peak."""
    stints = StintSpy(monkeypatch)
    peak = max(
        compile_program(prog)
        .execute(args, policy=ExecutionPolicy(executor="jit"))[1]
        .mem_peak_bytes
        for prog, args in cases.values()
    )
    order = NAMES * 2
    results = []

    def client(server, offset):
        in_flight = collections.deque()
        for k in range(len(order)):
            if len(in_flight) == 4:
                results.append(in_flight.popleft().result(timeout=120))
            prog, args = cases[order[(k + offset) % len(order)]]
            in_flight.append(server.submit(ServeRequest(prog, args)))
        results.extend(h.result(timeout=120) for h in in_flight)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the workers finely
    try:
        with tune(
            Server(devices=[NVIDIA_GTX780TI] * 2, queue_capacity=16),
            breaker=dict(recovery_s=3600.0),
        ) as server:
            dev1 = server.pool.devices[1].breaker
            for _ in range(dev1.failure_threshold):
                dev1.record_failure()
            assert dev1.state is BreakerState.OPEN
            for prog, _ in cases.values():
                server.load(prog)
            clients = [
                threading.Thread(target=client, args=(server, 8 * c))
                for c in range(2)
            ]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=300)
            assert not any(t.is_alive() for t in clients)
            health = server.health()
    finally:
        sys.setswitchinterval(switch_interval)
    assert len(results) == 2 * len(order)
    assert all(r.ok and r.backend == "jit" for r in results)
    # Both server workers ran requests, every one of them on dev0.
    assert {t for _, t in stints.runs} == {
        "repro-serve-worker-0", "repro-serve-worker-1"
    }
    assert {d for d, _ in stints.runs} == {0}
    assert all(r.placement["shards"][0]["device"] == 0 for r in results)
    life = health["pool"]["devices"][0]["heap_lifetime"]
    assert life["runs"] == health["completed"] == len(results)
    assert life["peak_bytes"] == peak


SMALL_SRC = r"fun main (xs: [n]f32): [n]f32 = map (\(x: f32) -> x + 1.0f32) xs"
LARGE_SRC = r"""fun main (xs: [n]f32): [n]f32 =
  let s = reduce (\(a: f32) (b: f32) -> a + b) 0.0f32 xs
  in map (\(x: f32) -> x / s) xs"""


def test_a_device_runs_requests_in_admission_order(monkeypatch):
    """One worker per device: the device runs what the admission queue
    hands out, in its order — every interactive request first, then
    every batch request, FIFO within each lane."""
    ran = []
    real = pool_mod.run_resilient

    def spy(*args, **kwargs):
        ran.append(kwargs["run_id"])
        return real(*args, **kwargs)

    monkeypatch.setattr(pool_mod, "run_resilient", spy)
    # Each launch is priced at 0.6x the lane threshold: the one-kernel
    # program rides the interactive lane, the two-kernel one the batch.
    device = dataclasses.replace(
        NVIDIA_GTX780TI, launch_overhead_us=0.6 * INTERACTIVE_THRESHOLD_US
    )
    small, large = parse(SMALL_SRC), parse(LARGE_SRC)
    args = [array_value([1.0, 2.0, 3.0], F32)]
    server = Server(devices=[device])  # unstarted: admit only
    handles = [
        server.submit(ServeRequest(prog, args, request_id=f"r{i}"))
        for i, prog in enumerate([large, small, large, small, small, large])
    ]
    # r1, r3, r4 interactive; r0, r2, r5 batch.
    assert server.queue.depths() == {"interactive": 3, "batch": 3}
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave any competing workers
    try:
        with server:
            results = [h.result(timeout=60) for h in handles]
    finally:
        sys.setswitchinterval(switch_interval)
    assert all(r.ok for r in results), [r.error for r in results]
    assert ran == ["r1", "r3", "r4", "r0", "r2", "r5"]
