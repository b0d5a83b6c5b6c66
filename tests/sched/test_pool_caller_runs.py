"""Caller-runs on any pool: a whole placement whose device is idle runs
on the thread that called :meth:`DevicePool.run`.

The device is claimed atomically, so two callers never both run on the
same idle one; a task on a busy device, and every shard of a split,
still goes to the device workers.  A device error on the caller's run
is re-placed by the same coordinator loop a worker's would be.  The stress test takes its
interleaving seeds from ``CHAOS_SEEDS`` (default ``0,1,2``; CI's
``chaos`` job runs three more).
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
from repro.core.values import values_equal
from repro.errors import DeadlineExceeded
from repro.gpu.device import NVIDIA_GTX780TI
from repro.gpu.faults import FaultPlan
from repro.obs import Tracer, thread_tracing
from repro.pipeline import compile_cache_key, compile_program
from repro.runtime import ExecutionPolicy, run_resilient
from repro.sched import DevicePool, ShardPlanner, analyze_shardable
from repro.sched import pool as pool_mod
from repro.serve import BreakerState, Deadline
from tests.helpers import split_friendly, tune

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")]

#: Every launch on the device fails, forever.
BROKEN = FaultPlan(seed=0, launch_failure_rate=1.0, max_consecutive=10**9)

GTX2 = [NVIDIA_GTX780TI, NVIDIA_GTX780TI]


Case = collections.namedtuple("Case", "compiled info args want key")


def _prepare(name, sizes=None):
    """A benchmark's compiled program and arguments, with the values a
    lone run on one device computes under each executor the tests use."""
    spec = BENCHMARKS[name]
    prog = spec.program()
    rng = np.random.default_rng(5)
    args = spec.args_at(rng, sizes) if sizes else spec.small_args(rng)
    compiled = compile_program(prog)
    want = {
        executor: run_resilient(
            compiled.host, compiled.core, args, NVIDIA_GTX780TI,
            policy=ExecutionPolicy(executor=executor, fallback=False),
            entry="main", run_id="baseline",
        )[0]
        for executor in ("sim", "jit")
    }
    return Case(
        compiled, analyze_shardable(prog), args, want,
        compile_cache_key(prog),
    )


@pytest.fixture(scope="module")
def backprop():
    return _prepare("Backprop", {"n": 16, "h": 512})


@pytest.fixture(scope="module")
def nn():
    return _prepare("NN")


def _identical(case, got, executor="sim"):
    return all(
        values_equal(a, b, rtol=0.0, atol=0.0)
        for a, b in zip(case.want[executor], got)
    )


class _Spy:
    """Records the thread (and device) of every attempt loop the pool
    starts, keyed by run id."""

    def __init__(self, monkeypatch):
        self.runs = []
        real = pool_mod.run_resilient

        def spy(*args, **kwargs):
            self.runs.append(
                (
                    kwargs["run_id"],
                    kwargs["pool_device"].id,
                    threading.current_thread().name,
                )
            )
            return real(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "run_resilient", spy)


def _run(pool, case, run_id, **kwargs):
    kwargs.setdefault("batch_info", None)
    kwargs.setdefault("executor", "sim")
    return pool.run(
        case.compiled.host, case.compiled.core, case.args,
        entry="main", run_id=run_id, key=case.key, **kwargs
    )


def _wait_for(condition, timeout=30.0):
    give_up = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < give_up, "timed out"
        time.sleep(0.005)


def _shard_spans(tracer):
    return [s for s in tracer.spans if s.name.startswith("shard#")]


# -- which thread runs the request ------------------------------------------


def test_a_whole_request_on_an_idle_pool_runs_on_the_caller(
    nn, monkeypatch
):
    spy = _Spy(monkeypatch)
    tracer = Tracer()
    pool = DevicePool(GTX2)
    with pool, thread_tracing(tracer):
        values, _, report, placement = _run(pool, nn, "idle")
    assert placement["mode"] == "whole"
    me = threading.current_thread().name
    assert spy.runs == [("idle", placement["shards"][0]["device"], me)]
    assert report.backend == "sim" and _identical(nn, values)
    (span,) = _shard_spans(tracer)
    assert span.attrs["ran_on"] == "caller"
    assert [d.queued for d in pool.devices] == [0, 0]
    assert [d.backlog_us for d in pool.devices] == [0.0, 0.0]


def test_a_request_for_a_busy_device_goes_to_its_worker(nn, monkeypatch):
    """Device 0 has work booked and the program's affinity, so the
    placer still picks it: the caller cannot claim it and hands the
    request to its worker."""
    spy = _Spy(monkeypatch)
    tracer = Tracer()
    pool = DevicePool(GTX2)
    busy = pool.devices[0]
    busy.seen_keys.add(nn.key)
    busy.book(1.0)
    with pool, thread_tracing(tracer):
        values, _, _, placement = _run(pool, nn, "busy")
    busy.settle(1.0)
    assert placement["shards"][0]["device"] == 0
    assert spy.runs == [("busy", 0, "repro-sched-dev0")]
    assert _identical(nn, values)
    (span,) = _shard_spans(tracer)
    assert span.attrs["ran_on"] == "worker"


def test_a_sharded_plan_still_fans_out_to_the_workers(
    backprop, monkeypatch
):
    spy = _Spy(monkeypatch)
    tracer = Tracer()
    with tune(
        DevicePool([split_friendly(NVIDIA_GTX780TI)] * 3),
        planner=ShardPlanner(16),
    ) as pool, thread_tracing(tracer):
        values, _, _, placement = _run(
            pool, backprop, "split", batch_info=backprop.info
        )
    assert placement["mode"] == "sharded"
    assert len(spy.runs) == len(placement["shards"]) > 1
    assert all(t.startswith("repro-sched-dev") for _, _, t in spy.runs)
    assert {s.attrs["ran_on"] for s in _shard_spans(tracer)} == {"worker"}
    assert _identical(backprop, values)


# -- re-placement and deadlines on the caller's run -------------------------


def test_a_device_fault_on_the_callers_run_is_re_placed(
    backprop, monkeypatch
):
    spy = _Spy(monkeypatch)
    with tune(
        DevicePool(GTX2, fault_plans=[BROKEN, None]),
        retries=1,
    ) as pool:
        values, _, report, placement = _run(pool, backprop, "replaced")
    me = threading.current_thread().name
    assert spy.runs == [
        ("replaced", 0, me), ("replaced", 1, "repro-sched-dev1")
    ]
    assert placement["replacements"] == 1
    assert placement["shards"][0]["device"] == 1
    assert report.fallbacks == 0 and report.backend == "sim"
    assert _identical(backprop, values)
    assert pool.devices[0].failures == 1
    assert pool.devices[1].executed == 1


def test_an_expired_deadline_is_never_rescued_by_the_floor(
    backprop, monkeypatch
):
    spy = _Spy(monkeypatch)
    with DevicePool(GTX2) as pool:
        with pytest.raises(DeadlineExceeded) as exc:
            _run(pool, backprop, "late", deadline=Deadline(0.0), fallback=True)
    me = threading.current_thread().name
    assert [(r, t) for r, _, t in spy.runs] == [("late", me)]
    assert exc.value.report.deadline_exceeded
    assert all(d.breaker.state is BreakerState.CLOSED for d in pool.devices)


# -- one run per device, whoever runs it ------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_callers_never_share_a_device(
    backprop, nn, monkeypatch, seed
):
    """Four threads make 25 calls each to a 2-device pool under a fine
    switch interval: no device ever runs two attempt loops at once,
    both paths are taken, and every result is bit-identical to a lone
    run.  Caller runs wait until some call has booked a busy device, so
    the worker path is taken whatever the scheduling: two waiting
    callers hold both devices, and the third call finds them busy."""
    running = collections.Counter()
    peak = collections.Counter()
    threads = collections.Counter()
    lock = threading.Lock()
    real = pool_mod.run_resilient
    real_book = pool_mod.PoolDevice.book
    booked_busy = threading.Event()

    def book(self, est_us):
        idle = real_book(self, est_us)
        if not idle:
            booked_busy.set()
        return idle

    def spy(*args, **kwargs):
        dev = kwargs["pool_device"].id
        on_worker = threading.current_thread().name.startswith(
            "repro-sched-dev"
        )
        if not on_worker:
            booked_busy.wait(timeout=60)
        with lock:
            running[dev] += 1
            peak[dev] = max(peak[dev], running[dev])
            threads["worker" if on_worker else "caller"] += 1
        try:
            return real(*args, **kwargs)
        finally:
            with lock:
                running[dev] -= 1

    monkeypatch.setattr(pool_mod.PoolDevice, "book", book)
    monkeypatch.setattr(pool_mod, "run_resilient", spy)
    rng = random.Random(seed)
    plans = [[rng.choice([backprop, nn]) for _ in range(25)] for _ in range(4)]
    failures = []

    def client(c, plan):
        for i, case in enumerate(plan):
            values, _, report, _ = _run(
                pool, case, f"c{c}-{i}", executor="jit"
            )
            if report.backend != "jit" or not _identical(case, values, "jit"):
                failures.append((c, i))

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with DevicePool(GTX2) as pool:
            clients = [
                threading.Thread(target=client, args=(c, p))
                for c, p in enumerate(plans)
            ]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=300)
            assert not any(t.is_alive() for t in clients)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not failures
    assert max(peak.values()) == 1, dict(peak)
    assert sum(threads.values()) >= 100
    assert threads["caller"] > 0 and threads["worker"] > 0
    assert [d.queued for d in pool.devices] == [0, 0]
    assert [d.backlog_us for d in pool.devices] == [0.0, 0.0]
