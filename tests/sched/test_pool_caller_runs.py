"""Caller-runs on any pool: a task runs on the thread that needs its
result, and the pool owns no thread.

A whole placement runs on the thread that called :meth:`DevicePool.run`,
waiting there for a busy device's run lock (no longer than its
deadline); a ``k``-way split runs shard 0 there and each other shard on
one of ``k - 1`` threads started for the request.  A device error is
re-placed by the loop of the thread that ran the shard.  Two callers
never run on one device at once.  The stress test takes its
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
from repro.serve import BreakerState, Deadline
from tests.helpers import StintSpy, split_friendly, tune

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


@pytest.fixture
def started(monkeypatch):
    """Every thread started while the test runs."""
    threads = []
    real = threading.Thread.start

    def start(self):
        threads.append(self)
        return real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return threads


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
    nn, monkeypatch, started
):
    spy = StintSpy(monkeypatch)
    tracer = Tracer()
    pool = DevicePool(GTX2)
    with thread_tracing(tracer):
        values, _, report, placement = _run(pool, nn, "idle")
    assert started == []
    assert placement["mode"] == "whole"
    me = threading.current_thread().name
    assert spy.runs == [(placement["shards"][0]["device"], me)]
    assert report.backend == "sim" and _identical(nn, values)
    (span,) = _shard_spans(tracer)
    assert span.attrs["ran_on"] == "caller"
    assert [d.queued for d in pool.devices] == [0, 0]
    assert [d.backlog_us for d in pool.devices] == [0.0, 0.0]


def test_a_request_for_a_busy_device_waits_on_the_callers_thread(
    nn, monkeypatch, started
):
    """Device 0 has work booked, its run lock held, and the program's
    affinity, so the placer still picks it: the caller books it and
    waits for the run lock on its own thread, then runs there."""
    spy = StintSpy(monkeypatch)
    tracer = Tracer()
    pool = DevicePool(GTX2)
    busy = pool.devices[0]
    busy.seen_keys.add(nn.key)
    busy.book(1.0)
    busy.run_lock.acquire()
    done = []

    def client():
        with thread_tracing(tracer):
            done.append(_run(pool, nn, "busy"))

    caller = threading.Thread(target=client, name="client")
    caller.start()
    try:
        _wait_for(lambda: busy.queued == 2)
        assert spy.runs == []
    finally:
        busy.run_lock.release()
    caller.join(timeout=60)
    busy.settle(1.0)
    assert not caller.is_alive()
    assert started == [caller]
    ((values, _, _, placement),) = done
    assert placement["shards"][0]["device"] == 0
    assert spy.runs == [(0, "client")]
    assert _identical(nn, values)
    (span,) = _shard_spans(tracer)
    assert span.attrs["ran_on"] == "caller"
    assert [d.queued for d in pool.devices] == [0, 0]
    assert [d.backlog_us for d in pool.devices] == [0.0, 0.0]


def test_a_k_way_split_starts_exactly_k_minus_1_threads(
    backprop, monkeypatch, started
):
    """Shard 0 runs on the caller; each other shard on a thread started
    for it, which has finished when ``run`` returns."""
    spy = StintSpy(monkeypatch)
    tracer = Tracer()
    pool = tune(
        DevicePool([split_friendly(NVIDIA_GTX780TI)] * 3),
        planner=ShardPlanner(16),
    )
    with thread_tracing(tracer):
        values, _, _, placement = _run(
            pool, backprop, "split", batch_info=backprop.info
        )
    k = len(placement["shards"])
    assert placement["mode"] == "sharded" and k > 1
    assert len(started) == k - 1
    assert not any(t.is_alive() for t in started)
    me = threading.current_thread().name
    assert sorted(t for _, t in spy.runs) == sorted(
        [me] + [t.name for t in started]
    )
    assert sorted(s.attrs["ran_on"] for s in _shard_spans(tracer)) == (
        ["caller"] + ["split"] * (k - 1)
    )
    assert _identical(backprop, values)


# -- re-placement and deadlines on the caller's run -------------------------


def test_a_device_fault_on_the_callers_run_is_re_placed(
    backprop, monkeypatch
):
    spy = StintSpy(monkeypatch)
    pool = tune(
        DevicePool(GTX2, fault_plans=[BROKEN, None]),
        retries=1,
    )
    values, _, report, placement = _run(pool, backprop, "replaced")
    me = threading.current_thread().name
    assert spy.runs == [(0, me), (1, me)]
    assert placement["replacements"] == 1
    assert placement["shards"][0]["device"] == 1
    assert report.fallbacks == 0 and report.backend == "sim"
    assert _identical(backprop, values)
    assert pool.devices[0].failures == 1
    assert pool.devices[1].executed == 1


def test_an_expired_deadline_is_never_rescued_by_the_floor(
    backprop, monkeypatch
):
    spy = StintSpy(monkeypatch)
    pool = DevicePool(GTX2)
    with pytest.raises(DeadlineExceeded) as exc:
        _run(pool, backprop, "late", deadline=Deadline(0.0), fallback=True)
    me = threading.current_thread().name
    assert [t for _, t in spy.runs] == [me]
    assert exc.value.report.deadline_exceeded
    assert all(d.breaker.state is BreakerState.CLOSED for d in pool.devices)


@pytest.mark.parametrize("n_devices", [1, 2])
def test_a_deadline_ends_the_wait_for_a_busy_device(nn, n_devices):
    """A run holds device 0 (its books and its run lock); a request the
    placer sends there anyway, with a 50 ms deadline, raises
    ``DeadlineExceeded`` once its deadline passes, not when the run
    ends.  The waiting task never touched the device: its breaker
    stays closed and its books end empty."""
    pool = DevicePool([NVIDIA_GTX780TI] * n_devices)
    busy = pool.devices[0]
    busy.seen_keys.add(nn.key)  # the placer prefers it, though busy
    busy.book(1.0)
    busy.run_lock.acquire()
    outcome = []

    def late():
        t0 = time.monotonic()
        try:
            _run(pool, nn, "late", deadline=Deadline.after_ms(50))
        except DeadlineExceeded as e:
            outcome.append((time.monotonic() - t0, e))

    caller = threading.Thread(target=late)
    caller.start()
    try:
        caller.join(timeout=2.0)
    finally:
        busy.run_lock.release()
        caller.join(timeout=60)
        busy.settle(1.0)
    ((elapsed, error),) = outcome
    assert elapsed < 0.3, elapsed
    assert error.report.deadline_exceeded
    assert busy.breaker.state is BreakerState.CLOSED
    assert (busy.executed, busy.failures) == (0, 0)
    assert pool.stats()["cancelled_before_start"] == 1
    assert [d.queued for d in pool.devices] == [0] * n_devices
    assert [d.backlog_us for d in pool.devices] == [0.0] * n_devices


# -- one run per device, whoever runs it ------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_callers_never_share_a_device(
    backprop, nn, monkeypatch, seed
):
    """Four threads make 25 calls each to a 2-device pool under a fine
    switch interval: no device ever runs two stints at once, and every
    result is bit-identical to a lone run.  A caller that finds its
    device busy waits for it on its own thread."""
    spy = StintSpy(monkeypatch)
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
        pool = DevicePool(GTX2)
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
    assert max(spy.peak.values()) == 1, dict(spy.peak)
    assert len(spy.runs) >= 100
    assert [d.queued for d in pool.devices] == [0, 0]
    assert [d.backlog_us for d in pool.devices] == [0.0, 0.0]
