"""Caller-runs on any pool: a whole placement whose device is idle runs
on the thread that called :meth:`DevicePool.run`.

The device is claimed atomically, so two callers never both run on the
same idle one; a task on a busy device, and every shard of a split,
still goes to the device workers.  The caller watches its own task from
the task's checkpoint, which runs at every launch boundary: the hedge
is launched from there, and the caller's run stops once the hedge has
won.  A device error on the caller's run is re-placed by the same
coordinator loop a worker's would be.  The stress test takes its
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
from repro.gpu.faults import FaultInjector, FaultPlan
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

#: A hedge floor no test run reaches: the run lists below stay exact on
#: a slow machine.
NO_HEDGE = 600.0


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
    pool = DevicePool(GTX2, hedge_min_wall_s=NO_HEDGE)
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
    pool = DevicePool(GTX2, hedge_min_wall_s=NO_HEDGE)
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
        DevicePool(
            [split_friendly(NVIDIA_GTX780TI)] * 3, hedge_min_wall_s=NO_HEDGE
        ),
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


# -- re-placement, hedging and deadlines on the caller's run ----------------


def test_a_device_fault_on_the_callers_run_is_re_placed(
    backprop, monkeypatch
):
    spy = _Spy(monkeypatch)
    with tune(
        DevicePool(
            GTX2, fault_plans=[BROKEN, None], hedge_min_wall_s=NO_HEDGE
        ),
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


def test_a_straggling_callers_run_is_hedged_and_stops_early(
    backprop, monkeypatch
):
    """Device 0 sleeps 250 ms before each of its four launches.  The
    caller's run launches the hedge from its second launch boundary,
    and at its third finds the (jit-fast) hedge won and stops: it never
    reaches its last launch, and the stop counts against neither the
    device nor its breaker."""
    straggler = FaultPlan(seed=0, wall_delay_s=0.25)
    launches = collections.Counter()
    real = FaultInjector.before_launch

    def counting(self, site):
        launches[self.plan is straggler] += 1
        return real(self, site)

    monkeypatch.setattr(FaultInjector, "before_launch", counting)
    spy = _Spy(monkeypatch)
    with DevicePool(
        GTX2, fault_plans=[straggler, None], hedge_min_wall_s=0.03
    ) as pool:
        values, cost, _, placement = _run(
            pool, backprop, "slow", executor="jit"
        )
        stats = pool.stats()
    me = threading.current_thread().name
    assert spy.runs == [("slow", 0, me), ("slow/h", 1, "repro-sched-dev1")]
    assert placement["hedges_launched"] == placement["hedges_won"] == 1
    assert placement["shards"][0]["device"] == 1
    assert _identical(backprop, values, "jit")
    assert 0 < launches[True] < len(cost.kernel_costs)
    assert stats["stopped_mid_flight"] == 1
    dev0 = pool.devices[0]
    assert dev0.failures == 0 and dev0.executed == 0
    assert dev0.breaker.state is BreakerState.CLOSED
    assert dev0.breaker.snapshot() == pool.devices[1].breaker.snapshot()
    assert [d.queued for d in pool.devices] == [0, 0]


def test_a_worker_run_loser_stops_at_its_next_launch(backprop, monkeypatch):
    """The same straggler, on a device the caller finds busy: its worker
    runs it, the monitor loop hedges it, and once the hedge has won the
    worker's run stops at its next launch boundary instead of running
    to the end."""
    straggler = FaultPlan(seed=0, wall_delay_s=0.25)
    launches = collections.Counter()
    real = FaultInjector.before_launch

    def counting(self, site):
        launches[self.plan is straggler] += 1
        return real(self, site)

    monkeypatch.setattr(FaultInjector, "before_launch", counting)
    spy = _Spy(monkeypatch)
    pool = DevicePool(
        GTX2, fault_plans=[straggler, None], hedge_min_wall_s=0.03
    )
    busy = pool.devices[0]
    busy.seen_keys.add(backprop.key)
    busy.book(1.0)
    with pool:
        values, cost, _, placement = _run(
            pool, backprop, "queued", executor="jit"
        )
        busy.settle(1.0)
        _wait_for(lambda: pool.stats()["stopped_mid_flight"] == 1)
    assert spy.runs == [
        ("queued", 0, "repro-sched-dev0"), ("queued/h", 1, "repro-sched-dev1")
    ]
    assert placement["hedges_won"] == 1
    assert _identical(backprop, values, "jit")
    assert 0 < launches[True] < len(cost.kernel_costs)
    assert busy.failures == 0 and busy.executed == 0
    assert [d.queued for d in pool.devices] == [0, 0]


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
    run."""
    running = collections.Counter()
    peak = collections.Counter()
    threads = collections.Counter()
    lock = threading.Lock()
    real = pool_mod.run_resilient

    def spy(*args, **kwargs):
        dev = kwargs["pool_device"].id
        with lock:
            running[dev] += 1
            peak[dev] = max(peak[dev], running[dev])
            on_worker = threading.current_thread().name.startswith(
                "repro-sched-dev"
            )
            threads["worker" if on_worker else "caller"] += 1
        try:
            return real(*args, **kwargs)
        finally:
            with lock:
                running[dev] -= 1

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
