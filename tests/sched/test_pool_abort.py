"""A request that gives up closes every shard it still has open: a task
already running stops at its next launch boundary, and one still queued
is skipped when its worker reaches it.  Neither counts against its
device, its breaker or its books."""

import threading
import time

import numpy as np

from repro.bench.suite import BENCHMARKS
from repro.errors import DeadlineExceeded
from repro.gpu.device import NVIDIA_GTX780TI
from repro.gpu.simulator import DeviceAccounting
from repro.pipeline import compile_program
from repro.sched import DevicePool, ShardPlanner, analyze_shardable
from repro.serve import BreakerState, Deadline
from tests.helpers import split_friendly, tune


def _wait_for(condition, timeout=30.0):
    give_up = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < give_up, "timed out"
        time.sleep(0.005)


def test_an_aborted_request_stops_its_running_shard_and_skips_its_queued_one(
    monkeypatch,
):
    """Backprop splits three ways.  Device 0's shard wins; device 1's is
    held at its second kernel launch; device 2's worker is held at its
    queue.  Then the request's deadline passes: the coordinator gives
    up, and on release device 1's run stops at the launch it was held
    at and device 2's task is skipped without starting."""
    spec = BENCHMARKS["Backprop"]
    prog = spec.program()
    compiled = compile_program(prog)
    args = spec.args_at(np.random.default_rng(5), {"n": 16, "h": 512})

    held, release = threading.Event(), threading.Event()
    launches = []
    real_launch = DeviceAccounting.launch

    def hooked(self, *a, **kw):
        if threading.current_thread().name == "repro-sched-dev1":
            launches.append(1)
            if len(launches) == 2:
                held.set()
                assert release.wait(60)
        return real_launch(self, *a, **kw)

    monkeypatch.setattr(DeviceAccounting, "launch", hooked)

    gate = threading.Event()
    pool = tune(
        DevicePool([split_friendly(NVIDIA_GTX780TI)] * 3),
        planner=ShardPlanner(16),
    )
    queue, get = pool.devices[2].queue, pool.devices[2].queue.get

    def gated_get(*a, **kw):
        assert gate.wait(60)
        return get(*a, **kw)

    monkeypatch.setattr(queue, "get", gated_get)

    now = [0.0]
    deadline = Deadline(1.0, clock=lambda: now[0])
    raised = []

    def request():
        try:
            pool.run(
                compiled.host, compiled.core, args,
                executor="sim", entry="main", run_id="aborted",
                deadline=deadline, batch_info=analyze_shardable(prog),
            )
        except DeadlineExceeded as e:
            raised.append(e)

    caller = threading.Thread(target=request)
    with pool:
        try:
            caller.start()
            _wait_for(
                lambda: held.is_set()
                and pool.devices[0].executed == 1
                and pool.devices[2].queued == 1
            )
            now[0] = 2.0  # the deadline passes
            caller.join(30.0)
            assert not caller.is_alive() and len(raised) == 1
        finally:
            release.set()
            gate.set()
        _wait_for(
            lambda: pool.stats()["stopped_mid_flight"] == 1
            and pool.stats()["cancelled_before_start"] == 1
        )
    stats = pool.stats()
    assert stats["stopped_mid_flight"] == 1
    assert stats["cancelled_before_start"] == 1
    assert stats["shards_executed"] == 2  # the winner and the stopped run
    assert len(launches) == 2  # the held launch never ran
    assert [d.executed for d in pool.devices] == [1, 0, 0]
    for d in pool.devices:
        assert d.failures == 0
        assert d.breaker.state is BreakerState.CLOSED
        assert d.queued == 0
        assert d.backlog_us == 0.0
