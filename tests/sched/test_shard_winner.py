"""The closing rule of a pool shard: the success of its one live task
closes the shard and wins it, whichever thread ran the task, unless
the request has already given up.  Every task of the shard reads that
one flag: one not yet started is skipped."""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.core import array_value
from repro.core.prim import F32
from repro.gpu.device import NVIDIA_GTX780TI
from repro.pipeline import compile_program
from repro.sched import DevicePool
from repro.sched import pool as pool_mod
from repro.sched.shard import Shard
from tests.helpers import map_inc_program

GTX3 = [NVIDIA_GTX780TI] * 3


def _task(state):
    return pool_mod._Task(
        run_id="r",
        args=(),
        shared={},
        est_us=1.0,
        checkpoint=pool_mod._Checkpoint(None, state),
        results=None,
        tracer=None,
        metrics=None,
    )


def test_a_success_closes_its_shard_unless_the_request_gave_up():
    pool = DevicePool(GTX3)
    state = pool_mod._ShardState(Shard(0, 0, 8, 0), 0)
    dev = pool.devices[0]
    dev.book(1.0)
    won = pool_mod._Outcome(dev.id, sim_us=1.0)
    pool._record(dev, _task(state), won)
    assert state.closed and state.winner is won

    # A task of the closed shard is skipped before it starts.
    def never(dev, task):
        raise AssertionError("a task of a closed shard ran")

    pool._execute = never
    dev = pool.devices[1]
    dev.book(1.0)
    skipped = pool._run_task(dev, _task(state))
    assert skipped.cancelled and state.winner is won
    assert pool.stats()["cancelled_before_start"] == 1

    # A success that finishes after its request gave up wins nothing.
    given_up = pool_mod._ShardState(Shard(0, 0, 8, 2), 2)
    pool._abort([given_up])
    dev = pool.devices[2]
    dev.book(1.0)
    pool._record(dev, _task(given_up), pool_mod._Outcome(dev.id, sim_us=1.0))
    assert given_up.closed and given_up.winner is None
    assert [d.queued for d in pool.devices] == [0, 0, 0]
    assert [d.backlog_us for d in pool.devices] == [0.0, 0.0, 0.0]


def test_concurrent_finishes_of_one_shard_have_exactly_one_winner():
    """Eight threads record a success of the same shard at once, 100
    times over, under a fine switch interval: the shard is closed and
    won exactly once, whichever thread got there first."""
    pool = DevicePool([NVIDIA_GTX780TI] * 8)
    states = [pool_mod._ShardState(Shard(0, 0, 8, 0), 0) for _ in range(100)]
    wins = [[] for _ in states]
    start = threading.Barrier(len(pool.devices), timeout=60)

    def finisher(dev):
        start.wait()
        for st, won in zip(states, wins):
            dev.book(1.0)
            out = pool_mod._Outcome(dev.id, sim_us=1.0)
            pool._record(dev, _task(st), out)
            if st.winner is out:
                won.append(dev.id)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=finisher, args=(d,)) for d in pool.devices
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch_interval)
    assert all(len(won) == 1 for won in wins)
    assert all(st.closed for st in states)
    assert pool.stats()["shards_executed"] == len(states) * len(pool.devices)
    assert [d.queued for d in pool.devices] == [0] * len(pool.devices)


@pytest.mark.parametrize("executor", ["sim", "jit"])
def test_a_finished_request_leaves_no_reference_cycle(executor):
    """A shard holds its winner and each task points at its shard, so
    an outcome that pointed back at its task would make every request
    a cycle, keeping its values alive until the cyclic collector ran
    (peak RSS on a busy server)."""
    compiled = compile_program(map_inc_program())
    args = [array_value(np.arange(16, dtype=np.float32), F32)]

    def run(run_id):
        return pool.run(
            compiled.host, compiled.core, args,
            executor=executor, entry="main", run_id=run_id,
        )

    with DevicePool(GTX3) as pool:
        run("warm")
        gc.collect()
        gc.disable()
        try:
            for i in range(5):
                run(f"r{i}")
            assert gc.collect() == 0
        finally:
            gc.enable()
