"""The closing rule of a pool shard: the first of its tasks to finish
it successfully closes the shard and wins, whichever thread ran it and
whatever order the coordinator reads outcomes in.  Every other task of
the shard reads that one flag: one not yet started is skipped, and an
outcome of any kind that arrives after the win changes nothing."""

import gc
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import array_value
from repro.core.prim import F32
from repro.errors import DeviceFault
from repro.gpu.device import NVIDIA_GTX780TI
from repro.pipeline import compile_program
from repro.sched import DevicePool
from repro.sched import pool as pool_mod
from repro.sched.shard import Shard
from tests.helpers import map_inc_program

GTX3 = [NVIDIA_GTX780TI] * 3


def _task(state, hedge):
    return pool_mod._Task(
        run_id="r" + ("/h" if hedge else ""),
        args=(),
        shared={},
        est_us=1.0,
        hedge=hedge,
        checkpoint=pool_mod._Checkpoint(None, state),
        results=None,
        tracer=None,
        metrics=None,
    )


@pytest.mark.parametrize("first", ["original", "hedge"])
def test_the_first_success_recorded_wins_and_the_rest_are_wasted(first):
    pool = DevicePool(GTX3)
    state = pool_mod._ShardState(Shard(0, 0, 8, 0), 0)
    tasks = {"original": _task(state, False), "hedge": _task(state, True)}
    order = [first, "hedge" if first == "original" else "original"]
    outcomes = {}
    for dev, name in zip(pool.devices, order):
        dev.book(1.0)
        task = tasks[name]
        outcomes[name] = pool_mod._Outcome(dev.id, task.hedge, sim_us=1.0)
        pool._record(dev, task, outcomes[name])
        assert state.closed and state.winner is outcomes[first]
    stats = pool.stats()
    assert stats["hedges_wasted"] == 1
    assert stats["hedges_won"] == (first == "hedge")

    # A third task of the closed shard is skipped before it starts.
    def never(dev, task):
        raise AssertionError("a task of a closed shard ran")

    pool._execute = never
    third, dev = _task(state, True), pool.devices[2]
    dev.book(1.0)
    skipped = pool._run_task(dev, third)
    assert skipped.cancelled and state.winner is outcomes[first]
    assert pool.stats()["cancelled_before_start"] == 1
    assert [d.queued for d in pool.devices] == [0, 0, 0]
    assert [d.backlog_us for d in pool.devices] == [0.0, 0.0, 0.0]


def test_concurrent_finishes_of_one_shard_have_exactly_one_winner():
    """Eight threads record a success of the same shard at once, 100
    times over, under a fine switch interval: each shard has one
    winner, and every other success counts as wasted."""
    pool = DevicePool([NVIDIA_GTX780TI] * 8)
    states = [pool_mod._ShardState(Shard(0, 0, 8, 0), 0) for _ in range(100)]
    wins = [[] for _ in states]
    start = threading.Barrier(len(pool.devices), timeout=60)

    def finisher(dev):
        start.wait()
        for st, won in zip(states, wins):
            task = _task(st, hedge=True)
            dev.book(1.0)
            out = pool_mod._Outcome(dev.id, task.hedge, sim_us=1.0)
            pool._record(dev, task, out)
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
    stats = pool.stats()
    assert stats["hedges_won"] == len(states)
    assert stats["hedges_wasted"] == len(states) * (len(pool.devices) - 1)


def test_a_device_error_taken_after_the_win_is_not_re_placed():
    """The caller's run launches its hedge, waits until the hedge has
    won, and only then fails with a device error: the coordinator
    takes the failure first, finds the shard closed and re-places
    nothing."""
    compiled = compile_program(map_inc_program())
    xs = np.arange(16, dtype=np.float32)
    execute = None
    ran = []

    def scripted(dev, task):
        ran.append((task.hedge, threading.current_thread().name))
        if task.hedge:
            return execute(dev, task)
        state = task.checkpoint.state
        task.checkpoint.poll()  # the hedge is due at once
        for _ in range(3000):
            if state.winner is not None:
                break
            time.sleep(0.01)
        assert state.closed and state.winner is not None
        return pool_mod._Outcome(
            dev.id, task.hedge, error=DeviceFault("launch", "late failure")
        )

    with DevicePool(GTX3, hedge_min_wall_s=0.0) as pool:
        execute, pool._execute = pool._execute, scripted
        values, _, _, placement = pool.run(
            compiled.host, compiled.core, [array_value(xs, F32)],
            executor="sim", entry="main", run_id="late",
        )
        stats = pool.stats()
    me = threading.current_thread().name
    assert ran[0] == (False, me) and ran[1][0] is True
    assert len(ran) == 2
    assert placement["replacements"] == stats["replacements"] == 0
    assert placement["hedges_won"] == stats["hedges_won"] == 1
    assert placement["shards"][0]["hedge_won"] is True
    np.testing.assert_array_equal(values[0].data, xs + 1.0)
    assert [d.queued for d in pool.devices] == [0, 0, 0]


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
