"""The closing rule of a pool shard: its one run — a sequence of
device stints — closes it with its success and wins it, unless the
request has already given up, which closes it without a result.  A
shard that is closed is skipped before its stint starts."""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.core import array_value
from repro.core.prim import F32
from repro.gpu.costmodel import CostReport
from repro.gpu.device import NVIDIA_GTX780TI
from repro.pipeline import compile_program
from repro.runtime import RunReport
from repro.sched import DevicePool
from repro.sched import pool as pool_mod
from repro.sched.shard import Shard
from tests.helpers import map_inc_program

GTX3 = [NVIDIA_GTX780TI] * 3


def _shard(pool, dev_id):
    """A booked one-shard request on ``pool.devices[dev_id]``."""
    shard = pool_mod._Shard(
        pool, Shard(0, 0, 8, dev_id), "r", (), "caller", {}, None, None,
        lambda dev_id, rows: 1.0,
    )
    shard.book(pool.devices[dev_id])
    return shard


def _scripted(monkeypatch, during=lambda shard: None):
    """Replace the attempt loop by one stint that succeeds on the
    shard's first device, calling ``during(shard)`` while it runs."""

    def run_resilient(*, placement, **kwargs):
        if placement.next(None) is None:
            raise AssertionError("no device")
        during(placement)
        return ("values",), CostReport("dev"), RunReport("dev")

    monkeypatch.setattr(pool_mod, "run_resilient", run_resilient)


def test_a_success_closes_its_shard_unless_the_request_gave_up(monkeypatch):
    pool = DevicePool(GTX3)
    _scripted(monkeypatch)
    won = _shard(pool, 0)
    won.run()
    assert won.closed and won.won_on == 0
    assert won.result[0] == ("values",)

    # A shard that is closed is skipped before its stint starts.
    skipped = _shard(pool, 1)
    pool._abort([skipped])
    skipped.run()
    assert skipped.result is None
    assert pool.stats()["cancelled_before_start"] == 1
    assert pool.devices[1].executed == 0

    # A success that finishes after its request gave up wins nothing.
    _scripted(monkeypatch, during=lambda shard: pool._abort([shard]))
    given_up = _shard(pool, 2)
    given_up.run()
    assert given_up.closed and given_up.result is None
    assert [d.queued for d in pool.devices] == [0, 0, 0]
    assert [d.backlog_us for d in pool.devices] == [0.0, 0.0, 0.0]


def test_a_success_racing_its_requests_give_up_closes_the_shard_once(
    monkeypatch,
):
    """100 times over, under a fine switch interval, a shard's success
    races its request giving up: the shard ends closed either way, and
    has a result exactly when its success got there first."""
    pool = DevicePool(GTX3)
    _scripted(monkeypatch)
    shards = [_shard(pool, i % 3) for i in range(100)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for shard in shards:
            start = threading.Barrier(2, timeout=60)

            def finish(shard=shard, start=start):
                start.wait()
                shard.run()

            t = threading.Thread(target=finish)
            t.start()
            start.wait()
            pool._abort([shard])
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch_interval)
    assert all(s.closed for s in shards)
    for s in shards:
        assert (s.result is None) == (s.won_on is None)
    stats = pool.stats()
    # A stint that ran is booked on its device, won or not.
    ran = sum(d.executed for d in pool.devices)
    assert sum(s.result is not None for s in shards) <= ran
    assert ran == stats["shards_executed"]
    assert stats["cancelled_before_start"] + ran == 100
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

    pool = DevicePool(GTX3)
    run("warm")
    gc.collect()
    gc.disable()
    try:
        for i in range(5):
            run(f"r{i}")
        assert gc.collect() == 0
    finally:
        gc.enable()
