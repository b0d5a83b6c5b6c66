"""Unit tests for the placer and the device pool: placement scoring,
whole-request and sharded execution, failure re-placement, and hedged
straggler duplicates."""

import queue
import threading
import time

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.core.values import values_equal
from repro.errors import DeadlineExceeded, DeviceFault
from repro.gpu.costmodel import request_price_us, size_env_from_args
from repro.gpu.device import AMD_W8100, NVIDIA_GTX780TI, SIM_SMALL
from repro.gpu.faults import FaultPlan
from repro.pipeline import compile_cache_key, compile_program
from repro.runtime import ExecutionPolicy, run_resilient
from repro.sched import DevicePool, Placer, ShardPlanner, analyze_shardable
from repro.serve import BreakerState, Deadline
from tests.helpers import KWayPlacer, split_friendly, tune

#: A fault plan that never succeeds and never clears: every launch on
#: the device fails, forever.
BROKEN = FaultPlan(seed=0, launch_failure_rate=1.0, max_consecutive=10**9)


@pytest.fixture(scope="module")
def backprop():
    spec = BENCHMARKS["Backprop"]
    prog = spec.program()
    compiled = compile_program(prog)
    info = analyze_shardable(prog)
    args = spec.args_at(np.random.default_rng(5), {"n": 16, "h": 512})
    baseline, _, _ = run_resilient(
        compiled.host, compiled.core, args, NVIDIA_GTX780TI,
        policy=ExecutionPolicy(executor="sim", fallback=False),
        entry="main", run_id="baseline",
    )
    return compiled, info, args, baseline, compile_cache_key(prog)


# -- pricing and the Placer -------------------------------------------------


def test_size_env_binds_scalars_and_array_dims(backprop):
    compiled, _, args, _, _ = backprop
    env = size_env_from_args(compiled.host, args)
    assert env["n"] == 16
    assert env["h"] == 512


def test_estimate_is_positive_and_memoised(backprop):
    compiled, _, args, _, _ = backprop
    host = compiled.host
    env = size_env_from_args(host, args)
    est = request_price_us(host, env, NVIDIA_GTX780TI)
    assert est > 0
    assert request_price_us(host, env, NVIDIA_GTX780TI) == est
    # The memo lives on the program it prices (an id()-keyed side
    # table could hand a collected program's entry to its successor),
    # one entry per (device, coalescing, sizes), and is process state.
    assert len(host.price_cache) == 1
    assert request_price_us(host, env, AMD_W8100) != est
    assert len(host.price_cache) == 2
    import pickle

    assert pickle.loads(pickle.dumps(host)).price_cache == {}


def _device(dev_id, backlog_us=0.0, affinity=False):
    return {
        "device": dev_id, "backlog_us": backlog_us,
        "affinity": affinity, "launch_overhead_us": 35.0,
    }


def test_choose_prefers_least_completion_time():
    placer = Placer(affinity_bonus=0.2)
    candidates = [_device(0, backlog_us=500.0), _device(1)]
    chosen, _ = placer.plan(candidates, lambda dev, rows: 100.0)
    assert chosen.devices == [1]
    # Every candidate's estimate and score are filled in for the
    # placement record.
    assert all(c["est_us"] == 100.0 and "score" in c for c in candidates)
    # Affinity discounts the estimate and breaks an otherwise-equal tie
    # away from the lower id.
    candidates = [_device(0), _device(1, affinity=True)]
    chosen, _ = placer.plan(candidates, lambda dev, rows: 100.0)
    assert chosen.devices == [1]
    # (The whole-vs-split decision table is tests/sched/test_placer.py.)


def test_affinity_bonus_validation():
    with pytest.raises(ValueError):
        Placer(affinity_bonus=1.0)
    with pytest.raises(ValueError):
        Placer(affinity_bonus=-0.1)


# -- DevicePool: happy paths ------------------------------------------------


def test_whole_request_placement(backprop):
    compiled, _, args, baseline, key = backprop
    with DevicePool([NVIDIA_GTX780TI, AMD_W8100]) as pool:
        values, cost, report, placement = pool.run(
            compiled.host, compiled.core, args,
            executor="sim", entry="main", run_id="whole",
            batch_info=None, key=key,
        )
    assert placement["mode"] == "whole"
    assert len(placement["shards"]) == 1
    assert report.fallbacks == 0
    assert cost.total_us > 0
    assert all(values_equal(a, b) for a, b in zip(baseline, values))
    stats = pool.stats()
    assert stats["whole"] == 1 and stats["sharded"] == 0


def test_sharded_run_is_bit_identical(backprop):
    compiled, info, args, baseline, key = backprop
    with tune(
        DevicePool(
            [
                split_friendly(p)
                for p in (NVIDIA_GTX780TI, AMD_W8100, SIM_SMALL)
            ],
        ),
        planner=ShardPlanner(16),
    ) as pool:
        values, cost, report, placement = pool.run(
            compiled.host, compiled.core, args,
            executor="sim", entry="main", run_id="sharded",
            batch_info=info, key=key,
        )
    assert placement["mode"] == "sharded"
    assert len(placement["shards"]) > 1
    # Exact partition, in order.
    lo = 0
    for s in sorted(placement["shards"], key=lambda s: s["index"]):
        assert s["lo"] == lo
        lo = s["hi"]
    assert lo == info.batch_size(args)
    assert report.fallbacks == 0
    for a, b in zip(baseline, values):
        assert np.array_equal(a.data, b.data)


def test_affinity_is_recorded_on_repeat_requests(backprop):
    compiled, _, args, _, key = backprop
    with DevicePool([NVIDIA_GTX780TI, AMD_W8100]) as pool:
        _, _, _, first = pool.run(
            compiled.host, compiled.core, args,
            executor="sim", entry="main", run_id="a",
            batch_info=None, key=key,
        )
        chosen = first["shards"][0]["device"]
        _, _, _, second = pool.run(
            compiled.host, compiled.core, args,
            executor="sim", entry="main", run_id="b",
            batch_info=None, key=key,
        )
    by_dev = {c["device"]: c for c in second["candidates"]}
    assert by_dev[chosen]["affinity"] is True


# -- DevicePool: failure handling -------------------------------------------


def test_failed_device_is_replaced(backprop):
    compiled, _, args, baseline, key = backprop
    # Device 0 always fails; the tie-breaking placer will pick it first
    # (equal profiles, lower id), forcing a mid-request re-placement.
    with tune(
        DevicePool(
            [NVIDIA_GTX780TI, NVIDIA_GTX780TI], fault_plans=[BROKEN, None]
        ),
        retries=1,
    ) as pool:
        values, _, report, placement = pool.run(
            compiled.host, compiled.core, args,
            executor="sim", entry="main", run_id="replaced",
            batch_info=None, key=key,
        )
    assert placement["replacements"] == 1
    assert placement["shards"][0]["device"] == 1
    assert all(values_equal(a, b) for a, b in zip(baseline, values))
    assert pool.devices[0].failures == 1
    assert pool.devices[1].executed == 1


def test_all_devices_failing_raises(backprop):
    compiled, _, args, _, key = backprop
    with tune(
        DevicePool(
            [NVIDIA_GTX780TI, NVIDIA_GTX780TI], fault_plans=[BROKEN, BROKEN]
        ),
        retries=1,
    ) as pool:
        with pytest.raises(DeviceFault):
            pool.run(
                compiled.host, compiled.core, args,
                executor="sim", entry="main", run_id="doomed",
                batch_info=None, key=key,
            )


def test_all_breakers_open_refuses_transiently(backprop):
    compiled, _, args, _, key = backprop
    pool = tune(
        DevicePool([NVIDIA_GTX780TI]),
        breaker=dict(failure_threshold=1, recovery_s=60.0),
    )
    pool.devices[0].breaker.record_failure()  # trip it
    with pool:
        with pytest.raises(DeviceFault) as exc:
            pool.run(
                compiled.host, compiled.core, args,
                executor="sim", entry="main", run_id="refused",
                batch_info=None, key=key,
            )
    assert exc.value.transient


def test_every_device_failing_ends_on_the_interpreter_floor(backprop):
    compiled, _, args, baseline, key = backprop
    with tune(
        DevicePool(
            [NVIDIA_GTX780TI, NVIDIA_GTX780TI], fault_plans=[BROKEN, BROKEN]
        ),
        breaker=dict(failure_threshold=1, recovery_s=60.0),
        retries=0,
    ) as pool:
        kwargs = dict(
            executor="sim", entry="main", batch_info=None, key=key,
            fallback=True,
        )
        values, cost, report, _ = pool.run(
            compiled.host, compiled.core, args, run_id="floor", **kwargs
        )
        assert report.backend == "interp" and report.fallbacks == 1
        assert report.abandoned == "sim:DeviceFault"
        assert report.transient_faults >= 1  # the last device's trail
        assert cost.total_us == 0
        assert all(values_equal(a, b) for a, b in zip(baseline, values))
        # Both breakers are open now: refused without touching a device.
        _, _, report, placement = pool.run(
            compiled.host, compiled.core, args, run_id="open", **kwargs
        )
        assert report.abandoned == "sim:open" and report.attempts == 0
        assert placement == {"mode": "refused"}
        # ...and an expired deadline is never rescued by the floor.
        with pytest.raises(DeadlineExceeded) as exc:
            pool.run(
                compiled.host, compiled.core, args, run_id="late",
                deadline=Deadline(0.0), **kwargs
            )
        assert exc.value.report.deadline_exceeded


def test_cancelled_task_does_not_wedge_the_breaker(backprop):
    """Regression: the coordinator used to claim the half-open probe
    slot when it *chose* a device, and only a task that actually ran
    released it — a task cancelled before it started (its hedge
    sibling won, its request was aborted) left the slot held and the
    device refused forever.  Choosing a device now only reads the
    breaker; the attempt loop claims and releases on the device's own
    thread."""
    compiled, _, args, baseline, key = backprop
    pool = tune(
        DevicePool([NVIDIA_GTX780TI]),
        breaker=dict(failure_threshold=1, recovery_s=0.0),
    )
    dev = pool.devices[0]
    dev.breaker.record_failure()  # trip; recovery 0: half-open at once
    assert dev.breaker.state is BreakerState.HALF_OPEN
    # The coordinator picks the device for a task that is then
    # cancelled before the worker starts it: nothing ever runs.
    assert pool._admit(0, set()) is dev
    assert dev.breaker.allow(), "the probe slot leaked"
    dev.breaker.record_neutral()
    # End to end: an aborted request (its deadline is already gone),
    # then a live one, which must win the probe and close the breaker.
    with pool:
        with pytest.raises(DeadlineExceeded):
            pool.run(
                compiled.host, compiled.core, args,
                executor="sim", entry="main", run_id="aborted",
                batch_info=None, key=key, deadline=Deadline(0.0),
            )
        values, _, report, _ = pool.run(
            compiled.host, compiled.core, args,
            executor="sim", entry="main", run_id="probe",
            batch_info=None, key=key,
        )
    assert report.backend == "sim"
    assert dev.breaker.state is BreakerState.CLOSED
    assert all(values_equal(a, b) for a, b in zip(baseline, values))


# -- DevicePool: hedging ----------------------------------------------------


def test_straggler_is_hedged_and_hedge_wins(backprop):
    compiled, _, args, baseline, key = backprop
    # Device 0 sleeps 150ms of real wall time before every kernel
    # launch; with a 30ms hedge floor the monitor duplicates the work
    # onto device 1, which finishes first.
    straggler = FaultPlan(seed=0, wall_delay_s=0.15)
    with DevicePool(
        [NVIDIA_GTX780TI, NVIDIA_GTX780TI],
        fault_plans=[straggler, None],
        hedge_min_wall_s=0.03,
    ) as pool:
        values, _, report, placement = pool.run(
            compiled.host, compiled.core, args,
            executor="sim", entry="main", run_id="hedged",
            batch_info=None, key=key,
        )
    assert placement["hedges_launched"] == 1
    assert placement["hedges_won"] == 1
    assert placement["shards"][0]["device"] == 1
    assert placement["shards"][0]["hedge_won"] is True
    assert all(values_equal(a, b) for a, b in zip(baseline, values))
    stats = pool.stats()
    assert stats["hedges_launched"] == 1
    assert stats["hedges_won"] == 1


# -- DevicePool: backlog bookkeeping ----------------------------------------


def _wait_for(condition, timeout=30.0):
    give_up = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < give_up, "timed out"
        time.sleep(0.005)


def test_a_shard_is_booked_at_the_price_of_its_own_rows():
    """Regression: a shard's estimate was ``price(whole) * share`` — a
    256-row Backprop shard booked at 35.9 us when the cost model prices
    it at 142.3 (1024 threads do not fill the device), so backlogs and
    hedge budgets of small shards were ~4x off."""
    spec = BENCHMARKS["Backprop"]
    prog = spec.program()
    compiled = compile_program(prog)
    args = spec.args_at(np.random.default_rng(5), {"n": 16, "h": 1024})
    env = size_env_from_args(compiled.host, args)
    pool = tune(DevicePool([NVIDIA_GTX780TI] * 4), placer=KWayPlacer(4))
    # Hold every device worker at the door so the queued state can be
    # read.
    gate, execute = threading.Event(), pool._execute

    def gated(dev, task):
        gate.wait(30.0)
        return execute(dev, task)

    pool._execute = gated
    done = []
    request = threading.Thread(
        target=lambda: done.append(
            pool.run(
                compiled.host, compiled.core, args,
                executor="sim", entry="main", run_id="booked",
                batch_info=analyze_shardable(prog),
            )
        )
    )
    with pool:
        request.start()
        try:
            _wait_for(lambda: all(d.queued == 1 for d in pool.devices))
            booked = [d.backlog_us for d in pool.devices]
        finally:
            gate.set()
            request.join(30.0)
    assert done, "the request did not complete"
    placement = done[0][3]
    assert [(s["lo"], s["hi"]) for s in placement["shards"]] == [
        (0, 256), (256, 512), (512, 768), (768, 1024),
    ]
    shard_price = request_price_us(
        compiled.host, {**env, "h": 256}, NVIDIA_GTX780TI
    )
    assert booked == [shard_price] * 4
    whole_price = request_price_us(compiled.host, env, NVIDIA_GTX780TI)
    assert shard_price > 0.9 * whole_price  # nowhere near a quarter
    assert [d.backlog_us for d in pool.devices] == [0.0] * 4


def test_backlog_settles_to_exactly_zero():
    # (0.1 + 0.2 + 0.3) - 0.1 - 0.2 - 0.3 leaves 5.6e-17 in floats.
    dev = DevicePool([NVIDIA_GTX780TI]).devices[0]
    for est in (0.1, 0.2, 0.3):
        dev.book(est)
    assert dev.backlog_us > 0.0 and dev.queued == 3
    for est in (0.1, 0.2, 0.3):
        dev.settle(est)
    assert dev.backlog_us == 0.0 and dev.queued == 0


def test_hedge_cancelled_before_start_settles_its_backlog(backprop):
    """The cancelled-before-start path and the completed path take a
    task's estimate off the backlog the same way."""
    compiled, _, args, baseline, key = backprop

    class GatedQueue(queue.Queue):
        gate = threading.Event()

        def get(self, *a, **kw):
            self.gate.wait(30.0)
            return super().get(*a, **kw)

    # Device 0 straggles (150 ms of wall time per launch), so its task
    # is hedged onto device 1 — whose worker is held at its queue, so
    # the original wins and the duplicate is cancelled before it starts.
    pool = DevicePool(
        [NVIDIA_GTX780TI, NVIDIA_GTX780TI],
        fault_plans=[FaultPlan(seed=0, wall_delay_s=0.15), None],
        hedge_min_wall_s=0.03,
    )
    pool.devices[1].queue = GatedQueue()
    with pool:
        try:
            values, _, _, placement = pool.run(
                compiled.host, compiled.core, args,
                executor="sim", entry="main", run_id="cancelled-hedge",
                batch_info=None, key=key,
            )
            assert placement["hedges_launched"] == 1
            assert placement["hedges_won"] == 0
            assert placement["shards"][0]["device"] == 0
            assert pool.devices[1].backlog_us > 0.0  # still queued
        finally:
            GatedQueue.gate.set()
        _wait_for(lambda: pool.stats()["cancelled_before_start"] == 1)
        assert [d.backlog_us for d in pool.devices] == [0.0, 0.0]
        assert [d.queued for d in pool.devices] == [0, 0]
    assert all(values_equal(a, b) for a, b in zip(baseline, values))


def test_pool_validates_construction():
    with pytest.raises(ValueError):
        DevicePool([])
    with pytest.raises(ValueError):
        DevicePool([NVIDIA_GTX780TI], fault_plans=[None, None])
