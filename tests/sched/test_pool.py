"""Unit tests for the placer and the device pool: placement scoring,
whole-request and sharded execution, failure re-placement, and hedged
straggler duplicates."""

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
from repro.sched import DevicePool, Placer, analyze_shardable
from repro.serve import BreakerState, Deadline

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


def test_choose_prefers_least_completion_time():
    placer = Placer(affinity_bonus=0.2)
    candidates = [
        {"device": 0, "backlog_us": 500.0, "est_us": 100.0, "affinity": False},
        {"device": 1, "backlog_us": 0.0, "est_us": 100.0, "affinity": False},
    ]
    assert placer.choose(candidates) == 1
    # Every candidate's score is filled in for the placement record.
    assert all("score" in c for c in candidates)
    # Affinity discounts the estimate and breaks an otherwise-equal tie
    # away from the lower id.
    candidates = [
        {"device": 0, "backlog_us": 0.0, "est_us": 100.0, "affinity": False},
        {"device": 1, "backlog_us": 0.0, "est_us": 100.0, "affinity": True},
    ]
    assert placer.choose(candidates) == 1


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
    with DevicePool(
        [NVIDIA_GTX780TI, AMD_W8100, SIM_SMALL], min_shard=16
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
    with DevicePool(
        [NVIDIA_GTX780TI, NVIDIA_GTX780TI],
        fault_plans=[BROKEN, None],
    ) as pool:
        values, _, report, placement = pool.run(
            compiled.host, compiled.core, args,
            executor="sim", entry="main", run_id="replaced",
            batch_info=None, key=key, retries=1,
        )
    assert placement["replacements"] == 1
    assert placement["shards"][0]["device"] == 1
    assert all(values_equal(a, b) for a, b in zip(baseline, values))
    assert pool.devices[0].failures == 1
    assert pool.devices[1].executed == 1


def test_all_devices_failing_raises(backprop):
    compiled, _, args, _, key = backprop
    with DevicePool(
        [NVIDIA_GTX780TI, NVIDIA_GTX780TI],
        fault_plans=[BROKEN, BROKEN],
    ) as pool:
        with pytest.raises(DeviceFault):
            pool.run(
                compiled.host, compiled.core, args,
                executor="sim", entry="main", run_id="doomed",
                batch_info=None, key=key, retries=1,
            )


def test_all_breakers_open_refuses_transiently(backprop):
    compiled, _, args, _, key = backprop
    pool = DevicePool(
        [NVIDIA_GTX780TI], breaker_threshold=1, breaker_recovery_s=60.0
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
    with DevicePool(
        [NVIDIA_GTX780TI, NVIDIA_GTX780TI],
        fault_plans=[BROKEN, BROKEN],
        breaker_threshold=1,
        breaker_recovery_s=60.0,
    ) as pool:
        kwargs = dict(
            executor="sim", entry="main", batch_info=None, key=key,
            retries=0, fallback=True,
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
    pool = DevicePool(
        [NVIDIA_GTX780TI], breaker_threshold=1, breaker_recovery_s=0.0
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


def test_pool_validates_construction():
    with pytest.raises(ValueError):
        DevicePool([])
    with pytest.raises(ValueError):
        DevicePool([NVIDIA_GTX780TI], fault_plans=[None, None])
