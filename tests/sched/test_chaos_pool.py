"""Chaos acceptance: a pool with one totally broken device must keep
serving every request.

Device 0 fails 100% of its kernel launches, forever.  Placement will
keep picking it (it prices identically to its healthy twins) until its
breaker trips; each failed shard must be transparently re-placed on a
healthy device, every result must stay bit-identical to a fault-free
run, and after its breaker's ``failure_threshold`` consecutive failures
the broken device must be routed around entirely.  The last test takes
its seeds from ``CHAOS_SEEDS`` (default ``0,1,2``; CI's ``chaos`` job
runs three more): there the healthy devices lose launches too, so
in-place retries and re-placement meet in one request.
"""

import os

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.gpu.device import NVIDIA_GTX780TI
from repro.gpu.faults import FaultPlan
from repro.pipeline import compile_cache_key, compile_program
from repro.runtime import ExecutionPolicy, run_resilient
from repro.sched import DevicePool, ShardPlanner, analyze_shardable
from repro.serve.breaker import BreakerState
from tests.helpers import KWayPlacer, split_friendly, tune

#: The cost model splits a toy batch only where a split is predicted
#: to win.
EAGER = split_friendly(NVIDIA_GTX780TI)

BROKEN = FaultPlan(seed=0, launch_failure_rate=1.0, max_consecutive=10**9)

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")]


def _prepare(name, sizes=None):
    spec = BENCHMARKS[name]
    prog = spec.program()
    rng = np.random.default_rng(23)
    args = spec.args_at(rng, sizes) if sizes else spec.small_args(rng)
    return (
        compile_program(prog),
        analyze_shardable(prog),
        args,
        compile_cache_key(prog),
    )


def test_pool_survives_one_totally_broken_device():
    cases = [
        _prepare("Backprop", {"n": 16, "h": 512}),  # shardable
        _prepare("NN"),                             # whole placement
    ]
    baselines = [
        run_resilient(
            c.host, c.core, args, NVIDIA_GTX780TI,
            policy=ExecutionPolicy(executor="sim", fallback=False),
            entry="main", run_id="chaos-base",
        )[0]
        for c, _, args, _ in cases
    ]
    pool = tune(
        DevicePool(
            [EAGER] * 4,
            fault_plans=[BROKEN, None, None, None],
        ),
        # Stays open for the whole test.
        breaker=dict(failure_threshold=2, recovery_s=600.0),
        planner=ShardPlanner(16),
        retries=1,
    )
    completed = 0
    for round_ in range(4):
        for (compiled, info, args, key), base in zip(cases, baselines):
            values, _, report, placement = pool.run(
                compiled.host, compiled.core, args,
                executor="sim", entry="main",
                run_id=f"chaos-{round_}-{compiled.host.name}",
                batch_info=info, key=key,
            )
            assert report.fallbacks == 0
            for e, g in zip(base, values):
                ed = getattr(e, "data", None)
                if ed is not None:
                    assert np.array_equal(ed, g.data)
                else:
                    assert e.value == g.value
            completed += 1
    stats = pool.stats()
    dev0 = pool.devices[0]
    # Every request completed despite the broken device...
    assert completed == 8
    assert stats["requests"] == 8
    # ...which really was exercised and really did fail...
    assert dev0.failures >= 2
    assert dev0.executed == 0
    assert stats["replacements"] >= 2
    # ...until its breaker opened and the pool routed around it.
    assert dev0.breaker.state is BreakerState.OPEN
    assert dev0.breaker.transitions.get("closed->open", 0) >= 1
    # Later requests never see the broken device in their
    # candidate set (its breaker refuses at placement time).
    _, _, _, placement = pool.run(
        cases[0][0].host, cases[0][0].core, cases[0][2],
        executor="sim", entry="main", run_id="chaos-final",
        batch_info=cases[0][1], key=cases[0][3],
    )
    assert 0 in placement["skipped_open"]
    assert all(c["device"] != 0 for c in placement["candidates"])
    # Healthy devices absorbed all the work.
    assert sum(d.executed for d in pool.devices[1:]) > 0


def test_sharded_request_heals_across_replacement():
    """A sharded request whose shard lands on the broken device must
    re-place just that shard and still merge bit-identically."""
    compiled, info, args, key = _prepare("Backprop", {"n": 16, "h": 512})
    assert info is not None
    baseline, _, _ = run_resilient(
        compiled.host, compiled.core, args, NVIDIA_GTX780TI,
        policy=ExecutionPolicy(executor="sim", fallback=False),
        entry="main", run_id="heal-base",
    )
    pool = tune(
        DevicePool([EAGER] * 3, fault_plans=[BROKEN, None, None]),
        planner=ShardPlanner(16),
        retries=1,
    )
    values, _, report, placement = pool.run(
        compiled.host, compiled.core, args,
        executor="sim", entry="main", run_id="heal",
        batch_info=info, key=key,
    )
    assert placement["mode"] == "sharded"
    assert placement["replacements"] >= 1
    assert report.fallbacks == 0
    assert all(s["device"] != 0 for s in placement["shards"])
    for e, g in zip(baseline, values):
        assert np.array_equal(e.data, g.data)


def _flaky(seed):
    """Two devices that lose a launch now and then: a site faults at
    most once per stint, so a stint with a few retries gets through."""
    return [
        FaultPlan(
            seed=seed + 1_000_003 * i, launch_failure_rate=0.4,
            max_consecutive=1,
        )
        for i in (1, 2)
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_retries_in_place_and_re_placement_meet_in_one_report(seed):
    """Device 0 is broken; devices 1 and 2 run the seeded transient
    chaos plans.  Each request (NN whole, Backprop three ways, each on
    a fresh pool) starts a stint on device 0, is re-placed, and may
    retry in place on its new device: its one report counts every
    attempt of every stint, and its values are bit-identical."""
    cases = [
        (_prepare("NN"), 1),
        (_prepare("Backprop", {"n": 16, "h": 512}), 3),
    ]
    retried_after_replacement = 0
    for (compiled, info, args, key), k in cases:
        baseline, _, _ = run_resilient(
            compiled.host, compiled.core, args, NVIDIA_GTX780TI,
            policy=ExecutionPolicy(executor="sim", fallback=False),
            entry="main", run_id="base",
        )
        pool = tune(
            DevicePool([EAGER] * 3, fault_plans=[BROKEN, *_flaky(seed)]),
            breaker=dict(failure_threshold=10**6),
            planner=ShardPlanner(16),
            placer=KWayPlacer(k),
            retries=4,
        )
        values, _, report, placement = pool.run(
            compiled.host, compiled.core, args,
            executor="sim", entry="main", run_id=f"meet-{seed}",
            batch_info=info if k > 1 else None, key=key, fallback=True,
        )
        for e, g in zip(baseline, values):
            assert np.array_equal(
                getattr(e, "data", e), getattr(g, "data", g)
            )
        shards = placement["shards"]
        assert len(shards) == k and placement["replacements"] >= 1
        stints = k + placement["replacements"]
        # Each stint's attempts are its retries plus its first; every
        # attempt but a stint's winning one ended in a fault.
        assert report.attempts - report.retries == stints
        won_on_device = sum(s["device"] is not None for s in shards)
        assert report.faults == report.attempts - won_on_device
        assert report.fallbacks == k - won_on_device
        assert pool.devices[0].executed == 0
        assert pool.devices[0].failures >= 1
        # The stint on device 0 retried ``pool.retries`` times; any
        # retry beyond that happened in place after a re-placement.
        broken_stints = pool.devices[0].failures
        if report.retries > broken_stints * pool.retries:
            retried_after_replacement += 1
    assert retried_after_replacement >= 1
