"""Chaos acceptance: a pool with one totally broken device must keep
serving every request.

Device 0 fails 100% of its kernel launches, forever.  Placement will
keep picking it (it prices identically to its healthy twins) until its
breaker trips; each failed shard must be transparently re-placed on a
healthy device, every result must stay bit-identical to a fault-free
run, and after its breaker's ``failure_threshold`` consecutive failures
the broken device must be routed around entirely.
"""

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.gpu.device import NVIDIA_GTX780TI
from repro.gpu.faults import FaultPlan
from repro.pipeline import compile_cache_key, compile_program
from repro.runtime import ExecutionPolicy, run_resilient
from repro.sched import DevicePool, ShardPlanner, analyze_shardable
from repro.serve.breaker import BreakerState
from tests.helpers import split_friendly, tune

#: The cost model splits a toy batch only where a split is predicted
#: to win.
EAGER = split_friendly(NVIDIA_GTX780TI)

BROKEN = FaultPlan(seed=0, launch_failure_rate=1.0, max_consecutive=10**9)


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
    with tune(
        DevicePool(
            [EAGER] * 4,
            fault_plans=[BROKEN, None, None, None],
            hedge_min_wall_s=30.0,
        ),
        # Stays open for the whole test.
        breaker=dict(failure_threshold=2, recovery_s=600.0),
        planner=ShardPlanner(16),
        retries=1,
    ) as pool:
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
    with tune(
        DevicePool(
            [EAGER] * 3, fault_plans=[BROKEN, None, None], hedge_min_wall_s=30.0
        ),
        planner=ShardPlanner(16),
        retries=1,
    ) as pool:
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
