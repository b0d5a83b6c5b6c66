"""The device pool's placement memo: a hit is exactly the placer's verdict.

``DevicePool.run`` memoises :meth:`Placer.plan`'s verdict on the host
program (``HostProgram.placements``), keyed by the placer, the planner
and its ``min_shard``, the sizes, the batch and each healthy device's
id, profile, backlog and affinity.  The exactness test draws random
pool states — backlogs, affinities, breakers opened by faults and by
hand, placers and planners swapped between requests, batched and
unbatched requests — and checks every served ``placement`` against a
fresh placer's plan from the same candidates and prices.  It takes its
seeds from ``CHAOS_SEEDS`` (default ``0,1,2``; CI's ``chaos`` job runs
more): there device 0 never completes a launch and device 1 loses some,
so breakers trip and shards are re-placed between placements.
"""

import collections
import os
import pickle
import random
import sys
import threading

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.gpu.costmodel import MEMO_SIZE, request_price_us, size_env_from_args
from repro.gpu.device import AMD_W8100, NVIDIA_GTX780TI, SIM_SMALL
from repro.gpu.faults import FaultPlan, broken_device
from repro.pipeline import compile_cache_key, compile_program
from repro.sched import DevicePool, Placer, ShardPlanner, analyze_shardable
from repro.sched import pool as pool_mod
from repro.serve.breaker import BreakerState, CircuitBreaker
from tests.helpers import KWayPlacer, split_friendly

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")]

#: Two devices on which the cost model predicts a split wins, two on
#: which it does not.
PROFILES = [
    split_friendly(NVIDIA_GTX780TI), split_friendly(AMD_W8100),
    NVIDIA_GTX780TI, SIM_SMALL,
]

class EvenPlanner(ShardPlanner):
    """Equal shards whatever the devices' speeds: a planner whose plans
    differ from the default one's at the same ``min_shard``."""

    def plan(self, batch, devices):
        return super().plan(batch, [(d, 1.0) for d, _ in devices])


#: What a placement record holds that ``Placer.plan`` was given.
_INPUT = ("device", "profile", "backlog_us", "affinity", "launch_overhead_us")


@pytest.fixture(scope="module")
def backprop():
    spec = BENCHMARKS["Backprop"]
    prog = spec.program()
    compiled = compile_program(prog)
    args = spec.args_at(np.random.default_rng(5), {"n": 16, "h": 512})
    return compiled, analyze_shardable(prog), args, compile_cache_key(prog)


@pytest.fixture
def plan_calls(monkeypatch):
    """Counts :meth:`Placer.plan` calls (a ``KWayPlacer``'s included:
    it asks its base class once)."""
    calls = collections.Counter()
    plan = Placer.plan

    def spy(self, *args, **kwargs):
        calls["plan"] += 1
        return plan(self, *args, **kwargs)

    monkeypatch.setattr(Placer, "plan", spy)
    return calls


def _run(pool, compiled, args, info, key, run_id):
    return pool.run(
        compiled.host, compiled.core, args, executor="jit", entry="main",
        run_id=run_id, batch_info=info, key=key, fallback=True,
    )


def _fresh_verdict(pool, host, args, info, placement, placer, planner):
    """What a fresh placer computes from the candidates the placement
    records and the cost model's prices."""
    env = size_env_from_args(host, args)
    batch = info.batch_size(args) if info is not None else 0

    def price(dev_id, rows):
        at = env if info is None or rows == batch else {**env, info.dim: rows}
        return request_price_us(host, at, pool.devices[dev_id].profile)

    candidates = [
        {k: c[k] for k in _INPUT} for c in placement["candidates"]
    ]
    chosen, considered = placer.plan(
        candidates, price, batch,
        planner if info is not None else None,
    )
    decision = {
        "considered": [p.record() for p in considered],
        "chosen": chosen.record(),
    }
    return candidates, decision


def _mutables(obj, out):
    """The ids of every dict and list reachable from ``obj``."""
    if isinstance(obj, (dict, list)):
        out.add(id(obj))
        for v in obj.values() if isinstance(obj, dict) else obj:
            _mutables(v, out)
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_every_placement_is_the_placer_s_fresh_verdict(
    backprop, plan_calls, seed
):
    compiled, info, args, key = backprop
    host = compiled.host
    host.placements.clear()
    rng = random.Random(seed)
    now = [0.0]
    pool = DevicePool(
        PROFILES,
        fault_plans=[
            broken_device(seed),
            FaultPlan(seed=seed, launch_failure_rate=0.3),
            None,
            None,
        ],
    )
    pool.retries = 0
    for d in pool.devices:
        d.breaker = CircuitBreaker(
            f"dev{d.id}", failure_threshold=2, recovery_s=1.0,
            clock=lambda: now[0],
        )
    placers = [Placer(), KWayPlacer(2), KWayPlacer(3)]
    planners = [ShardPlanner(16), EvenPlanner(16), ShardPlanner(128)]
    results, seen_open, served = [], set(), 0
    for i in range(48):
        # Backlogs and affinities redrawn, from few values, before some
        # requests only, so verdicts repeat.
        for d in pool.devices:
            if rng.random() < 0.3:
                d.backlog_us = rng.choice([0.0, 250.0, 4000.0])
                d.seen_keys = {key} if rng.random() < 0.5 else set()
        if rng.random() < 0.15:
            victim = rng.choice(pool.devices).breaker
            for _ in range(victim.failure_threshold):
                victim.record_failure()
        if rng.random() < 0.2:
            now[0] += 1.5  # open breakers go half-open
        draw = rng.random()
        if draw < 0.2:
            pool.planner = ShardPlanner(rng.choice([16, 128, 512]))
        elif draw < 0.3:
            pool.planner.min_shard = rng.choice([16, 128, 512])
        elif draw < 0.6:
            pool.planner = rng.choice(planners)
        batched = info if rng.random() < 0.7 else None
        healthy = [
            d for d in pool.devices
            if d.breaker.state is not BreakerState.OPEN
        ]
        seen_open.update(d.id for d in pool.devices if d not in healthy)
        if not healthy:
            continue
        # A k-way placer only where the placer weighs a k-way plan.
        top = 1 if batched is None else min(
            len(healthy), batched.batch_size(args) // pool.planner.min_shard
        )
        pool.placer = rng.choice(
            [p for p in placers if getattr(p, "k", 1) <= max(top, 1)]
        )
        # Fresh objects of the same kinds and settings.
        placer = KWayPlacer(pool.placer.k) if isinstance(
            pool.placer, KWayPlacer
        ) else Placer()
        planner = type(pool.planner)(pool.planner.min_shard)
        before = plan_calls["plan"]
        placement = _run(
            pool, compiled, args, batched, key, f"exact-{seed}-{i}"
        )[3]
        served += plan_calls["plan"] - before
        candidates, decision = _fresh_verdict(
            pool, host, args, batched, placement, placer, planner
        )
        assert [c["device"] for c in placement["candidates"]] == [
            d.id for d in healthy
        ]
        assert placement["candidates"] == candidates, i
        assert placement["decision"] == decision, i
        results.append(placement)
    assert seen_open, "no breaker opened: the run tests nothing stale"
    assert 0 < served < len(results), (
        "the memo never hit, or hit every time"
    )
    owners = collections.Counter()
    for placement in results:
        owners.update(_mutables(placement, set()))
    assert max(owners.values()) == 1, "two results share a record object"


def test_identical_requests_place_once_per_affinity_state(
    backprop, plan_calls
):
    compiled, info, args, key = backprop
    compiled.host.placements.clear()
    pool = DevicePool([NVIDIA_GTX780TI] * 4)
    placements = [
        _run(pool, compiled, args, info, key, f"same-{i}")[3]
        for i in range(6)
    ]
    # The first request finds no device with affinity; every later one
    # finds the device the first ran on, with every backlog at 0.0.
    assert plan_calls["plan"] == 2
    assert [c["affinity"] for c in placements[0]["candidates"]] == [
        False
    ] * 4
    assert all(
        (p["candidates"], p["decision"])
        == (placements[1]["candidates"], placements[1]["decision"])
        for p in placements[2:]
    )
    assert all(p["decision"] is not placements[1]["decision"]
               for p in placements[2:])


def test_concurrent_requests_keep_the_memo_within_its_bound(
    backprop, monkeypatch
):
    compiled, info, args, key = backprop
    host = compiled.host
    host.placements.clear()
    inserts = collections.Counter()
    insert = pool_mod.memo_insert

    def spy(memo, k, value):
        insert(memo, k, value)
        inserts["placements"] += memo is host.placements
        assert len(memo) <= MEMO_SIZE

    monkeypatch.setattr(pool_mod, "memo_insert", spy)
    pool = DevicePool([NVIDIA_GTX780TI] * 4)
    errors = []

    def client(seed):
        rng = random.Random(seed)
        try:
            for i in range(40):
                # Work another caller booked: the backlogs this request
                # sees are its own draw plus whatever is in flight.
                dev = rng.choice(pool.devices)
                est = rng.uniform(1.0, 500.0)
                dev.book(est)
                try:
                    _run(pool, compiled, args, info, key, f"c{seed}-{i}")
                finally:
                    dev.settle(est)
        except BaseException as e:  # handed to the main thread
            errors.append(e)

    threads = [threading.Thread(target=client, args=(s,)) for s in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the inserts finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert inserts["placements"] > MEMO_SIZE
    assert len(host.placements) <= MEMO_SIZE


def test_a_pickled_host_program_carries_no_placement_memo(backprop):
    compiled, info, args, key = backprop
    host = compiled.host
    _run(DevicePool([NVIDIA_GTX780TI] * 2), compiled, args, info, key, "p")
    assert host.placements
    thawed = pickle.loads(pickle.dumps(host))
    assert thawed.placements == {}
    assert thawed == host
