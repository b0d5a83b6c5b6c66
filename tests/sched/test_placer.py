"""The placement decision: whole on one device, or split k ways.

:meth:`repro.sched.Placer.plan` is a pure function of prices (as a
function of device and rows), backlogs, affinity and which devices are
healthy, so it is tested as a table; the last tests pin the decision
against the real cost model at the sizes the two benchmarks use.
"""

import numpy as np
import pytest

from repro.bench.pinned import SHARD_SIZES
from repro.bench.suite import BENCHMARKS
from repro.gpu.costmodel import request_price_us
from repro.gpu.device import NVIDIA_GTX780TI
from repro.pipeline import compile_cache_key, compile_program
from repro.sched import (
    DevicePool,
    Placer,
    ShardPlanner,
    analyze_shardable,
)
from repro.sched.placer import AFFINITY_BONUS

LAUNCH_US = 35.0


def device(dev_id, backlog_us=0.0, affinity=False, launch_us=LAUNCH_US):
    return {
        "device": dev_id,
        "backlog_us": backlog_us,
        "affinity": affinity,
        "launch_overhead_us": launch_us,
    }


def devices(n):
    return [device(i) for i in range(n)]


def linear(fixed, per_row, speed=None):
    """``fixed + per_row * rows`` µs, divided by the device's speed."""
    speed = speed or {}
    return lambda dev, rows: (fixed + per_row * rows) / speed.get(dev, 1.0)


def layout(plan):
    return [(s.device_id, s.lo, s.hi) for s in plan.shards]


#: name -> (price, healthy devices, batch, min_shard, expected layout)
TABLE = {
    # 1024 rows do not fill one device: every split saves nothing.
    "flat price stays whole": (
        linear(100.0, 0.0), devices(4), 1024, 256,
        [(0, 0, 1024)],
    ),
    # 151.2 whole; two ways saves 25.6 for 35, four ways 38.4 for 105.
    "a saving smaller than its launches stays whole": (
        linear(100.0, 0.05), devices(4), 1024, 256,
        [(0, 0, 1024)],
    ),
    # 202.4 whole; 151.2 + 35 two ways; 134.1 + 70 three; 125.6 + 105 four.
    "the split stops where one more launch costs more than it saves": (
        linear(100.0, 0.1), devices(4), 1024, 256,
        [(0, 0, 512), (1, 512, 1024)],
    ),
    # 1034 whole; 266 + 105 four ways.
    "a batch past saturation uses every device": (
        linear(10.0, 1.0), devices(4), 1024, 256,
        [(0, 0, 256), (1, 256, 512), (2, 512, 768), (3, 768, 1024)],
    ),
    # Device 1 is twice as fast: it leads the plan with twice the rows
    # (305 vs 310 µs), and the split pays device 0's launch, 60 — 370
    # against 455 whole on device 1.
    "heterogeneous: rows follow speed, the split pays the slower launch": (
        linear(10.0, 1.0, speed={1: 2.0}),
        [device(0, launch_us=60.0), device(1, launch_us=25.0)],
        900, 1,
        [(1, 0, 600), (0, 600, 900)],
    ),
    # ... and at 150 that launch is too dear: 310 + 150.
    "heterogeneous: a dear launch keeps the request on the fast device": (
        linear(10.0, 1.0, speed={1: 2.0}),
        [device(0, launch_us=150.0), device(1, launch_us=25.0)],
        900, 1,
        [(1, 0, 900)],
    ),
    "one healthy device has nothing to split over": (
        linear(10.0, 1.0), [device(2)], 1024, 256,
        [(2, 0, 1024)],
    ),
    "only healthy devices are planned on": (
        linear(10.0, 1.0), [device(1), device(3)], 1024, 256,
        [(1, 0, 512), (3, 512, 1024)],
    ),
    "batch < 2 * min_shard cannot split": (
        linear(10.0, 1.0), devices(4), 511, 256,
        [(0, 0, 511)],
    ),
    "min_shard bounds k": (
        linear(10.0, 1.0), devices(4), 767, 256,
        [(0, 0, 384), (1, 384, 767)],
    ),
    "an unpriceable program is placed whole": (
        lambda dev, rows: None, devices(4), 1 << 20, 256,
        [(0, 0, 1 << 20)],
    ),
    # 64 whole, 32 + 32 two ways: exactly equal.
    "an exact tie goes to fewer shards": (
        linear(0.0, 0.0625), [device(i, launch_us=32.0) for i in range(4)],
        1024, 256,
        [(0, 0, 1024)],
    ),
    "a busy device is passed over": (
        linear(100.0, 0.0), [device(0, backlog_us=1000.0), device(1)],
        1024, 256,
        [(1, 0, 1024)],
    ),
    # The two fastest are 0 and 1 (ties by id): a split would wait for
    # device 0's queue (2000 + 522), whole on device 1 does not (1034).
    "a split that would wait on a backlog loses to an idle device": (
        linear(10.0, 1.0), [device(0, backlog_us=2000.0), device(1)],
        1024, 256,
        [(1, 0, 1024)],
    ),
    "affinity discounts the estimate": (
        linear(100.0, 0.0), [device(0), device(1), device(2, affinity=True)],
        1024, 256,
        [(2, 0, 1024)],
    ),
}


@pytest.mark.parametrize("case", list(TABLE))
def test_decision_table(case):
    price, candidates, batch, min_shard, expected = TABLE[case]
    chosen, considered = Placer().plan(
        candidates, price, batch, ShardPlanner(min_shard)
    )
    assert layout(chosen) == expected
    # Everything weighed is on record: the request whole on each
    # healthy device, then one split per k the planner's floor allows.
    n = len(candidates)
    top = max(1, min(n, batch // min_shard)) if price(0, 1) is not None else 1
    assert [len(p.shards) for p in considered] == [1] * n + list(
        range(2, top + 1)
    )
    assert chosen in considered
    assert all(p.completion_us >= chosen.completion_us for p in considered)


def test_a_request_that_is_not_shardable_is_placed_whole():
    # No planner: the request has no batch dimension to split along.
    chosen, considered = Placer().plan(devices(4), linear(10.0, 1.0))
    assert layout(chosen) == [(0, 0, 0)]
    assert len(considered) == 4


def test_the_record_prices_a_split_at_one_launch_per_extra_shard():
    chosen, considered = Placer().plan(
        [device(0, backlog_us=8.0, affinity=True), device(1, launch_us=60.0)],
        linear(10.0, 1.0), 1024, ShardPlanner(256),
    )
    assert chosen.record() == {
        "k": 2,
        "devices": [0, 1],
        # Device 0: 8 + 522 * 0.85 = 451.7; device 1: 522.
        "makespan_us": 522.0,
        "split_cost_us": 60.0,
        "completion_us": 582.0,
    }
    assert [p.record()["completion_us"] for p in considered] == [
        8.0 + 1034.0 * (1.0 - AFFINITY_BONUS), 1034.0, 582.0,
    ]


def test_no_candidates_is_an_error():
    with pytest.raises(ValueError):
        Placer().plan([], linear(1.0, 1.0))


# -- against the real cost model --------------------------------------------

#: The e2e ``serve_pool`` workload's requests (``benchmarks/e2e``,
#: ``POOL_SIZES``): the four shardable programs at batch 1024.
POOL_SIZES = {
    "Backprop": {"n": 16, "h": 1024},
    "Myocyte": {"w": 1024, "eq": 4, "steps": 2},
    "MRI-Q": {"x": 1024, "k": 8},
    "LocVolCalib": {"outer": 1024, "nx": 4, "ny": 4, "numT": 2},
}


@pytest.mark.parametrize("name", list(POOL_SIZES))
def test_a_batch_that_does_not_fill_one_device_is_placed_whole(name):
    """Regression: the pool split every batch of >= 2 * min_shard rows,
    paying four dispatches to save 1 % of simulated time."""
    spec = BENCHMARKS[name]
    prog = spec.program()
    compiled = compile_program(prog)
    args = spec.args_at(np.random.default_rng(3), POOL_SIZES[name])
    pool = DevicePool([NVIDIA_GTX780TI] * 4)
    _, cost, _, placement = pool.run(
        compiled.host, compiled.core, args,
        executor="jit", entry="main", run_id=f"whole/{name}",
        batch_info=analyze_shardable(prog),
        key=compile_cache_key(prog),
    )
    stats = pool.stats()
    assert placement["mode"] == "whole"
    assert placement["batch"] == 1024
    assert len(placement["shards"]) == 1
    assert placement["makespan_us"] == cost.total_us
    assert stats["whole"] == 1 and stats["shards_executed"] == 1
    # The splits were weighed (2-, 3- and 4-way), and each saves less
    # simulated time than its extra launches cost.
    decision = placement["decision"]
    assert [c["k"] for c in decision["considered"]] == [1, 1, 1, 1, 2, 3, 4]
    whole = decision["chosen"]
    assert whole["k"] == 1 and whole["split_cost_us"] == 0.0
    for c in decision["considered"][4:]:
        assert c["split_cost_us"] == 35.0 * (c["k"] - 1)
        assert 0 < whole["makespan_us"] - c["makespan_us"] < c["split_cost_us"]


@pytest.mark.parametrize("count", (2, 4))
@pytest.mark.parametrize("name", list(SHARD_SIZES))
def test_a_batch_past_saturation_is_split(name, count):
    """The other side of the choice: at ``bench shard``'s sizes every
    multi-device pool splits (priced only — ``repro bench shard`` runs
    them)."""
    prog = BENCHMARKS[name].program()
    host = compile_program(prog).host
    sizes = SHARD_SIZES[name]
    dim = analyze_shardable(prog).dim

    def price(dev, rows):
        return request_price_us(host, {**sizes, dim: rows}, NVIDIA_GTX780TI)

    chosen, _ = Placer().plan(
        devices(count), price, sizes[dim], ShardPlanner()
    )
    assert 2 <= len(chosen.shards) <= count
    assert chosen.completion_us < price(0, sizes[dim])


def test_the_affinity_bonus_is_a_constant_discount_below_one():
    """The bonus has one home, the constant: a placer takes no setting,
    and a device that already ran the program is priced at that
    fraction off its estimate, behind its own backlog."""
    assert 0.0 < AFFINITY_BONUS < 1.0
    with pytest.raises(TypeError):
        Placer(affinity_bonus=0.2)
    placer = Placer()
    assert placer.score(10.0, 100.0, False) == 110.0
    assert placer.score(10.0, 100.0, True) == 10.0 + 100.0 * (
        1.0 - AFFINITY_BONUS
    )
