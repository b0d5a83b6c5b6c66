"""Property tests for the placement decision.

Whatever the prices, backlogs, affinities and pool composition,
:meth:`repro.sched.Placer.plan` must hand the pool an *exact* ordered
partition of the batch over healthy devices only (merging is a plain
concatenation, so anything else corrupts results silently), priced the
way it says it is, and no plan it weighed may be predicted to finish
strictly sooner than the one it chose.
"""

from hypothesis import given, settings, strategies as st

from repro.sched import Placer, ShardPlanner

POOL = st.lists(
    st.fixed_dictionaries(
        {
            "device": st.integers(0, 15),
            "backlog_us": st.floats(0.0, 1e4),
            "affinity": st.booleans(),
            "launch_overhead_us": st.floats(0.0, 100.0),
            "speed": st.floats(0.1, 10.0),
        }
    ),
    min_size=1,
    max_size=6,
    unique_by=lambda d: d["device"],
)


@settings(max_examples=300, deadline=None)
@given(
    pool=POOL,
    batch=st.integers(1, 100_000),
    min_shard=st.integers(1, 4096),
    fixed_us=st.floats(0.0, 500.0),
    per_row_us=st.floats(0.0, 1.0),
    priceable=st.booleans(),
)
def test_plan_is_an_exact_partition_and_nothing_weighed_beats_it(
    pool, batch, min_shard, fixed_us, per_row_us, priceable
):
    speed = {d["device"]: d["speed"] for d in pool}

    def price(dev, rows):
        if not priceable:
            return None
        return (fixed_us + per_row_us * rows) / speed[dev]

    placer = Placer()
    chosen, considered = placer.plan(
        pool, price, batch, ShardPlanner(min_shard)
    )
    # An exact, ordered partition of range(batch)...
    shards = chosen.shards
    assert shards[0].lo == 0 and shards[-1].hi == batch
    for i, (prev, cur) in enumerate(zip(shards, shards[1:])):
        assert prev.hi == cur.lo and cur.size > 0
        assert (prev.index, cur.index) == (i, i + 1)
    # ... over healthy devices only, at most one shard each, no more
    # shards than the planner's floor allows.
    ids = [s.device_id for s in shards]
    assert len(set(ids)) == len(ids) and set(ids) <= set(speed)
    assert len(shards) <= max(1, min(len(pool), batch // min_shard))
    if not priceable:
        assert len(shards) == 1
    # Priced as documented: the slowest shard at its own rows on its
    # own device, plus one launch per shard beyond the first.
    by_id = {d["device"]: d for d in pool}
    assert chosen.makespan_us == max(
        placer.score(
            by_id[s.device_id]["backlog_us"],
            price(s.device_id, s.size) or 0.0,
            by_id[s.device_id]["affinity"],
        )
        for s in shards
    )
    assert chosen.split_cost_us == sum(
        by_id[s.device_id]["launch_overhead_us"] for s in shards[1:]
    )
    # Nothing weighed finishes strictly sooner; an equal one has no
    # fewer shards.
    assert chosen in considered
    for plan in considered:
        assert plan.completion_us >= chosen.completion_us
        if plan.completion_us == chosen.completion_us:
            assert len(plan.shards) >= len(shards)
