"""Differential test: the device pool must be semantically invisible.

Every benchmark in the suite, executed through pools of 1, 2 and 4
heterogeneous devices under both device executors, must produce
results *bit-identical* to an unsharded single-device run with zero
interpreter fallbacks — whether the request was sharded, or took
whole-request placement because the analysis rejected it.
"""

import numpy as np
import pytest

from repro.bench.programs import ALL_NAMES
from repro.bench.suite import BENCHMARKS
from repro.gpu.device import AMD_W8100, NVIDIA_GTX780TI, SIM_SMALL
from repro.pipeline import compile_cache_key, compile_program
from repro.runtime import EXECUTORS, ExecutionPolicy, run_resilient
from repro.sched import DevicePool, ShardPlanner, analyze_shardable
from tests.helpers import split_friendly, tune

#: Heterogeneous pool composition, truncated to the requested count —
#: on profiles where the cost model predicts a split wins at these
#: small scales.
POOL_PROFILES = [
    split_friendly(p)
    for p in (NVIDIA_GTX780TI, AMD_W8100, SIM_SMALL, NVIDIA_GTX780TI)
]

_CACHE = {}


def _prepared(name):
    if name not in _CACHE:
        spec = BENCHMARKS[name]
        prog = spec.program()
        _CACHE[name] = (
            compile_program(prog),
            analyze_shardable(prog),
            spec.small_args(np.random.default_rng(11)),
            compile_cache_key(prog),
        )
    return _CACHE[name]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("name", list(ALL_NAMES))
def test_pool_results_are_bit_identical(name, executor):
    compiled, info, args, key = _prepared(name)
    baseline, _, base_report = run_resilient(
        compiled.host, compiled.core, args, NVIDIA_GTX780TI,
        policy=ExecutionPolicy(executor=executor, fallback=False),
        entry="main", run_id=f"{name}/{executor}/base",
    )
    assert base_report.fallbacks == 0
    sharded_runs = 0
    for count in (1, 2, 4):
        # A 2-row shard floor so even small-scale batches may shard on
        # the multi-device pools.
        with tune(
            DevicePool(POOL_PROFILES[:count], hedge_min_wall_s=30.0),
            planner=ShardPlanner(2),
        ) as pool:
            values, _, report, placement = pool.run(
                compiled.host, compiled.core, args,
                executor=executor, entry="main",
                run_id=f"{name}/{executor}/x{count}",
                batch_info=info, key=key,
            )
        assert report.fallbacks == 0, (
            f"{name} x{count} {executor}: fell back to the interpreter"
        )
        assert len(values) == len(baseline)
        for e, g in zip(baseline, values):
            ed = getattr(e, "data", None)
            if ed is not None:
                assert np.array_equal(ed, g.data), (
                    f"{name} x{count} {executor}: not bit-identical"
                )
            else:
                assert e.value == g.value
        if placement["mode"] == "sharded":
            sharded_runs += 1
    if info is not None:
        assert sharded_runs > 0, f"{name}: shardable but never sharded"
    else:
        assert sharded_runs == 0
