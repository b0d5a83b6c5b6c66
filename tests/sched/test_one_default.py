"""Each serving setting has one home.

A :class:`~repro.serve.Server` states only its own settings and a
:class:`~repro.sched.DevicePool` only the ones it reads itself; the
breaker, shard floor and placer of a default pool are those classes'
own defaults, and no constructor passes them through.  A caller that
needs another value swaps the pool's attribute before it starts.
"""

import inspect

from repro.sched import DevicePool, Placer, ShardPlanner
from repro.sched import pool as pool_mod
from repro.serve import Server
from repro.serve.breaker import CircuitBreaker


def test_a_default_server_pool_uses_each_part_default():
    server = Server()
    pool = server.pool
    stock = CircuitBreaker()
    for dev in pool.devices:
        assert dev.breaker.name == f"dev{dev.id}"
        assert dev.breaker.failure_threshold == stock.failure_threshold
        assert dev.breaker.recovery_s == stock.recovery_s
    assert pool.planner.min_shard == ShardPlanner().min_shard
    assert pool.placer.affinity_bonus == Placer().affinity_bonus
    assert pool.retries == pool_mod.RETRIES


def _params(fn):
    return [p for p in inspect.signature(fn).parameters if p != "self"]


def test_no_constructor_passes_a_part_setting_through():
    assert _params(Server.__init__) == [
        "queue_capacity", "options", "fallback", "flight_recorder",
        "devices", "fault_plans", "artifact_cache",
    ]
    assert _params(DevicePool.__init__) == [
        "profiles", "fault_plans", "hedge_min_wall_s",
    ]
    assert _params(DevicePool.run) == [
        "host", "core", "args", "executor", "entry", "run_id",
        "coalescing", "in_place", "deadline", "batch_info", "key",
        "pass_timings", "fallback", "size_env",
    ]
