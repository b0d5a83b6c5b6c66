"""Each serving setting has one home.

A :class:`~repro.serve.Server` states only its own settings and a
:class:`~repro.sched.DevicePool` only the ones it reads itself; the
breaker, shard floor and placer of a default pool are those classes'
own defaults, and no constructor passes them through.  A caller that
needs another value swaps the pool's attribute before it starts.
The environment holds one setting too: the artifact cache's root.
"""

import ast
import inspect
from pathlib import Path

import repro
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


def _env_reads():
    """Every environment variable name ``src/repro`` reads through
    ``os.environ``/``os.getenv``; a read whose name is not a literal or
    a module-level string constant is reported by its location."""
    root = Path(repro.__file__).parent
    names = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        consts = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        parent = {
            child: node
            for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                assert not {a.name for a in node.names} & {"environ", "getenv"}
            if not (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ("environ", "getenv")
            ):
                continue
            up, key = parent[node], None
            if isinstance(up, ast.Subscript):
                key = up.slice
            elif isinstance(up, ast.Call) and up.func is node and up.args:
                key = up.args[0]  # os.getenv(NAME)
            elif isinstance(up, ast.Attribute) and up.attr == "get":
                call = parent[up]
                key = call.args[0] if isinstance(call, ast.Call) else None
            if isinstance(key, ast.Constant):
                names.add(key.value)
            elif isinstance(key, ast.Name) and key.id in consts:
                names.add(consts[key.id])
            else:
                names.add(f"{path.relative_to(root)}:{node.lineno}")
    return names


def test_the_only_environment_knob_is_the_artifact_dir():
    assert _env_reads() == {"REPRO_ARTIFACT_DIR"}
