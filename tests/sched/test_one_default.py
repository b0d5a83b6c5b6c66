"""Each serving setting has one home.

A :class:`~repro.serve.Server` states only its own settings and a
:class:`~repro.sched.DevicePool` only the ones it reads itself; the
breaker, shard floor and placer of a default pool are those classes'
own defaults, and no constructor passes them through.  A caller that
needs another value swaps the pool's attribute before its first
request; a pool owns no thread.
A fault plan and an execution policy hold only their own fields (no
wall-clock fault, one retry cap).  The environment holds one setting
too: the artifact cache's root, which only the compile reads.  A
layout and the in-place mode are compile decisions, so no run-time
signature names them.
"""

import ast
import dataclasses
import importlib
import inspect
import textwrap
from pathlib import Path

import repro
from repro.gpu.device import NVIDIA_GTX780TI
from repro.gpu.faults import FaultPlan
from repro.runtime import ExecutionPolicy
from repro.sched import DevicePool, Placer, ShardPlanner
from repro.sched import placer as placer_mod
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
    assert type(pool.placer) is Placer
    assert pool.placer.score(0.0, 1.0, True) == 1.0 - placer_mod.AFFINITY_BONUS
    assert pool.retries == pool_mod.RETRIES


def _params(fn):
    return [p for p in inspect.signature(fn).parameters if p != "self"]


def test_no_constructor_passes_a_part_setting_through():
    assert _params(Server.__init__) == [
        "queue_capacity", "options", "fallback", "flight_recorder",
        "devices", "fault_plans", "artifact_cache",
    ]
    assert _params(DevicePool.__init__) == ["profiles", "fault_plans"]
    assert _params(DevicePool.run) == [
        "host", "core", "args", "executor", "entry", "run_id",
        "coalescing", "in_place", "deadline", "batch_info", "key",
        "pass_timings", "fallback", "size_env",
    ]


#: Where a layout or the in-place mode was once also a run-time flag.
#: Both are compile decisions now: a layout lives on ``Kernel.layouts``
#: and ``ManifestStmt``, the mode on ``HostProgram.in_place``.
_DECIDED_AT_COMPILE = (
    "repro.gpu.costmodel:kernel_cost",
    "repro.gpu.costmodel:estimate_program",
    "repro.gpu.costmodel:_estimate_stmts",
    "repro.gpu.costmodel:request_price_us",
    "repro.gpu.simulator:DeviceAccounting.__init__",
    "repro.gpu.simulator:GpuSimulator.__init__",
    "repro.runtime:make_engine",
    "repro.runtime:run_resilient",
    "repro.runtime:interpreter_floor",
    "repro.pipeline.driver:CompiledProgram.execute",
    "repro.pipeline.driver:CompiledProgram.estimate",
    "repro.serve.server:Server._classify",
    "repro.serve.server:Server._execute",
)


def _resolve(path):
    module, _, qualname = path.partition(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _names_used(fn):
    """Every parameter, keyword, attribute and variable name in ``fn``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def test_layout_and_in_place_are_not_run_time_flags():
    flags = {"coalescing", "in_place"}
    for path in _DECIDED_AT_COMPILE:
        fn = _resolve(path)
        assert not flags & set(inspect.signature(fn).parameters), path
        if not path.endswith(":interpreter_floor"):
            # (The floor evaluates in the mode its host program says.)
            assert not flags & _names_used(fn), path


def test_only_the_compile_and_the_frozen_harness_take_them():
    """Lowering sets the mode and the reference interpreter has one;
    ``DevicePool.run`` and the ``JitEngine`` shim accept both flags,
    unused, and ``CompilerOptions.coalescing`` reads ``disabled_passes``
    back, for ``benchmarks/e2e/probes.py`` alone.  No function is
    named after a flag and no parameter takes one otherwise."""
    root = Path(repro.__file__).parent
    flags = {"coalescing", "in_place"}
    takers = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                args = node.args.args + node.args.kwonlyargs
                if flags & ({a.arg for a in args} | {node.name}):
                    takers.add(f"{path.relative_to(root)}:{node.name}")
    assert takers == {
        "backend/codegen.py:lower_program",
        "interp/interpreter.py:__init__",
        "interp/interpreter.py:run_program",
        "pipeline/options.py:coalescing",
        "sched/pool.py:run",
        "vm/jit/engine.py:JitEngine",
    }


def test_the_pool_owns_no_thread():
    """A task runs on the thread that needs its result: a device has no
    queue, and no module starts a per-device pool thread."""
    pool = DevicePool([NVIDIA_GTX780TI] * 2)
    assert not any(hasattr(d, "queue") for d in pool.devices)
    assert pool.start() is pool and pool.stop() is None  # harness shims
    root = Path(repro.__file__).parent
    assert [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        if "repro-sched-dev" in path.read_text()
    ] == []


def _fields(cls):
    return [f.name for f in dataclasses.fields(cls)]


def test_a_fault_plan_and_a_policy_hold_only_their_own_fields():
    assert _fields(FaultPlan) == [
        "seed", "launch_failure_rate", "memory_fault_rate",
        "timeout_rate", "fatal_rate", "max_consecutive",
    ]
    assert _fields(ExecutionPolicy) == [
        "max_retries", "fallback", "executor",
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


def test_only_the_compile_driver_asks_for_the_default_cache():
    """``$REPRO_ARTIFACT_DIR`` is read once, by the compile: everything
    downstream (the jit's generated code too) uses the cache the compile
    went through, so ``artifact_cache=None`` means no cache anywhere."""
    root = Path(repro.__file__).parent
    defined, referenced = set(), set()
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                name, into = node.name, defined
            elif isinstance(node, ast.Name):
                name, into = node.id, referenced
            elif isinstance(node, ast.Attribute):
                name, into = node.attr, referenced
            elif isinstance(node, ast.alias):
                name, into = node.name, referenced
            else:
                continue
            if name == "default_artifact_cache":
                into.add(where)
    assert defined == {"pipeline/artifact.py"}
    assert referenced == {"pipeline/driver.py"}
