"""Per-layer probes for the traced run: timed calls into each package's
public functions on the workload's own programs and inputs, plus the
counts those calls return.  Nothing here touches a private attribute;
a layer is measured from outside or not at all.

Times are geomeans over programs of per-program medians (ms), at nominal
host speed like the end-to-end metrics (``measure.HostSpeed`` readings
between the probe calls); a metric defined as a difference is the
difference of two such geomeans.
"""

from __future__ import annotations

import collections
import shutil
import statistics
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.checker import check_program
from repro.core.values import ArrayValue
from repro.obs import metering
from repro.pipeline import ArtifactCache, compile_cache_key, compile_program
from repro.runtime import ExecutionPolicy
from repro.sched import DevicePool, analyze_shardable, merge_results, slice_args
from repro.serve import Server, ServeRequest

from measure import (
    HostSpeed, Spans, geomean, geomean_of_medians, percentile, run_in_flight,
)
from workloads import DEVICE, OUT_DIR, Case, differs_from_oracle, wrong_rung

#: Which layer each pass's time is charged to.
PASS_LAYERS = {
    "inline": "simplify",
    "simplify": "simplify",
    "post-fusion-simplify": "simplify",
    "post-flatten-simplify": "simplify",
    "fusion": "fusion",
    "flatten": "flatten",
    "lower": "backend",
    "coalescing": "memory",
    "tiling": "memory",
    "memory-plan": "memory",
}

COMPILE_REPEATS = 3
RUN_REPEATS = 5
VECTOR_REPEATS = 3
SERVE_ROUNDS = 5
#: Length of the in-flight phase behind ``serve.sat_vs_seq_ratio``: five
#: or so rounds, because the first one or two after a sequential phase
#: run up to twice as fast as the steady state.
SATURATION_S = 3.0


class Probe:
    """Collects timed samples and the spans that go with them."""

    def __init__(self, workload, spans: Spans) -> None:
        self.workload = workload
        self.cases: List[Case] = workload.order
        self.speed: HostSpeed = workload.speed
        self.spans = spans
        self.parent = spans.new_id()
        #: metric -> program -> (seconds, start and end of the timed
        #: call they were observed in).
        self._raw: Dict[str, Dict[str, List[Tuple[float, float, float]]]] = (
            collections.defaultdict(lambda: collections.defaultdict(list))
        )
        self.attempted = 0
        self.failures: List[Tuple[str, str]] = []
        self.notes: Dict[str, Any] = {}
        #: Start and end of the latest timed call.
        self.call = (0.0, 0.0)
        self._start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        """Raw wall time of the latest timed call."""
        return self.call[1] - self.call[0]

    def time(self, metric: str, case: Case, fn: Callable, *args, **kwargs):
        self.speed.read(HostSpeed.MIN_GAP_S)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.call = (t0, t1)
        self.record(metric, case, t1 - t0)
        self.spans.add(
            metric, t0, t1, layer=metric.split(".")[0],
            parent=self.parent, program=case.name,
        )
        return out

    def record(self, metric: str, case: Case, seconds: float) -> None:
        """``seconds`` of the latest timed call (all of it, or a part
        the call itself reported)."""
        self._raw[metric][case.name].append((seconds, *self.call))

    def samples(self, metric: str) -> Dict[str, List[float]]:
        """program -> seconds at nominal host speed."""
        return {
            name: [s / self.speed.during(t0, t1) for s, t0, t1 in v]
            for name, v in self._raw[metric].items()
        }

    def ms(self, metric: str) -> float:
        samples = self.samples(metric)
        return geomean_of_medians(samples) * 1e3 if samples else 0.0

    def per_program_ms(self) -> Dict[str, Dict[str, float]]:
        return {
            metric: {
                name: statistics.median(v) * 1e3
                for name, v in self.samples(metric).items()
            }
            for metric in self._raw
        }

    def pooled(self, metric: str) -> List[float]:
        return [s for v in self.samples(metric).values() for s in v]

    def check(self, case: Case, values, report=None) -> None:
        """Probe calls that produce program output are held to the same
        oracle as the workload's operations."""
        self.attempted += 1
        reason = differs_from_oracle(case, values)
        if reason is None and report is not None:
            reason = wrong_rung(report)
        if reason is not None:
            self.failures.append((case.name, reason))

    def close(self) -> None:
        self.spans.add(
            "probes", self._start, time.perf_counter(),
            layer="bench", sid=self.parent,
        )


def _counter_total(registry, prefix: str) -> int:
    counters = registry.snapshot()["counters"]
    return int(sum(v for k, v in counters.items() if k.startswith(prefix)))


# -- pipeline and the passes --------------------------------------------------


def probe_compiler(p: Probe) -> Dict[str, float]:
    jit = ExecutionPolicy(executor="jit")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="probe-artifacts-", dir=OUT_DIR)
    cache = ArtifactCache(tmp)
    rollbacks = fused = kernels = transpiles = fallbacks = 0
    artifact_bytes = 0
    lookups = hits = 0
    try:
        for case in p.cases:
            fresh = []
            for _ in range(COMPILE_REPEATS):
                p.time(
                    "pipeline.core_stage_ms", case, compile_program,
                    case.prog, artifact_cache=None, stop_after="core",
                )
                compiled = p.time(
                    "pipeline.compile", case, compile_program,
                    case.prog, artifact_cache=None,
                )
                by_layer: Dict[str, float] = collections.defaultdict(float)
                for t in compiled.pass_timings:
                    by_layer[PASS_LAYERS.get(t.name, "pipeline")] += (
                        t.duration_us / 1e6
                    )
                # What the driver itself costs: type checks, guards,
                # validation and fingerprints around the passes.
                p.record(
                    "pipeline.driver_self_ms", case,
                    p.elapsed - sum(by_layer.values()),
                )
                for layer in set(PASS_LAYERS.values()):
                    p.record(f"{layer}.pass_ms", case, by_layer[layer])
                rollbacks += len(compiled.diagnostics)
                fresh.append(compiled)
                p.time("checker.check_ms", case, check_program, case.prog)
                p.time(
                    "pipeline.fingerprint_ms", case, compile_cache_key,
                    case.prog, compiled.options, "main",
                )
            fused += fresh[0].fusion_stats.total
            kernels += len(fresh[0].estimate(case.full, DEVICE).kernel_costs)

            # The first run of a fresh compile pays transpilation; a
            # second fresh compile is run under the public metering
            # registry for the counts (metering itself costs time, so
            # the timed run and the counted run are kept apart).
            values, _, report = p.time(
                "vm.jit.first_run_ms", case, fresh[0].execute,
                case.args, DEVICE, policy=jit,
            )
            p.check(case, values, report)
            with metering() as registry:
                fresh[1].execute(case.args, DEVICE, policy=jit)
            transpiles += _counter_total(registry, "jit.transpiles")
            fallbacks += _counter_total(registry, "vm.fallback")

            populated = compile_program(case.prog, artifact_cache=cache)
            fp = populated.fingerprints["host"]
            before = cache.stats.snapshot()
            for _ in range(COMPILE_REPEATS):
                artifact = p.time(
                    "pipeline.artifact_load_ms", case, cache.load, "host", fp
                )
                path = p.time(
                    "pipeline.artifact_store_ms", case, cache.store, artifact
                )
                warm = compile_program(case.prog, artifact_cache=cache)
                if warm.from_artifact != "host":
                    p.failures.append((case.name, "warm compile missed"))
            after = cache.stats.snapshot()
            hits += after["hits"] - before["hits"]
            lookups += (
                after["hits"] - before["hits"]
                + after["misses"] - before["misses"]
            )
            artifact_bytes += path.stat().st_size
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    compiles = p.pooled("pipeline.compile")
    p.notes["pipeline.op_ms_p95.n"] = len(compiles)
    out = {
        "pipeline.core_stage_ms": p.ms("pipeline.core_stage_ms"),
        "pipeline.host_stage_ms": (
            p.ms("pipeline.compile") - p.ms("pipeline.core_stage_ms")
        ),
        "pipeline.driver_self_ms": p.ms("pipeline.driver_self_ms"),
        "pipeline.fingerprint_ms": p.ms("pipeline.fingerprint_ms"),
        "pipeline.artifact_store_ms": p.ms("pipeline.artifact_store_ms"),
        "pipeline.artifact_load_ms": p.ms("pipeline.artifact_load_ms"),
        "pipeline.artifact_bytes": artifact_bytes,
        "pipeline.artifact_hit_share": hits / lookups,
        "pipeline.rollbacks": rollbacks,
        "pipeline.op_ms_p95": percentile(compiles, 95.0) * 1e3,
        "checker.check_ms": p.ms("checker.check_ms"),
        "fusion.fused_count": fused,
        "backend.kernel_count": kernels,
        "vm.jit.first_run_ms": p.ms("vm.jit.first_run_ms"),
        "vm.jit.transpiles": transpiles,
        "vm.jit.fallbacks": fallbacks,
    }
    for layer in set(PASS_LAYERS.values()):
        out[f"{layer}.pass_ms"] = p.ms(f"{layer}.pass_ms")
    return out


# -- runtime, vm, gpu, interp -------------------------------------------------


def probe_executors(p: Probe) -> Dict[str, float]:
    from repro.vm import JitEngine, VectorEngine

    jit = ExecutionPolicy(executor="jit")
    retries = fallbacks = 0
    launches, allocs, sim_us, oracle_ms = [], [], [], []
    for case in p.cases:
        compiled = case.compiled
        opts = compiled.options

        def engine_run(engine_cls):
            engine = engine_cls(
                DEVICE, coalescing=opts.coalescing, in_place=opts.in_place,
                prog=compiled.core,
            )
            return engine.run(compiled.host, case.args)

        compiled.execute(case.args, DEVICE, policy=jit)  # transpile
        for _ in range(RUN_REPEATS):
            values, cost, report = p.time(
                "runtime.execute", case, compiled.execute,
                case.args, DEVICE, policy=jit,
            )
            p.time("vm.jit.engine_run_ms", case, engine_run, JitEngine)
            p.time(
                "gpu.estimate_ms", case, compiled.estimate, case.sizes, DEVICE
            )
        p.check(case, values, report)
        for _ in range(VECTOR_REPEATS):
            values, _ = p.time(
                "vm.vector.engine_run_ms", case, engine_run, VectorEngine
            )
        p.check(case, values)
        retries += report.retries
        fallbacks += report.fallbacks
        launches.append(cost.launches)
        allocs.append(cost.mem_alloc_count)
        sim_us.append(cost.total_us)
        oracle_ms.append(case.oracle_s * 1e3)

    engine_ms = p.ms("vm.jit.engine_run_ms")
    engine_s = p.samples("vm.jit.engine_run_ms")
    return {
        "runtime.resilience_overhead_ms": p.ms("runtime.execute") - engine_ms,
        "runtime.retries": retries,
        "runtime.fallbacks": fallbacks,
        "vm.jit.engine_run_ms": engine_ms,
        # Launch overhead where kernels are tiny, numerics where not.
        "vm.jit.us_per_launch": geomean(
            statistics.median(engine_s[c.name]) * 1e6 / n
            for c, n in zip(p.cases, launches)
        ),
        "vm.vector.engine_run_ms": p.ms("vm.vector.engine_run_ms"),
        "gpu.estimate_ms": p.ms("gpu.estimate_ms"),
        "gpu.launches_per_op": statistics.fmean(launches),
        "gpu.sim_us_run": geomean(sim_us),
        "gpu.mem_allocs_per_op": statistics.fmean(allocs),
        "interp.oracle_ms": geomean(oracle_ms),
    }


# -- serve --------------------------------------------------------------------


class _InFlightClient:
    """What :func:`measure.run_in_flight` needs of a workload, bound to
    the probe's own server."""

    op_name = "serve.submit+result"
    layer = "serve"
    result_timeout_s = 120.0

    def __init__(self, server, workload) -> None:
        self.server = server
        self.round_order = workload.round_order
        self.speed = workload.speed
        self.executor = workload.executor

    def submit(self, case):
        return self.server.submit(
            ServeRequest(case.prog, case.args, executor=self.executor)
        )

    def verify(self, case, result) -> Optional[str]:
        return None if result.status == "ok" else f"status {result.status}"


def probe_serve(p: Probe) -> Dict[str, float]:
    """A server built the way the workload builds it (``Server()`` for
    workloads that do not serve), one sequential client with ``submit``
    and ``result()`` timed apart, the same calls made directly while
    the server idles, and a short in-flight phase on the same server."""
    wl = p.workload
    client = None
    results = collections.defaultdict(list)
    server = Server(**wl.server_kwargs).start()
    try:
        client = _InFlightClient(server, wl)
        for case in p.cases:
            server.warm(case.prog)
            client.submit(case).result(timeout=client.result_timeout_s)
        for _ in range(SERVE_ROUNDS):
            for case in p.cases:
                p.speed.read(HostSpeed.MIN_GAP_S)
                t0 = time.perf_counter()
                handle = client.submit(case)
                t1 = time.perf_counter()
                result = handle.result(timeout=client.result_timeout_s)
                t2 = time.perf_counter()
                p.call = (t0, t2)
                p.record("serve.submit_ms", case, t1 - t0)
                p.record("serve.call", case, t2 - t0)
                p.record("serve.reported_latency_ms", case, result.latency_s)
                sid = p.spans.add(
                    "serve.call", t0, t2, layer="serve", parent=p.parent,
                    program=case.name, backend=result.backend,
                )
                p.spans.add("serve.submit", t0, t1, layer="serve", parent=sid)
                p.spans.add("serve.wait", t1, t2, layer="serve", parent=sid)
                results[case.name].append(result)
                p.check(
                    case, result.values if result.ok else None,
                    result.run_report,
                )
        # The server is idle now: what the same work costs without it,
        # on the backend it reported.
        for case in p.cases:
            backend = results[case.name][-1].backend
            policy = ExecutionPolicy(executor=backend)
            case.compiled.execute(case.args, DEVICE, policy=policy)
            for _ in range(SERVE_ROUNDS):
                p.time(
                    "serve.execute_equiv_ms", case, case.compiled.execute,
                    case.args, DEVICE, policy=policy,
                )
        saturated = run_in_flight(client, SATURATION_S)
        health = server.health()
    finally:
        server.stop()

    flat = [r for rs in results.values() for r in rs]
    backends = collections.Counter(r.backend for r in flat)
    calls = p.pooled("serve.call")
    cache = health["compile_cache"]
    call_ms = p.ms("serve.call")
    equiv_ms = p.ms("serve.execute_equiv_ms")
    p.attempted += saturated.attempted
    p.failures += saturated.failures
    p.notes["serve.call_ms_p95.n"] = len(calls)
    p.notes["serve.default_executor"] = server.default_executor
    p.notes["serve.backend"] = backends.most_common(1)[0][0]
    return {
        "serve.submit_ms": p.ms("serve.submit_ms"),
        # The rest of the call, so that submit + wait and equivalent +
        # overhead are the same total (geomeans do not add on their own).
        "serve.wait_ms": call_ms - p.ms("serve.submit_ms"),
        "serve.execute_equiv_ms": equiv_ms,
        "serve.overhead_ms": call_ms - equiv_ms,
        "serve.overhead_share": (call_ms - equiv_ms) / call_ms,
        "serve.reported_latency_ms": p.ms("serve.reported_latency_ms"),
        "serve.call_ms_p95": percentile(calls, 95.0) * 1e3,
        "serve.sat_vs_seq_ratio": (
            statistics.median(saturated.rates()) / (len(calls) / sum(calls))
        ),
        "serve.interactive_share": (
            sum(r.lane == "interactive" for r in flat) / len(flat)
        ),
        "serve.cache_hit_share": (
            cache["hits"] / (cache["hits"] + cache["misses"])
        ),
        "serve.backend_share_jit": backends["jit"] / len(flat),
        "serve.backend_share_vector": backends["vector"] / len(flat),
        "serve.backend_share_other": (
            1.0 - (backends["jit"] + backends["vector"]) / len(flat)
        ),
        "serve.degraded_count": sum(bool(r.degraded_from) for r in flat),
        "serve.shed_count": health["shed"],
        "serve.deadline_count": health["deadline_exceeded"],
        "serve.error_count": health["errors"],
    }


# -- sched --------------------------------------------------------------------


def _shard_bounds(batch: int, shards: int = 4) -> List[Tuple[int, int]]:
    shards = max(1, min(shards, batch))
    edges = [batch * i // shards for i in range(shards + 1)]
    return list(zip(edges, edges[1:]))


def probe_sched(p: Probe, backend: str) -> Dict[str, float]:
    """A four-device pool driven without a server, on ``backend`` (the
    rung the serve probe saw requests land on), against the same program
    run whole on one device."""
    policy = ExecutionPolicy(executor=backend)
    makespans = []
    pool = DevicePool([DEVICE] * 4).start()
    try:
        for case in p.cases:
            compiled = case.compiled
            opts = compiled.options
            info = p.time(
                "sched.analyze_ms", case, analyze_shardable, case.prog, "main"
            )
            if info is not None:
                bounds = _shard_bounds(info.batch_size(case.args))
                p.time(
                    "sched.slice_ms", case,
                    lambda: [
                        slice_args(case.args, info, lo, hi)
                        for lo, hi in bounds
                    ],
                )
                parts = [
                    tuple(
                        ArrayValue(v.data[lo:hi], v.elem)
                        for v in case.expected
                    )
                    for lo, hi in bounds
                ]
                p.time(
                    "sched.merge_ms", case, merge_results,
                    parts, len(case.expected),
                )
            compiled.execute(case.args, DEVICE, policy=policy)
            for i in range(RUN_REPEATS):
                values, _, report, placement = p.time(
                    "sched.pool_run_ms", case, pool.run,
                    compiled.host, compiled.core, case.args,
                    executor=backend, entry="main",
                    run_id=f"probe-{case.name}-{i}",
                    coalescing=opts.coalescing, in_place=opts.in_place,
                    batch_info=info,
                )
                p.time(
                    "sched.whole_run", case, compiled.execute,
                    case.args, DEVICE, policy=policy,
                )
            p.check(case, values, report)
            makespans.append(placement["makespan_us"])
        stats = pool.stats()
    finally:
        pool.stop()
    pool_ms = p.ms("sched.pool_run_ms")
    return {
        "sched.analyze_ms": p.ms("sched.analyze_ms"),
        "sched.slice_ms": p.ms("sched.slice_ms"),
        "sched.merge_ms": p.ms("sched.merge_ms"),
        "sched.pool_run_ms": pool_ms,
        "sched.pool_overhead_ms": pool_ms - p.ms("sched.whole_run"),
        "sched.sharded_share": stats["sharded"] / stats["requests"],
        "sched.shards_per_op": stats["shards_executed"] / stats["requests"],
        "sched.hedges_launched": stats["hedges_launched"],
        "sched.replacements": stats["replacements"],
        "sched.makespan_us": geomean(makespans),
    }


def run_all(workload, spans: Spans) -> Tuple[Dict[str, float], Probe]:
    p = Probe(workload, spans)
    metrics = {}
    metrics.update(probe_compiler(p))
    metrics.update(probe_executors(p))
    metrics.update(probe_serve(p))
    metrics.update(probe_sched(p, p.notes["serve.backend"]))
    p.close()
    return metrics, p
