"""The seven workloads: what is set up, which public call is timed, and
what makes an operation fail.

Each workload drives one public entry point of the system from the
outside — nothing here reads a private attribute or adds a timer inside
``src/``.  ``BENCHMARK.json`` records why each one exists.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.suite import BENCHMARKS
from repro.core.values import values_equal
from repro.gpu.device import NVIDIA_GTX780TI
from repro.interp import run_program
from repro.pipeline import ArtifactCache, CompiledProgram, compile_program
from repro.runtime import ExecutionPolicy
from repro.serve import Server, ServeRequest

from measure import HostSpeed, Phase, run_in_flight, run_rounds

OUT_DIR = Path(__file__).resolve().parent / "out"

#: The device every simulated-cost number is priced on (the paper's
#: Table 1 NVIDIA column).
DEVICE = NVIDIA_GTX780TI

#: Oracle comparison tolerance (executors may reassociate float sums).
RTOL = ATOL = 1e-4

#: Large enough that generated kernel bodies dominate; four programs
#: because the oracle costs 2-5 s each at these sizes.
PERF_PROGRAMS = ("K-means", "NN", "LavaMD", "Mandelbrot")

#: The four shardable programs at batch 1024: four shards of 256 rows
#: at the pool's default ``min_shard``.
POOL_SIZES: Dict[str, Dict[str, int]] = {
    "Backprop": {"n": 16, "h": 1024},
    "Myocyte": {"w": 1024, "eq": 4, "steps": 2},
    "MRI-Q": {"x": 1024, "k": 8},
    "LocVolCalib": {"outer": 1024, "nx": 4, "ny": 4, "numT": 2},
}


@dataclass
class Case:
    """One program at one size: inputs, the reference compile made in
    set-up, and (once :func:`run_oracle` has run) the expected output."""

    name: str
    sizes: Dict[str, int]
    #: ``Dataset.full`` — the paper-scale sizes the simulated-cost
    #: metrics are priced at.
    full: Dict[str, int]
    prog: Any
    args: List[Any]
    compiled: CompiledProgram
    expected: Optional[Tuple[Any, ...]] = None
    #: What the oracle took, at nominal host speed.
    oracle_s: float = 0.0

    def input_hash(self) -> str:
        h = hashlib.sha256()
        for v in self.args:
            data = getattr(v, "data", None)
            if data is not None:
                h.update(np.ascontiguousarray(data).tobytes())
            else:
                h.update(repr(v.value).encode())
        return h.hexdigest()[:16]

    def sim_signature(self, compiled: CompiledProgram) -> Tuple[float, int, int]:
        """What the cost model says about the generated code at paper
        scale — a deterministic fingerprint of fusion, flattening,
        coalescing and memory planning having done the same thing."""
        cost = compiled.estimate(self.full, DEVICE)
        return cost.total_us, cost.mem_peak_bytes, len(cost.kernel_costs)


def run_oracle(cases: Sequence[Case], speed: HostSpeed) -> float:
    """Fill in every case's expected output from the reference
    interpreter run on the *uncompiled* program; returns the wall time
    spent (reported, and kept out of ``setup_s``)."""
    total = 0.0
    for case in cases:
        speed.read(HostSpeed.MIN_GAP_S)
        t0 = time.perf_counter()
        case.expected = run_program(case.prog, case.args)
        t1 = time.perf_counter()
        speed.read(HostSpeed.MIN_GAP_S)
        case.oracle_s = (t1 - t0) / speed.during(t0, t1)
        total += t1 - t0
    return total


def differs_from_oracle(case: Case, values) -> Optional[str]:
    if values is None or len(values) != len(case.expected):
        return "wrong number of results"
    for got, want in zip(values, case.expected):
        if not values_equal(got, want, rtol=RTOL, atol=ATOL):
            return "values differ from the reference interpreter"
    return None


def wrong_rung(report) -> Optional[str]:
    """A run that fell back to the interpreter measured a different
    rung than the one the workload names."""
    if report is None:
        return "no run report (served from the interpreter rung)"
    if report.fallbacks > 0:
        return f"{report.fallbacks} interpreter fallback(s)"
    return None


class Workload:
    """Base: builds the cases, runs warm-up rounds, measures rounds with
    one closed-loop client."""

    name = ""
    #: Span name and layer of the timed call.
    op_name = ""
    layer = ""
    programs: Sequence[str] = tuple(BENCHMARKS.names())
    #: The executor the operation asks for (None = ask for nothing).
    executor: Optional[str] = "jit"
    #: Keyword arguments the serving probes construct their ``Server``
    #: with, so they measure the same configuration as the workload.
    server_kwargs: Dict[str, Any] = {}
    warmup_rounds = 2

    def __init__(self, seed: int, speed: Optional[HostSpeed] = None) -> None:
        self.seed = seed
        #: The run's host-speed readings; set-up, the measured phase and
        #: the probes all add to it.
        self.speed = speed if speed is not None else HostSpeed()
        self.cases: List[Case] = []
        self.order: List[Case] = []

    # -- set-up ---------------------------------------------------------------

    def sizes_for(self, name: str) -> Dict[str, int]:
        return dict(BENCHMARKS[name].dataset.small)

    def set_up(self) -> None:
        """Everything a caller pays before the first measured operation:
        program construction, input generation, compiles, whatever
        :meth:`prepare` adds, and the warm-up rounds."""
        rng = np.random.default_rng(self.seed)
        for name in self.programs:
            self.speed.read(HostSpeed.MIN_GAP_S)
            spec = BENCHMARKS[name]
            sizes = self.sizes_for(name)
            prog = spec.program()
            self.cases.append(
                Case(
                    name=name,
                    sizes=sizes,
                    full=dict(spec.dataset.full),
                    prog=prog,
                    args=spec.args_at(rng, sizes),
                    compiled=compile_program(prog, artifact_cache=None),
                )
            )
        self.order = [self.cases[i] for i in rng.permutation(len(self.cases))]
        self.prepare()
        for _ in range(self.warmup_rounds):
            for case in self.order:
                self.speed.read(HostSpeed.MIN_GAP_S)
                self.operate(case)

    def prepare(self) -> None:
        pass

    def tear_down(self) -> None:
        pass

    def round_order(self, index: int) -> List[Case]:
        """The programs in round ``index``'s order: seed-derived, and a
        new one each round.  What an operation costs depends on what ran
        just before it (by a quarter, for the sub-millisecond ones), so
        under one fixed order a program's median would be a property of
        the seed; over many orders it is a property of the program."""
        rng = random.Random(f"{self.seed}/{index}")
        return rng.sample(self.order, len(self.order))

    # -- the operation --------------------------------------------------------

    def operate(self, case: Case) -> Any:
        raise NotImplementedError

    def verify(self, case: Case, result: Any) -> Optional[str]:
        """Why this operation failed, or None.  Runs after every
        operation, outside the timed interval."""
        raise NotImplementedError

    def verify_final(self, case: Case, result: Any) -> Optional[str]:
        """A second, costlier check applied to each program's last
        result only."""
        return None

    def measure(self, seconds, rounds=None, spans=None) -> Phase:
        return run_rounds(self, seconds, rounds, spans)

    def config(self) -> Dict[str, Any]:
        """The effective configuration, for the result file."""
        return {
            "operation": self.op_name,
            "executor_asked": self.executor,
            "programs": {c.name: c.sizes for c in self.cases},
            "input_hashes": {c.name: c.input_hash() for c in self.cases},
            "order": [c.name for c in self.order],
            "warmup_rounds": self.warmup_rounds,
        }


# -- compile ------------------------------------------------------------------


class _Compile(Workload):
    op_name = "pipeline.compile_program"
    layer = "pipeline"
    #: What ``CompiledProgram.from_artifact`` must read.
    expect_from: Optional[str] = None

    def prepare(self) -> None:
        self._signatures = {
            c.name: c.sim_signature(c.compiled) for c in self.cases
        }

    def verify(self, case, compiled):
        if compiled.diagnostics:
            return f"pass guard intervened: {compiled.diagnostics[0]}"
        if compiled.from_artifact != self.expect_from:
            return (
                f"from_artifact is {compiled.from_artifact!r}, "
                f"expected {self.expect_from!r}"
            )
        # Compiles draw fresh names, so outputs cannot be compared as
        # text; the cost model's verdict on them can.
        if case.sim_signature(compiled) != self._signatures[case.name]:
            return "generated code is priced differently from set-up's compile"
        return None

    def verify_final(self, case, compiled):
        # Executing a fresh compile costs a jit transpile (2-40 ms, an
        # order of magnitude above a warm compile), so only each
        # program's last output is run against the oracle; every other
        # output is tied to it by ``verify``.
        if compiled is None:
            return None
        values, _, report = compiled.execute(
            case.args, DEVICE, policy=ExecutionPolicy(executor="jit")
        )
        return wrong_rung(report) or differs_from_oracle(case, values)


class CompileCold(_Compile):
    name = "compile_cold"

    def operate(self, case):
        return compile_program(case.prog, artifact_cache=None)


class CompileWarm(_Compile):
    name = "compile_warm"
    expect_from = "host"

    def prepare(self) -> None:
        super().prepare()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._dir = tempfile.mkdtemp(prefix="artifacts-", dir=OUT_DIR)
        self.cache = ArtifactCache(self._dir)
        for case in self.cases:
            compile_program(case.prog, artifact_cache=self.cache)

    def operate(self, case):
        return compile_program(case.prog, artifact_cache=self.cache)

    def tear_down(self) -> None:
        shutil.rmtree(self._dir, ignore_errors=True)

    def config(self):
        return {**super().config(), "artifact_cache": self.cache.stats.snapshot()}


# -- run ----------------------------------------------------------------------


class RunSmall(Workload):
    name = "run_small"
    op_name = "runtime.execute"
    layer = "runtime"

    def prepare(self) -> None:
        self.policy = ExecutionPolicy(executor=self.executor)

    def operate(self, case):
        return case.compiled.execute(case.args, DEVICE, policy=self.policy)

    def verify(self, case, result):
        values, _, report = result
        return wrong_rung(report) or differs_from_oracle(case, values)


class RunPerf(RunSmall):
    name = "run_perf"
    programs = PERF_PROGRAMS

    def sizes_for(self, name):
        return dict(BENCHMARKS[name].dataset.perf)


# -- serve --------------------------------------------------------------------


class ServeSeq(Workload):
    name = "serve_seq"
    op_name = "serve.call"
    layer = "serve"
    result_timeout_s = 120.0

    def prepare(self) -> None:
        self.server = Server(**self.server_kwargs).start()
        for case in self.cases:
            self.server.warm(case.prog)

    def tear_down(self) -> None:
        self.server.stop()

    def request(self, case) -> ServeRequest:
        return ServeRequest(case.prog, case.args, executor=self.executor)

    def submit(self, case):
        return self.server.submit(self.request(case))

    def operate(self, case):
        return self.server.call(
            self.request(case), timeout=self.result_timeout_s
        )

    def verify(self, case, result):
        if result.status != "ok":
            return f"status {result.status}: {result.error}"
        if result.degraded_from:
            return f"degraded from {result.degraded_from}"
        expected = self.executor or self.server.default_executor
        if result.backend != expected:
            return f"served on {result.backend!r}, not {expected!r}"
        return wrong_rung(result.run_report) or differs_from_oracle(
            case, result.values
        )

    def config(self):
        health = self.server.health()
        return {
            **super().config(),
            "server": {
                "kwargs": {k: repr(v) for k, v in self.server_kwargs.items()},
                "default_executor": self.server.default_executor,
                "ladder": list(self.server.ladder),
                "workers": health["workers"],
                "queue_capacity": health["queue_capacity"],
            },
            "health": {
                k: health[k]
                for k in ("admitted", "shed", "completed",
                          "deadline_exceeded", "errors", "compile_cache")
            },
        }


class ServeSat(ServeSeq):
    name = "serve_sat"
    op_name = "serve.submit+result"
    #: 2 x 4 = 8 in flight, half the default queue capacity of 16, so
    #: nothing is shed by design.
    clients = 2
    depth = 4

    def measure(self, seconds, rounds=None, spans=None):
        return run_in_flight(
            self, seconds, rounds, spans, self.clients, self.depth
        )

    def config(self):
        return {**super().config(), "clients": self.clients,
                "in_flight_per_client": self.depth}


class ServePool(ServeSeq):
    name = "serve_pool"
    programs = tuple(POOL_SIZES)
    #: Nothing is asked for: the default executor and ladder.
    executor = None
    server_kwargs = {"devices": [DEVICE] * 4}

    def sizes_for(self, name):
        return dict(POOL_SIZES[name])

    def config(self):
        pool = self.server.health()["pool"]
        pool["devices"] = [d["profile"] for d in pool["devices"]]
        return {**super().config(), "pool": pool}


WORKLOADS = {
    cls.name: cls
    for cls in (CompileCold, CompileWarm, RunSmall, RunPerf,
                ServeSeq, ServeSat, ServePool)
}
