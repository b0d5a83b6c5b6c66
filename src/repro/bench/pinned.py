"""The pinned artefacts: everything ``python -m repro bench`` writes
that is committed — ``BENCH_mem.json``, ``BENCH_shard.json`` and the
paper's own evaluation under ``benchmarks/results/`` (Table 1,
Fig. 13, Table 2, the four §6.1.1 ablations).

Each is a deterministic function of the source tree — simulated time,
heap accounting and bit-identity checks, no wall clock (the only code
that times the system is ``benchmarks/e2e``) — so the files are
committed and ``tests/bench/test_committed_artefacts.py`` regenerates
them, compares every field or line and applies the acceptance gates
(for the paper's rows, the reproduction criteria).  :data:`PINNED` is
the one table both ``python -m repro bench <what>`` and that test
read.
"""

from __future__ import annotations

import json
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional,
    Tuple,
)

import numpy as np

from ..errors import ValidationError
from ..gpu.device import NVIDIA_GTX780TI, DeviceProfile
from ..obs import get_logger
from ..pipeline import CompilerOptions, compile_program
from ..runtime import DEFAULT_EXECUTOR
from .figures import (
    render_figure13, render_impact, render_table1, render_table2,
)
from .paper_numbers import IMPACT
from .runner import run_impact, table1_runtimes, table2_datasets
from .suite import BENCHMARKS

__all__ = ["PINNED", "mem_suite", "shard_suite", "SHARD_SIZES"]


def mem_suite(
    names: Optional[List[str]] = None,
    device: DeviceProfile = NVIDIA_GTX780TI,
) -> Dict:
    """Device-memory footprint of every benchmark at paper-scale sizes,
    with the memory planner on versus off (the ``--no-memory-planning``
    ablation).

    Peaks come from the static heap walk in
    :func:`repro.gpu.costmodel.estimate_program`: both variants replay
    their alloc/free schedules through a :class:`~repro.gpu.heap.DeviceHeap`
    with the benchmark's full dataset bound, so the numbers are exact
    for that schedule, deterministic, and independent of simulated
    execution time.  The returned dict is the ``BENCH_mem.json``
    payload."""
    logger = get_logger("bench")
    names = names or list(BENCHMARKS.names())
    planned_opts = CompilerOptions()
    naive_opts = CompilerOptions(memory_planning=False)
    benchmarks: Dict[str, Dict] = {}
    ratios: List[float] = []
    for name in names:
        spec = BENCHMARKS[name]
        sizes = spec.dataset.full
        planned = compile_program(spec.program(), planned_opts).estimate(
            sizes, device
        )
        naive = compile_program(spec.program(), naive_opts).estimate(
            sizes, device
        )
        if planned.mem_peak_bytes > naive.mem_peak_bytes:
            raise ValidationError(
                f"{name}: planned peak {planned.mem_peak_bytes} B exceeds "
                f"naive peak {naive.mem_peak_bytes} B"
            )
        ratio = (
            planned.mem_peak_bytes / naive.mem_peak_bytes
            if naive.mem_peak_bytes > 0
            else 1.0
        )
        ratios.append(ratio)
        benchmarks[name] = {
            "sizes": dict(sizes),
            "naive_peak_bytes": naive.mem_peak_bytes,
            "planned_peak_bytes": planned.mem_peak_bytes,
            "naive_alloc_count": naive.mem_alloc_count,
            "planned_alloc_count": planned.mem_alloc_count,
            "reuse_count": planned.mem_reuse_count,
            "peak_ratio": ratio,
        }
        logger.debug(
            "mem-row", benchmark=name,
            naive=naive.mem_peak_bytes, planned=planned.mem_peak_bytes,
        )
    geomean_ratio = (
        float(np.exp(np.mean(np.log(ratios)))) if ratios else 1.0
    )
    improved = sum(
        1
        for b in benchmarks.values()
        if b["planned_peak_bytes"] < b["naive_peak_bytes"]
    )
    return {
        "schema": "repro.bench_mem/v1",
        "device": device.name,
        "benchmarks": benchmarks,
        "geomean_peak_ratio": geomean_ratio,
        "geomean_reduction": 1.0 - geomean_ratio,
        "improved_count": improved,
    }


#: Saturation-scale dataset sizes for the multi-device sharding suite.
#: Below the cost model's ``saturation_threads`` the simulated kernel
#: time is size-independent, so sub-saturation shards show no scaling;
#: these sizes put every shardable benchmark's batch dimension well
#: past saturation even when split four ways.
SHARD_SIZES: Dict[str, Dict[str, int]] = {
    "Backprop": {"n": 64, "h": 262_144},
    "MRI-Q": {"x": 262_144, "k": 64},
    "Myocyte": {"w": 262_144, "eq": 8, "steps": 3},
    "LocVolCalib": {"outer": 131_072, "nx": 8, "ny": 8, "numT": 2},
}


def shard_suite(
    names: Optional[List[str]] = None,
    seed: int = 0,
    device_counts: Tuple[int, ...] = (1, 2, 4),
    executor: str = DEFAULT_EXECUTOR,
    device: DeviceProfile = NVIDIA_GTX780TI,
) -> Dict:
    """Multi-device scaling of the shardable benchmarks.

    Each benchmark whose entry point :func:`repro.sched.analyze_shardable`
    proves outermost-dimension data-parallel is executed at
    saturation-scale sizes (:data:`SHARD_SIZES`) on pools of 1, 2 and 4
    identical devices.  Whether and how many ways a request is split
    is the pool's own decision (:meth:`repro.sched.Placer.plan`: least
    predicted completion, a split charged one launch per extra
    device), so a row's ``shards`` may be fewer than its pool has
    devices — at these sizes every multi-device row does split.
    Results must be bit-identical to the single-device run with zero
    interpreter fallbacks; the scaling metric is the pool's simulated
    *makespan* (the longest per-device sum of shard times — wall clock
    would measure the Python interpreter's threading, not the
    schedule, and is recorded nowhere).  The returned dict is the
    ``BENCH_shard.json`` payload (schema ``repro.bench_shard/v2``).
    """
    from ..pipeline import compile_cache_key
    from ..sched import DevicePool, analyze_shardable

    logger = get_logger("bench")
    names = [n for n in (names or list(SHARD_SIZES)) if n in SHARD_SIZES]
    max_count = max(device_counts)
    benchmarks: Dict[str, Dict] = {}
    for name in names:
        spec = BENCHMARKS[name]
        prog = spec.program()
        info = analyze_shardable(prog)
        if info is None:
            raise ValidationError(
                f"{name}: expected a shardable entry point"
            )
        sizes = SHARD_SIZES[name]
        args = spec.args_at(np.random.default_rng(seed), sizes)
        compiled = compile_program(prog)
        key = compile_cache_key(prog, CompilerOptions())
        baseline = None
        row: Dict = {
            "sizes": dict(sizes),
            "batch_dim": info.dim,
            "batch": info.batch_size(args),
            "devices": {},
        }
        for count in device_counts:
            # A tall hedge floor: this suite measures the *schedule*,
            # and a spurious hedge would double-count shard work.
            pool = DevicePool([device] * count, hedge_min_wall_s=30.0)
            with pool:
                values, cost, report, placement = pool.run(
                    compiled.host,
                    compiled.core,
                    args,
                    executor=executor,
                    entry="main",
                    run_id=f"shard/{name}/x{count}",
                    batch_info=info,
                    key=key,
                )
            if report.fallbacks:
                raise ValidationError(
                    f"{name} x{count}: sharded run degraded to the "
                    f"interpreter ({report.summary()})"
                )
            if baseline is None:
                baseline = values
            else:
                for e, g in zip(baseline, values):
                    if not np.array_equal(e.data, g.data):
                        raise ValidationError(
                            f"{name} x{count}: sharded result is not "
                            "bit-identical to the single-device run"
                        )
            makespan = placement["makespan_us"] or cost.total_us
            row["devices"][str(count)] = {
                "mode": placement["mode"],
                "shards": len(placement["shards"]),
                "makespan_us": makespan,
                "total_us": cost.total_us,
            }
            logger.debug(
                "shard-row", benchmark=name, devices=count,
                makespan_us=makespan, mode=placement["mode"],
            )
        base_us = row["devices"][str(device_counts[0])]["makespan_us"]
        top_us = row["devices"][str(max_count)]["makespan_us"]
        row["speedup_4x"] = base_us / top_us if top_us > 0 else 0.0
        benchmarks[name] = row
    speedups = [b["speedup_4x"] for b in benchmarks.values()]
    geomean = float(np.exp(np.mean(np.log(speedups)))) if speedups else 0.0
    return {
        "schema": "repro.bench_shard/v2",
        "device": device.name,
        "executor": executor,
        "seed": seed,
        "device_counts": list(device_counts),
        "benchmarks": benchmarks,
        "geomean_speedup_4x": geomean,
    }


def _render_mem(results: Dict) -> Iterator[str]:
    for name, row in results["benchmarks"].items():
        yield (
            f"{name:14s} naive {row['naive_peak_bytes'] / 1e6:10.2f} MB"
            f"  planned {row['planned_peak_bytes'] / 1e6:10.2f} MB"
            f"  ({row['peak_ratio'] * 100:5.1f}%,"
            f" {row['reuse_count']} reuses)"
        )
    yield (
        f"{'geomean':14s} peak reduced by "
        f"{results['geomean_reduction'] * 100:.1f}% "
        f"({results['improved_count']}/"
        f"{len(results['benchmarks'])} benchmarks improved)"
    )


def _render_shard(results: Dict) -> Iterator[str]:
    counts = results["device_counts"]
    for name, row in results["benchmarks"].items():
        per = "  ".join(
            f"x{c}: {row['devices'][str(c)]['makespan_us'] / 1e3:8.2f}ms"
            for c in counts
        )
        yield (
            f"{name:14s} {row['batch_dim']}={row['batch']:<8d} {per}"
            f"  speedup x{row['speedup_4x']:.2f}"
        )
    yield (
        f"{'geomean':14s} x{results['geomean_speedup_4x']:.2f} "
        f"at {max(counts)} devices"
    )


class Pinned(NamedTuple):
    """One committed artefact: ``suite(names=..., **flags)`` returns
    the payload, ``out`` is the committed file (relative to the
    repository root; a ``{flag}`` in it is filled from the flags),
    ``render`` the lines ``repro bench`` prints for a payload,
    ``flags`` the ``bench`` flags the suite reads (passed by name) and
    ``variants`` the flag settings that each have a committed file."""

    suite: Callable[..., Any]
    out: str
    render: Callable[[Any], Iterable[str]]
    flags: Tuple[str, ...] = ()
    variants: Tuple[Dict[str, Any], ...] = ({},)

    def dump(self, payload: Any) -> str:
        """The text of the committed file: a ``.json`` is the payload,
        anything else the rendered lines."""
        if self.out.endswith(".json"):
            return json.dumps(payload, indent=2)
        return "\n".join(self.render(payload)) + "\n"


#: ``repro bench <what>`` for every artefact that is committed.
PINNED: Dict[str, Pinned] = {
    "mem": Pinned(mem_suite, "BENCH_mem.json", _render_mem),
    "shard": Pinned(
        shard_suite, "BENCH_shard.json", _render_shard, ("seed", "executor")
    ),
    "table1": Pinned(
        table1_runtimes, "benchmarks/results/table1.txt", render_table1
    ),
    "figure13": Pinned(
        table1_runtimes, "benchmarks/results/figure13.txt", render_figure13
    ),
    "table2": Pinned(
        table2_datasets, "benchmarks/results/table2.txt", render_table2
    ),
    "impact": Pinned(
        run_impact,
        "benchmarks/results/impact_{kind}.txt",
        render_impact,
        ("kind",),
        tuple({"kind": kind} for kind in IMPACT),
    ),
}
