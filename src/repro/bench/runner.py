"""The benchmark runner: regenerates the paper's evaluation artefacts.

* :func:`validate_benchmark` — compile a benchmark, execute it on the
  simulated GPU at reduced scale, and check the results against the
  reference interpreter (bit-exact for integers, tolerance for floats).
* :func:`table1_runtimes` — Table 1: reference vs Futhark runtimes (ms)
  on both device profiles, at paper-scale dataset sizes; Fig. 13 is
  its rows' relative speedups.
* :func:`run_impact` — the §6.1.1 optimisation-impact ablations.
* :func:`table2_datasets` — Table 2: the dataset configurations.

All but the first are rows of :data:`repro.bench.pinned.PINNED`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.values import values_equal
from ..errors import ArgumentError, ValidationError
from ..gpu.device import AMD_W8100, NVIDIA_GTX780TI, DeviceProfile
from ..gpu.faults import FaultPlan
from ..interp import run_program
from ..obs import get_logger, get_tracer
from ..pipeline import CompilerOptions, compile_program
from ..runtime import ExecutionPolicy, RunReport
from .datasets import TABLE2, Dataset
from .paper_numbers import IMPACT
from .suite import BENCHMARKS

__all__ = [
    "validate_benchmark",
    "table1_runtimes",
    "run_impact",
    "table2_datasets",
    "Row",
]

_DEVICES = (NVIDIA_GTX780TI, AMD_W8100)


@dataclass
class Row:
    """One Table 1 / Fig. 13 row."""

    name: str
    ref_ms: Dict[str, float] = field(default_factory=dict)
    fut_ms: Dict[str, float] = field(default_factory=dict)

    def speedup(self, device: str) -> float:
        return self.ref_ms[device] / self.fut_ms[device]


def validate_benchmark(
    name: str,
    seed: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    policy: Optional[ExecutionPolicy] = None,
    options: Optional[CompilerOptions] = None,
    run_id: Optional[str] = None,
) -> RunReport:
    """Functional validation at reduced scale: the compiled program on
    the simulated GPU must agree with the reference interpreter.

    With a ``fault_plan`` this doubles as the chaos harness: execution
    goes through the resilient executor (retry / watchdog / fallback)
    and must *still* agree with the interpreter.  Returns the
    :class:`RunReport` so callers can assert on its counters; the
    report also carries the compile's per-pass timing breakdown and a
    ``run_id``/``seed`` that names the exact :class:`FaultPlan` used,
    so a chaos failure is correlatable with its trace."""
    logger = get_logger("bench")
    spec = BENCHMARKS[name]
    rng = np.random.default_rng(seed)
    args = spec.small_args(rng)
    prog = spec.program()
    if run_id is None:
        run_id = f"{name}/seed{seed}"
        if fault_plan is not None:
            run_id += f"/faultseed{fault_plan.seed}"
    logger.debug("validate-start", benchmark=name, run_id=run_id)
    with get_tracer().span(
        "validate-benchmark", "bench", benchmark=name, run_id=run_id
    ):
        expected = run_program(prog, args, in_place=True)
        compiled = compile_program(prog, options)
        got, cost, report = compiled.execute(
            args,
            fault_plan=fault_plan,
            policy=policy,
            run_id=run_id,
            seed=seed,
        )
        if len(got) != len(expected):
            raise ValidationError(
                f"{name}: expected {len(expected)} results, got {len(got)}"
            )
        for e, g in zip(expected, got):
            if not values_equal(e, g, rtol=1e-4, atol=1e-4):
                raise ValidationError(
                    f"{name}: simulated result differs from interpreter "
                    f"({report.summary()})"
                )
        if report.fallbacks == 0 and cost.total_us <= 0:
            raise ValidationError(f"{name}: device run reported no time")
    logger.debug(
        "validate-done",
        benchmark=name,
        run_id=run_id,
        attempts=report.attempts,
        fallbacks=report.fallbacks,
        sim_us=cost.total_us,
        compile_passes=len(report.pass_timings),
    )
    return report


def _program_dims(compiled) -> set:
    dims = set()
    for k in compiled.host.kernels():
        dims.update(d for d in k.grid_dims() if isinstance(d, str))
        for c, ds in k.flops_per_thread.terms:
            dims.update(ds)
        for a in k.accesses:
            for c, ds in a.trips.terms:
                dims.update(ds)
    return dims


def check_size_coverage(compiled, size_env, name: str) -> None:
    """Guard against silently unpriced dimensions: every size variable
    the kernels depend on must be bound by the dataset or computed by
    a host statement the estimator can resolve."""
    from ..backend.kernel_ir import HostEval, HostIfStmt, HostLoopStmt

    host_defined = set()

    def walk(stmts):
        for s in stmts:
            if isinstance(s, HostEval):
                host_defined.update(s.binding.names())
            elif isinstance(s, HostLoopStmt):
                host_defined.update(p.name for p, _ in s.merge)
                if hasattr(s.form, "ivar"):
                    host_defined.add(s.form.ivar)
                walk(s.body)
            elif isinstance(s, HostIfStmt):
                walk(s.then_body)
                walk(s.else_body)

    walk(compiled.host.stmts)
    missing = _program_dims(compiled) - set(size_env) - host_defined
    if missing:
        raise ValueError(
            f"{name}: dataset does not bind size variables {sorted(missing)}"
        )


def table1_runtimes(
    names: Optional[List[str]] = None,
    devices: Tuple[DeviceProfile, ...] = _DEVICES,
) -> List[Row]:
    """Reference vs Futhark runtimes at paper scale (Table 1)."""
    logger = get_logger("bench")
    names = names or list(BENCHMARKS.names())
    rows: List[Row] = []
    for name in names:
        spec = BENCHMARKS[name]
        compiled = compile_program(spec.program())
        check_size_coverage(compiled, spec.dataset.full, name)
        ref_impl = spec.reference()
        row = Row(name)
        for device in devices:
            sizes = spec.dataset.full
            row.fut_ms[device.name] = compiled.estimate(
                sizes, device
            ).total_ms
            row.ref_ms[device.name] = ref_impl.estimate(
                sizes, device
            ).total_ms
            logger.debug(
                "table1-row",
                benchmark=name,
                device=device.name,
                ref_ms=row.ref_ms[device.name],
                fut_ms=row.fut_ms[device.name],
            )
        rows.append(row)
    return rows


#: The §6.1.1 ablations: which pipeline switch each one turns off.
_IMPACT_OPTIONS = {
    "fusion": CompilerOptions(fusion=False),
    "coalescing": CompilerOptions(coalescing=False),
    "tiling": CompilerOptions(tiling=False),
}


def run_impact(
    names: Optional[List[str]] = None,
    kind: str = "fusion",
    device: DeviceProfile = NVIDIA_GTX780TI,
) -> Dict:
    """Slowdown factor from disabling one optimisation (§6.1.1):
    time(without) / time(with), per benchmark (default: the ones the
    paper reports for ``kind``), on the NVIDIA profile (as in the
    paper).  ``kind='inplace'`` compares against each benchmark's
    explicit no-in-place program variant."""
    factors: Dict[str, float] = {}
    for name in names or list(IMPACT[kind]):
        spec = BENCHMARKS[name]
        sizes = spec.dataset.full
        base = compile_program(spec.program()).estimate(
            sizes, device
        ).total_ms
        if kind == "inplace":
            variant = spec.variant("no_inplace")
            if variant is None:
                have = [
                    n for n in BENCHMARKS.names()
                    if BENCHMARKS[n].variant("no_inplace") is not None
                ]
                raise ArgumentError(
                    f"{name} has no no-inplace variant "
                    f"(valid names: {', '.join(have)})"
                )
            slow = compile_program(variant).estimate(
                sizes, device
            ).total_ms
        else:
            options = _IMPACT_OPTIONS[kind]
            slow = compile_program(spec.program(), options).estimate(
                sizes, device
            ).total_ms
        factors[name] = slow / base
    return {"kind": kind, "factors": factors}


def table2_datasets(names: Optional[List[str]] = None) -> Dict[str, Dataset]:
    """Table 2: the dataset configuration of each benchmark."""
    return {name: TABLE2[name] for name in names or TABLE2}
