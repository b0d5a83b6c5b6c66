"""The compile driver.

The driver takes the passes of :data:`repro.pipeline.passes.PASSES`
enabled under the given :class:`CompilerOptions` and runs them in
order, stage by stage, each under one guard rule (:class:`_PassGuard`):

* a pass with a recovery is revalidated (re-typecheck for core IR,
  memory validation for host programs) and, on any failure, records a
  :class:`PassDiagnostic` and recovers — it rolls back to its input,
  or flattening degrades to its conservative variant — so a buggy
  optimisation degrades performance instead of crashing the compile;
  a recovery that also fails is a :class:`CompilerBug`;
* a pass without a recovery (the initial check, lowering) lets a
  :class:`ReproError` propagate — a malformed input program is the
  caller's error — and reports anything else as a
  :class:`CompilerBug` with the offending IR attached;
* ``CompilerOptions(strict=True)`` propagates every failure raw, for
  tests that want to *see* pass bugs.

With an :class:`~repro.pipeline.artifact.ArtifactCache` attached
(explicitly, via ``$REPRO_ARTIFACT_DIR``, or the CLI's
``--artifact-dir``), the driver resumes from the deepest stage whose
fingerprint-verified artifact is on disk — a warm process skips
straight to the finished host program — and stores the stage frontiers
of every clean compile for the next process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import ast as A
from ..core.pretty import pretty_prog
from ..core.values import Value
from ..backend.kernel_ir import HostProgram
from ..backend.opencl_text import render_program
from ..checker import check_program
from ..errors import ArgumentError, CompilerBug, ReproError
from ..fusion.fuse import FusionStats
from ..gpu.costmodel import CostReport, estimate_program
from ..gpu.device import DeviceProfile, NVIDIA_GTX780TI
from ..gpu.faults import FaultPlan
from ..backend.validate import validate_host_program
from ..obs import PassTiming, get_logger, get_metrics, get_tracer
from ..obs.irstats import ir_stats
from ..runtime import ExecutionPolicy, RunReport, run_resilient
from .artifact import ArtifactCache, StageArtifact, default_artifact_cache
from .fingerprint import (
    fingerprint_program,
    fingerprint_text,
    options_slice,
    salted_stage_fingerprint,
)
from .options import CompilerOptions, PassDiagnostic
from .passes import Pass, PassContext, planned, rollback

__all__ = [
    "CompiledProgram",
    "compile_program",
    "compile_source",
]

#: Sentinel distinguishing "no cache" (None) from "use the process
#: default" (the ``$REPRO_ARTIFACT_DIR``-driven opt-in).
_DEFAULT_CACHE = object()


class _PassGuard:
    """Runs passes under the module's one recovery rule, keyed on
    :attr:`Pass.fallback`, and records their timings.

    Every pass is also the observability layer's unit of account: the
    guard opens a span per pass (with IR-size attributes when a tracer
    is installed), appends a :class:`PassTiming` to the compile's
    timing breakdown, and emits rollback instants/counters when it has
    to intervene.  Timing costs two monotonic-clock reads per pass and
    is always on; IR statistics cost an IR walk and are computed only
    when tracing is enabled.
    """

    def __init__(
        self, options: CompilerOptions, diagnostics: List[PassDiagnostic]
    ) -> None:
        self.options = options
        self.diagnostics = diagnostics
        self.timings: List[PassTiming] = []
        #: The span of the most recent pass, for late attribute
        #: attachment (e.g. fusion edge counts) — a no-op span when
        #: tracing is off.
        self.last_span = None

    def _note(self, name: str, phase: str, exc: Exception, action: str) -> None:
        self.diagnostics.append(
            PassDiagnostic(name, phase, f"{type(exc).__name__}: {exc}", action)
        )
        get_metrics().counter(
            "pipeline.rollbacks", pass_name=name, phase=phase
        ).inc()
        get_tracer().instant(
            f"rollback:{name}",
            "pipeline",
            phase=phase,
            action=action,
            error=f"{type(exc).__name__}: {exc}",
        )
        get_logger("pipeline").info(
            "pass-guard", pass_name=name, phase=phase, action=action,
            error=str(exc),
        )

    def annotate_last(self, **attrs) -> None:
        """Attach attributes to the most recent pass span (no-op when
        tracing is off)."""
        if self.last_span is not None:
            self.last_span.set(**attrs)

    def run_pass(self, p: Pass, ir, ctx: PassContext):
        """Run one pass under the recovery rule, inside its span, and
        append its :class:`PassTiming`."""
        tracer = get_tracer()
        before = _ir_stats(ir) if tracer.enabled else None
        rolled = False
        t0 = time.perf_counter()
        with tracer.span(f"pass:{p.name}", "pipeline", phase=p.phase) as span:
            self.last_span = span
            if self.options.strict:
                out = p.fn(ir, self.options, ctx)
            elif p.fallback is None:
                try:
                    out = p.fn(ir, self.options, ctx)
                except ReproError:
                    raise
                except Exception as e:
                    raise _bug(p, str(e), ir) from e
            else:
                try:
                    out = self._checked(p.fn, ir, ctx)
                except Exception as e:
                    rolled = True
                    if p.fallback is rollback:
                        self._note(p.name, p.phase, e, "rolled back")
                        out = ir
                    else:
                        self._note(
                            p.name, p.phase, e, "degraded to conservative"
                        )
                        try:
                            out = self._checked(p.fallback, ir, ctx)
                        except Exception as e2:
                            raise _bug(
                                p, f"recovery also failed: {e2}", ir
                            ) from e2
            timing = PassTiming(
                p.name, p.phase, (time.perf_counter() - t0) * 1e6,
                rolled_back=rolled,
            )
            if before is not None:
                after = _ir_stats(out)
                if after.keys() != before.keys():
                    # Lowering: a core figure does not compare with a
                    # host one, so only the output's is attached.
                    before = {}
                timing.bindings_before = before.get("bindings")
                timing.bindings_after = after.get("bindings")
                timing.soacs_before = before.get("soacs")
                timing.soacs_after = after.get("soacs")
                attrs = {f"{k}_before": v for k, v in before.items()}
                attrs.update({f"{k}_after": v for k, v in after.items()})
                span.set(rolled_back=rolled, **attrs)
            self.timings.append(timing)
        get_metrics().counter("pipeline.passes", phase=p.phase).inc()
        return out

    def _checked(self, fn, ir, ctx: PassContext):
        """``fn``'s output, revalidated by IR type.

        A core pass that hands back the very (frozen) program it was
        given changed nothing, and that IR was validated as the
        previous pass's output, so it is not re-checked.  Identity only
        — an equal-looking new object is re-checked — and never for
        host programs, which passes update in place.  Uniqueness is a
        front-end property and is not re-checked here.
        """
        out = fn(ir, self.options, ctx)
        if not self.options.check:
            return out
        if isinstance(ir, HostProgram):
            problems = validate_host_program(out)
            if problems:
                raise CompilerBug(
                    "validate-host", "memory", "; ".join(problems[:5])
                )
        elif out is not ir:
            check_program(out, check_unique=False)
        return out


def _bug(p: Pass, message: str, ir) -> CompilerBug:
    return CompilerBug(
        p.name, p.phase, message,
        ir=pretty_prog(ir) if isinstance(ir, A.Prog) else None,
    )


def _ir_stats(ir) -> Dict[str, int]:
    """Size figures of a core program or host program, for the pass
    span's ``<key>_before``/``<key>_after`` attributes."""
    if isinstance(ir, HostProgram):
        return {"kernels": len(ir.kernels())}
    stats = ir_stats(ir)
    return {"bindings": stats.bindings, "soacs": stats.soacs}


@dataclass
class CompiledProgram:
    """The result of running the pipeline on one entry point."""

    core: A.Prog
    host: HostProgram
    options: CompilerOptions
    fusion_stats: Optional[FusionStats] = None
    #: Pass-guard interventions (empty for a clean compile).
    diagnostics: List[PassDiagnostic] = field(default_factory=list)
    #: Per-pass wall-clock (and, when traced, IR-size) breakdown; a
    #: warm compile shows ``artifact:<stage>`` load entries instead of
    #: the skipped passes.
    pass_timings: List[PassTiming] = field(default_factory=list)
    #: The deepest stage artifact this compile resumed from (``None``
    #: for a cold compile, ``"core"`` or ``"host"``).
    from_artifact: Optional[str] = None
    #: The per-stage artifact fingerprints of this compile
    #: (``source``/``core``/``host``).
    fingerprints: Dict[str, str] = field(default_factory=dict)

    def opencl(self) -> str:
        """Pseudo-OpenCL rendering of the generated code."""
        return render_program(self.host)

    def run(
        self,
        args: Sequence[Value],
        device: DeviceProfile = NVIDIA_GTX780TI,
        fault_plan: Optional[FaultPlan] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> Tuple[Tuple[Value, ...], CostReport]:
        """Execute on the simulated device: returns result values and
        the simulated-time cost report.  Runs through the resilient
        executor; use :meth:`execute` to also get the
        :class:`RunReport` of retries/faults/fallbacks."""
        values, cost, _ = self.execute(args, device, fault_plan, policy)
        return values, cost

    def execute(
        self,
        args: Sequence[Value],
        device: DeviceProfile = NVIDIA_GTX780TI,
        fault_plan: Optional[FaultPlan] = None,
        policy: Optional[ExecutionPolicy] = None,
        run_id: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> Tuple[Tuple[Value, ...], CostReport, RunReport]:
        """Execute with full resilience semantics: bounded retry with
        backoff on transient device faults, watchdog timeouts derived
        from the cost model, and graceful degradation to the reference
        interpreter.  Returns ``(values, cost_report, run_report)``;
        the run report carries this compile's per-pass timing breakdown
        plus the ``run_id``/``seed`` identifying the execution."""
        if policy is None:
            policy = ExecutionPolicy(executor=self.options.executor)
        return run_resilient(
            self.host,
            self.core,
            args,
            device,
            coalescing=self.options.coalescing,
            in_place=self.options.in_place,
            fault_plan=fault_plan,
            policy=policy,
            run_id=run_id,
            seed=seed,
            pass_timings=self.pass_timings,
        )

    def estimate(
        self,
        size_env: Mapping[str, int],
        device: DeviceProfile = NVIDIA_GTX780TI,
    ) -> CostReport:
        """Price the program analytically at the given sizes (no
        execution) — used to evaluate paper-scale datasets."""
        return estimate_program(
            self.host, size_env, device, coalescing=self.options.coalescing
        )


# -- artifact plumbing ------------------------------------------------------


def _artifact_event(
    guard: _PassGuard, stage: str, event: str, fingerprint: str,
    dur_us: Optional[float] = None,
) -> None:
    """One uniform observability record per artifact interaction: a
    counter, a trace instant, and — for loads — a :class:`PassTiming`
    entry so warm compiles show where their time went."""
    get_metrics().counter(
        "pipeline.artifacts", stage=stage, event=event
    ).inc()
    get_tracer().instant(
        f"artifact-{event}:{stage}",
        "pipeline",
        stage=stage,
        fingerprint=fingerprint[:12],
    )
    if dur_us is not None:
        guard.timings.append(PassTiming(f"artifact:{stage}", "cache", dur_us))


def _try_load(
    cache: Optional[ArtifactCache],
    guard: _PassGuard,
    stage: str,
    fingerprint: str,
) -> Optional[StageArtifact]:
    if cache is None:
        return None
    t0 = time.perf_counter()
    artifact = cache.load(stage, fingerprint)
    if artifact is None:
        _artifact_event(guard, stage, "miss", fingerprint)
        return None
    _artifact_event(
        guard, stage, "hit", fingerprint,
        dur_us=(time.perf_counter() - t0) * 1e6,
    )
    return artifact


def _maybe_store(
    cache: Optional[ArtifactCache],
    guard: _PassGuard,
    stage: str,
    fingerprint: str,
    entry: str,
    payload: Dict[str, Any],
    options: CompilerOptions,
    plan: Sequence[Pass],
) -> None:
    """Persist one stage frontier — only for *clean* compiles: a
    rollback means the output depends on a transient pass bug, which
    must not be immortalised on disk."""
    if cache is None or guard.diagnostics:
        return
    keys = [k for p in plan for k in p.option_keys]
    artifact = StageArtifact(
        stage=stage,
        fingerprint=fingerprint,
        entry=entry,
        payload=payload,
        meta={
            "passes": [p.name for p in plan],
            "options_slice": options_slice(options, keys),
        },
    )
    if cache.store(artifact) is not None:
        _artifact_event(guard, stage, "store", fingerprint)


# -- the driver -------------------------------------------------------------


def _stage_passes(plan: Sequence[Pass], *stages: str) -> List[Pass]:
    return [p for p in plan if p.stage in stages]


def _compile(
    prog: Optional[A.Prog],
    source: Optional[str],
    options: Optional[CompilerOptions],
    entry: str,
    artifact_cache,
    stop_after: Optional[str],
) -> CompiledProgram:
    options = options or CompilerOptions()
    cache = (
        default_artifact_cache()
        if artifact_cache is _DEFAULT_CACHE
        else artifact_cache
    )
    stop = stop_after or "host"
    if stop not in ("core", "host"):
        raise ArgumentError(
            f"stop_after must be 'core' or 'host', not {stop!r}"
        )
    plan, salts = planned(options)
    diagnostics: List[PassDiagnostic] = []
    guard = _PassGuard(options, diagnostics)
    ctx = PassContext(options=options, entry=entry, guard=guard)
    tracer = get_tracer()

    with tracer.span("compile", "pipeline", entry=entry) as compile_span:
        source_fp = (
            fingerprint_text(source)
            if source is not None
            else fingerprint_program(prog)
        )
        fps = {"source": source_fp}
        for stage, salt in salts.items():
            fps[stage] = salted_stage_fingerprint(stage, source_fp, entry, salt)
        core_prog: Optional[A.Prog] = None
        host: Optional[HostProgram] = None
        loaded: Optional[str] = None

        if stop == "host":
            artifact = _try_load(cache, guard, "host", fps["host"])
            if artifact is not None:
                core_prog = artifact.payload["core"]
                host = artifact.payload["host"]
                ctx.fusion_stats = artifact.payload.get("fusion_stats")
                loaded = "host"
        if loaded is None:
            artifact = _try_load(cache, guard, "core", fps["core"])
            if artifact is not None:
                core_prog = artifact.payload["core"]
                ctx.fusion_stats = artifact.payload.get("fusion_stats")
                loaded = "core"

        if core_prog is None:
            if prog is None:
                from ..frontend import parse

                with tracer.span("parse", "pipeline", entry=entry):
                    prog = parse(source)
            core_prog = prog
            for p in _stage_passes(plan, "frontend", "core"):
                core_prog = guard.run_pass(p, core_prog, ctx)
            _maybe_store(
                cache, guard, "core", fps["core"], entry,
                {"core": core_prog, "fusion_stats": ctx.fusion_stats},
                options, _stage_passes(plan, "frontend", "core"),
            )

        if stop == "host" and host is None:
            ir: Any = core_prog
            for p in _stage_passes(plan, "host"):
                ir = guard.run_pass(p, ir, ctx)
            host = ir
            _maybe_store(
                cache, guard, "host", fps["host"], entry,
                {
                    "core": core_prog,
                    "host": host,
                    "fusion_stats": ctx.fusion_stats,
                },
                options, plan,
            )
        if host is not None and not diagnostics:
            # Breadcrumbs for downstream per-program caches (the jit
            # engine keys its generated-source artifacts off the host
            # fingerprint): only clean compiles are cacheable.
            host.stage_fingerprints = dict(fps)
            host.artifact_cache = cache
        compile_span.set(
            passes=len(guard.timings),
            rollbacks=len(diagnostics),
            from_artifact=loaded,
        )
    get_metrics().counter("pipeline.compiles").inc()
    return CompiledProgram(
        core_prog, host, options, ctx.fusion_stats, diagnostics,
        guard.timings, from_artifact=loaded, fingerprints=fps,
    )


def compile_program(
    prog: A.Prog,
    options: Optional[CompilerOptions] = None,
    entry: str = "main",
    *,
    artifact_cache=_DEFAULT_CACHE,
    stop_after: Optional[str] = None,
) -> CompiledProgram:
    """Run the full Fig. 3 pipeline.

    ``artifact_cache`` opts into on-disk stage-artifact reuse (default:
    the ``$REPRO_ARTIFACT_DIR`` process default, i.e. off unless the
    environment enables it; pass ``None`` to force a cold compile).
    ``stop_after="core"`` runs only the frontend/core stages and
    returns a :class:`CompiledProgram` whose ``host`` is ``None``.
    """
    return _compile(prog, None, options, entry, artifact_cache, stop_after)


def compile_source(
    text: str,
    options: Optional[CompilerOptions] = None,
    entry: str = "main",
    *,
    artifact_cache=_DEFAULT_CACHE,
    stop_after: Optional[str] = None,
) -> CompiledProgram:
    """Parse concrete syntax and compile it.  With a warm artifact
    cache the parse itself is skipped: the host-program artifact is
    keyed on the source text."""
    return _compile(None, text, options, entry, artifact_cache, stop_after)

