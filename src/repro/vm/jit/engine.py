"""The transpiling kernel runner.

:class:`JitRunner` decides only *how kernel values are computed*, under
the host walk of :class:`~repro.gpu.simulator.GpuSimulator`; the clock,
heap, watchdog, faults, deadline and spans are the walk's
:class:`~repro.gpu.simulator.DeviceAccounting` whichever runner runs.
Kernels are transpiled once (per launch signature) into straight-line
NumPy source by :mod:`repro.vm.jit.codegen`, ``compile()``d, and
executed directly — no IR walk, no per-node environment lookups.  A
kernel the transpiler cannot handle, or whose generated code hits a
data-dependent trap at run time, re-runs that launch on the scalar
interpreter, counted on the ``vm.fallback`` metric with ``kind="jit"``
and marked on the trace.

Generated source is memoized per host program
(``HostProgram.jit_cache``) and — when the program came out of a clean
compile that went through an artifact cache — persisted verbatim
through the artifact store under the ``pycode`` stage, so a warm
process (``$REPRO_ARTIFACT_DIR``, or a ``Server`` with
``artifact_dir=``) skips transpilation entirely and only pays
``compile()``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ...core.prim import PrimType, prim_from_name
from ...core.traversal import free_vars_exp
from ...core.values import ArrayValue, ScalarValue, Value, scalar
from ...errors import ReproError
from ...gpu.device import DeviceProfile
from ...gpu.simulator import GpuSimulator
from ...interp.interpreter import Interpreter
from ...obs import get_logger, get_metrics, get_tracer
from ...pipeline.artifact import StageArtifact, default_artifact_cache
from ...pipeline.fingerprint import _digest
from .codegen import JitUnsupported, PYCODE_SCHEMA, transpile_kernel
from .runtime import JitFallback, JitRuntime

__all__ = ["JitEngine", "JitProgramCache", "JitRunner", "jit_cache_for"]

_log = get_logger("vm.jit")

#: Guards the lazy attach of ``host.jit_cache`` (hosts are shared
#: across serving threads; the cache itself has its own lock).
_ATTACH_LOCK = threading.Lock()

_MISS = object()


@dataclass
class _CompiledKernel:
    """A ready-to-call transpiled kernel."""

    fn: Callable
    #: ``("S"|"A", PrimType)`` per output, for re-wrapping raw results.
    outs: Tuple[Tuple[str, PrimType], ...]


class JitProgramCache:
    """Per-host-program store of generated sources and compiled entries.

    Sources are keyed by ``(kernel name, launch signature)``; a ``None``
    source records that transpilation was attempted and the kernel is
    unsupported, so neither this process nor (once persisted) a warm
    restart ever retries it.
    """

    def __init__(self, host) -> None:
        self._lock = threading.Lock()
        self._entry_name = host.name
        #: kernel name -> sig key -> source (or None for unsupported).
        self._sources: Dict[str, Dict[str, Optional[str]]] = {}
        #: (kernel name, sig key) -> compiled entry (or None).
        self._entries: Dict[Tuple[str, str], Optional[_CompiledKernel]] = {}
        #: kernel name -> sorted free variables (signature order).
        self._free_vars: Dict[str, Tuple[str, ...]] = {}
        self._cache = host.artifact_cache
        if self._cache is None:
            self._cache = default_artifact_cache()
        host_fp = host.stage_fingerprints.get("host")
        self._fp: Optional[str] = None
        if host_fp:
            self._fp = _digest(("pycode", host_fp, PYCODE_SCHEMA))
        if self._cache is not None and self._fp is not None:
            artifact = self._cache.load("pycode", self._fp)
            if (
                artifact is not None
                and artifact.payload.get("schema") == PYCODE_SCHEMA
            ):
                kernels = artifact.payload.get("kernels", {})
                if isinstance(kernels, dict):
                    self._sources = {
                        k: dict(v) for k, v in kernels.items()
                    }

    # -- signatures ---------------------------------------------------------

    def signature(self, kernel, env) -> Tuple[Tuple[str, str, str, int], ...]:
        """The launch signature: kind/type/rank of every free variable
        of the kernel expression the environment binds.  Fully
        determines the generated code."""
        names = self._free_vars.get(kernel.name)
        if names is None:
            names = tuple(sorted(free_vars_exp(kernel.exp)))
            self._free_vars[kernel.name] = names
        sig = []
        for name in names:
            v = env.get(name)
            if isinstance(v, ScalarValue):
                sig.append((name, "S", v.type.name, 0))
            elif isinstance(v, ArrayValue):
                sig.append((name, "A", v.elem.name, v.data.ndim))
            # Names the launch env does not bind are resolved inside
            # the kernel (size unification) or reported by codegen.
        return tuple(sig)

    # -- lookup / build -----------------------------------------------------

    def sources(self) -> Dict[str, Dict[str, Optional[str]]]:
        """Snapshot of the generated sources, keyed by kernel name then
        launch-signature key (``None`` marks an unsupported kernel) —
        the golden-file tests pin this text."""
        with self._lock:
            return {k: dict(v) for k, v in self._sources.items()}

    def entry_for(self, kernel, sig) -> Optional[_CompiledKernel]:
        key = (kernel.name, repr(sig))
        with self._lock:
            entry = self._entries.get(key, _MISS)
            if entry is not _MISS:
                return entry
            source = self._sources.get(kernel.name, {}).get(key[1], _MISS)
            cached = source is not _MISS
            if not cached:
                source = self._transpile(kernel, sig, key[1])
            entry = self._compile(kernel, source, cached)
            self._entries[key] = entry
            return entry

    def _transpile(self, kernel, sig, sig_key: str) -> Optional[str]:
        tracer = get_tracer()
        metrics = get_metrics()
        with tracer.span(
            "jit.transpile", "vm", kernel=kernel.name, kind=kernel.kind
        ):
            if metrics.enabled:
                metrics.counter("jit.transpiles", kernel=kernel.name).inc()
            try:
                source: Optional[str] = transpile_kernel(kernel, sig)
            except JitUnsupported as ex:
                _log.debug(
                    "jit-unsupported", kernel=kernel.name, reason=ex.reason
                )
                source = None
            except Exception as ex:  # codegen bug: degrade, never fail
                _log.debug(
                    "jit-transpile-error",
                    kernel=kernel.name,
                    error=f"{type(ex).__name__}: {ex}",
                )
                source = None
        self._sources.setdefault(kernel.name, {})[sig_key] = source
        self._persist()
        return source

    def _compile(
        self, kernel, source: Optional[str], cached: bool
    ) -> Optional[_CompiledKernel]:
        if source is None:
            return None
        tracer = get_tracer()
        metrics = get_metrics()
        with tracer.span(
            "jit.compile", "vm", kernel=kernel.name, cached=cached
        ):
            try:
                ns: Dict[str, object] = {}
                exec(  # noqa: S102 - executing our own generated source
                    compile(source, f"<jit:{kernel.name}>", "exec"), ns
                )
                fn = ns["run"]
                outs = tuple(
                    (kind, prim_from_name(elem_name))
                    for kind, elem_name, _rank in ns["OUTS"]
                )
            except Exception as ex:  # stale/corrupt source: degrade
                _log.debug(
                    "jit-compile-error",
                    kernel=kernel.name,
                    error=f"{type(ex).__name__}: {ex}",
                )
                return None
        if metrics.enabled:
            metrics.counter("jit.compiles", kernel=kernel.name).inc()
        return _CompiledKernel(fn, outs)

    def _persist(self) -> None:
        if self._cache is None or self._fp is None:
            return
        payload = {
            "schema": PYCODE_SCHEMA,
            "kernels": {k: dict(v) for k, v in self._sources.items()},
        }
        self._cache.store(
            StageArtifact(
                "pycode",
                self._fp,
                self._entry_name,
                payload,
                meta={"schema": PYCODE_SCHEMA},
            )
        )


def jit_cache_for(host) -> JitProgramCache:
    """The host program's :class:`JitProgramCache`, attached lazily."""
    cache = host.jit_cache
    if cache is None:
        with _ATTACH_LOCK:
            cache = host.jit_cache
            if cache is None:
                cache = host.jit_cache = JitProgramCache(host)
    return cache


class JitRunner:
    """The ``jit`` kernel runner: each launch runs as transpiled
    Python; one the jit refuses or hands over re-runs on the walk's
    interpreter (``vm.fallback{kind="jit"}``, and a trace instant)."""

    def __init__(self, interp: Interpreter, trace_track: str) -> None:
        self._interp = interp
        self.trace_track = trace_track
        self._rt = JitRuntime(in_place=interp.in_place)
        self._cache: Optional[JitProgramCache] = None

    def start(self, hp) -> None:
        self._cache = jit_cache_for(hp)

    def run(self, kernel, env: Dict[str, Value]) -> Tuple[Value, ...]:
        cache = self._cache
        sig = cache.signature(kernel, env)
        entry = cache.entry_for(kernel, sig)
        if entry is None:
            self._note_fallback(kernel, "transpilation unsupported")
        else:
            try:
                raws = [
                    env[name].value if kind == "S" else env[name].data
                    for name, kind, _elem, _rank in sig
                ]
                outs = entry.fn(self._rt, *raws)
            except JitFallback as ex:
                self._note_fallback(kernel, ex.reason)
            except ReproError:
                # A genuine program error: identical on the interpreter.
                raise
            except Exception as ex:  # unexpected: degrade, never fail
                self._note_fallback(kernel, f"{type(ex).__name__}: {ex}")
            else:
                metrics = get_metrics()
                if metrics.enabled:
                    metrics.counter("jit.kernels", kind=kernel.kind).inc()
                return tuple(
                    scalar(raw, prim)
                    if kind == "S"
                    else ArrayValue(raw, prim)
                    for (kind, prim), raw in zip(entry.outs, outs)
                )
        # Generated code never mutates arrays it does not own, so the
        # environment reaches the interpreter as the launch found it.
        return self._interp.eval_exp(kernel.exp, env)

    def _note_fallback(self, kernel, reason: str) -> None:
        _log.debug(
            "jit-fallback", kernel=kernel.name, kind=kernel.kind,
            reason=reason,
        )
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "vm.fallback", kernel=kernel.name, kind="jit"
            ).inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                f"vm.fallback:{kernel.name}",
                "vm",
                track=self.trace_track,
                kind="jit",
                reason=reason,
            )


def JitEngine(device: DeviceProfile, **options) -> GpuSimulator:
    """The ``jit`` executor's engine, by the constructor call shape the
    e2e harness freezes: ``JitEngine(device, coalescing=, in_place=,
    prog=).run(host, args)``.  Takes :class:`GpuSimulator`'s options."""
    # Deferred: the runtime imports the pipeline, which imports this.
    from ...runtime import make_engine

    return make_engine("jit", device, **options)
