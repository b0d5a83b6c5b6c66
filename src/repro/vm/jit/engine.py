"""The transpiling kernel runner and the store of generated code.

:class:`JitRunner` decides only *how kernel values are computed*: it
gives the program's generated host function
(:mod:`repro.vm.jit.codegen.host`, the one the ``sim`` executor runs
too) one callable per launch site, and the clock, heap, watchdog,
faults, deadline and spans are the engine's
:class:`~repro.gpu.simulator.DeviceAccounting` whichever runner runs.
A launch site's signature is fixed when the host function is
transpiled, from the declared types; each kernel is transpiled once
per signature into straight-line NumPy source by
:mod:`repro.vm.jit.codegen`, ``compile()``d, and executed directly.  A
kernel the transpiler cannot handle, or whose generated code hits a
data-dependent trap at run time, re-runs that launch on the scalar
interpreter, marked on the trace with a ``vm.fallback:<kernel>``
instant (the ``vm.fallback{kind="jit"}`` metric counts them).

Generated source — every kernel's, and the host function's — is
memoized per host program (:class:`JitProgramCache`, on
``HostProgram.jit_cache``) and, when the program came out of a clean
compile that went through an artifact cache, persisted verbatim
through the artifact store under the ``pycode`` stage (``"kernels"``
and ``"host"`` in one payload), so a warm process
(``$REPRO_ARTIFACT_DIR``, or a ``Server`` with ``artifact_cache=``)
transpiles nothing and only pays ``compile()``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ...core.prim import PrimType, prim_from_name
from ...errors import CompilerBug, ReproError
from ...gpu.device import DeviceProfile
from ...gpu.simulator import GpuSimulator, interp_launch
from ...interp.interpreter import Interpreter
from ...obs import get_tracer
from ...pipeline.artifact import StageArtifact, default_artifact_cache
from ...pipeline.fingerprint import _digest
from .codegen import JitUnsupported, PYCODE_SCHEMA, transpile_kernel
from .codegen.host import host_statements, transpile_host
from .runtime import JitFallback, JitRuntime

__all__ = [
    "HostFunction",
    "JitEngine",
    "JitProgramCache",
    "JitRunner",
    "LaunchSite",
    "jit_cache_for",
]

#: Guards the lazy attach of ``host.jit_cache`` (hosts are shared
#: across serving threads; the cache itself has its own lock).
_ATTACH_LOCK = threading.Lock()

_MISS = object()


@dataclass
class _CompiledKernel:
    """A ready-to-call transpiled kernel."""

    fn: Callable
    #: ``(position, PrimType)`` of each scalar output: what the kernel
    #: returns there is coerced as the interpreter's values are.
    scalars: Tuple[Tuple[int, PrimType], ...]

    def __call__(self, rt: JitRuntime, raws) -> tuple:
        outs = self.fn(rt, *raws)
        if not self.scalars:
            return outs
        outs = list(outs)
        for k, prim in self.scalars:
            outs[k] = prim.coerce(outs[k])
        return tuple(outs)


class LaunchSite(NamedTuple):
    """One launch of the host function: the kernel, its signature
    (``(name, kind, element type, rank)`` per argument, the order the
    host function passes them in), per argument ``(name, is scalar,
    PrimType)`` for wrapping it as an interpreter value, and the key of
    its generated source (kernel name, ``repr`` of the signature)."""

    kernel: object
    sig: tuple
    params: tuple
    key: Tuple[str, str]


@dataclass
class HostFunction:
    """A host program's generated function and its launch sites."""

    fn: Callable
    sites: Tuple[LaunchSite, ...]


class JitProgramCache:
    """Per-host-program store of generated sources and compiled entries:
    the host function's, and each kernel's.

    Kernel sources are keyed by ``(kernel name, launch signature)``; a
    ``None`` source records that transpilation was attempted and the
    kernel is unsupported, so neither this process nor (once persisted)
    a warm restart ever retries it.
    """

    def __init__(self, host) -> None:
        self._lock = threading.Lock()
        self._hp = host
        #: kernel name -> sig key -> source (or None for unsupported).
        self._sources: Dict[str, Dict[str, Optional[str]]] = {}
        #: (kernel name, sig key) -> compiled entry (or None).
        self._entries: Dict[Tuple[str, str], Optional[_CompiledKernel]] = {}
        self._host_source: Optional[str] = None
        self._host: Optional[HostFunction] = None
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
                source = artifact.payload.get("host")
                if isinstance(source, str):
                    self._host_source = source

    # -- the host function --------------------------------------------------

    def host(self) -> HostFunction:
        """The program's generated function, built on first use."""
        host = self._host
        if host is None:
            with self._lock:
                if self._host is None:
                    self._host = self._build_host()
                host = self._host
        return host

    def host_source(self) -> Optional[str]:
        """The host function's source, once built or loaded (the
        golden-file tests pin it beside the kernels')."""
        with self._lock:
            return self._host_source

    def _build_host(self) -> HostFunction:
        source = self._host_source
        if source is not None:
            try:
                return self._compile_host(source, cached=True)
            except Exception as ex:  # stale/corrupt source: regenerate
                get_tracer().instant(
                    "host-compile-error", "vm", entry=self._hp.name,
                    error=f"{type(ex).__name__}: {ex}",
                )
        with get_tracer().span("jit.transpile", "vm", entry=self._hp.name):
            source = transpile_host(self._hp)
        self._host_source = source
        self._persist()
        try:
            return self._compile_host(source, cached=False)
        except Exception as ex:
            raise CompilerBug(
                "host", "transpile",
                f"{self._hp.name}: generated host code does not run: "
                f"{type(ex).__name__}: {ex}",
            ) from ex

    def _compile_host(self, source: str, cached: bool) -> HostFunction:
        hp = self._hp
        with get_tracer().span(
            "jit.compile", "vm", entry=hp.name, cached=cached
        ):
            ns: Dict[str, object] = {}
            exec(  # noqa: S102 - executing our own generated source
                compile(source, f"<jit-host:{hp.name}>", "exec"), ns
            )
            stmts = host_statements(hp.stmts)
            sites = tuple(
                LaunchSite(
                    stmts[k].kernel,
                    sig,
                    tuple(
                        (name, kind == "S", prim_from_name(elem))
                        for name, kind, elem, _rank in sig
                    ),
                    (stmts[k].kernel.name, repr(sig)),
                )
                for k, sig in ns["SITES"]
            )
            return HostFunction(ns["build"](hp, stmts), sites)

    # -- kernels ------------------------------------------------------------

    def sources(self) -> Dict[str, Dict[str, Optional[str]]]:
        """Snapshot of the generated kernel sources, keyed by kernel
        name then launch-signature key (``None`` marks an unsupported
        kernel) — the golden-file tests pin this text."""
        with self._lock:
            return {k: dict(v) for k, v in self._sources.items()}

    def entry_for(self, site: LaunchSite) -> Optional[_CompiledKernel]:
        """The compiled kernel of ``site`` (None: unsupported), built
        on first use."""
        entry = self._entries.get(site.key, _MISS)
        if entry is not _MISS:
            return entry
        kernel, (_, sig_key) = site.kernel, site.key
        with self._lock:
            entry = self._entries.get(site.key, _MISS)
            if entry is not _MISS:
                return entry
            source = self._sources.get(kernel.name, {}).get(sig_key, _MISS)
            cached = source is not _MISS
            if not cached:
                source = self._transpile(kernel, site.sig, sig_key)
            entry = self._compile(kernel, source, cached)
            self._entries[site.key] = entry
            return entry

    def _transpile(self, kernel, sig, sig_key: str) -> Optional[str]:
        with get_tracer().span(
            "jit.transpile", "vm", kernel=kernel.name, kind=kernel.kind
        ) as span:
            try:
                source: Optional[str] = transpile_kernel(kernel, sig)
            except JitUnsupported as ex:
                span.set(unsupported=ex.reason)
                source = None
            except Exception as ex:  # codegen bug: degrade, never fail
                span.set(error=f"{type(ex).__name__}: {ex}")
                source = None
        self._sources.setdefault(kernel.name, {})[sig_key] = source
        self._persist()
        return source

    def _compile(
        self, kernel, source: Optional[str], cached: bool
    ) -> Optional[_CompiledKernel]:
        if source is None:
            return None
        with get_tracer().span(
            "jit.compile", "vm", kernel=kernel.name, cached=cached
        ) as span:
            try:
                ns: Dict[str, object] = {}
                exec(  # noqa: S102 - executing our own generated source
                    compile(source, f"<jit:{kernel.name}>", "exec"), ns
                )
                fn = ns["run"]
                scalars = tuple(
                    (k, prim_from_name(elem_name))
                    for k, (kind, elem_name, _rank) in enumerate(ns["OUTS"])
                    if kind == "S"
                )
            except Exception as ex:  # stale/corrupt source: degrade
                span.set(error=f"{type(ex).__name__}: {ex}")
                return None
        return _CompiledKernel(fn, scalars)

    def _persist(self) -> None:
        if self._cache is None or self._fp is None:
            return
        payload = {
            "schema": PYCODE_SCHEMA,
            "kernels": {k: dict(v) for k, v in self._sources.items()},
            "host": self._host_source,
        }
        self._cache.store(
            StageArtifact(
                "pycode",
                self._fp,
                self._hp.name,
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
    Python; one the jit refuses or hands over re-runs on the engine's
    interpreter (a ``vm.fallback:<kernel>`` trace instant).
    ``computed_by`` names what computed the latest launch, ``"jit"`` or
    ``"interp"``: the books' kernel span carries it as ``runner``."""

    def __init__(self, interp: Interpreter, trace_track: str) -> None:
        self._interp = interp
        self.trace_track = trace_track
        self._rt = JitRuntime()
        self.computed_by = "interp"

    def start(self, hp) -> tuple:
        """One launcher per launch site of ``hp``'s host function."""
        self._rt.in_place = hp.in_place
        cache = jit_cache_for(hp)
        return tuple(self._launcher(cache, site) for site in cache.host().sites)

    def _launcher(self, cache: JitProgramCache, site: LaunchSite):
        """The compiled kernel of ``site`` (resolved at its first launch
        of the run), handing a launch it refuses or traps in over to the
        interpreter."""
        kernel = site.kernel
        rt, interp = self._rt, self._interp
        entry = _MISS

        def launch(*raws) -> tuple:
            nonlocal entry
            if entry is _MISS:
                entry = cache.entry_for(site)
            if entry is None:
                reason = "transpilation unsupported"
            else:
                try:
                    outs = entry(rt, raws)
                except JitFallback as ex:
                    reason = ex.reason
                except ReproError:
                    # A genuine program error: identical on the interpreter.
                    raise
                except Exception as ex:  # unexpected: degrade, never fail
                    reason = f"{type(ex).__name__}: {ex}"
                else:
                    self.computed_by = "jit"
                    return outs
            self._note_fallback(kernel, reason)
            # Generated code never mutates arrays it does not own, so the
            # arguments reach the interpreter as the launch found them.
            return interp_launch(interp, site, *raws)

        return launch

    def _note_fallback(self, kernel, reason: str) -> None:
        self.computed_by = "interp"
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                f"vm.fallback:{kernel.name}",
                "vm",
                track=self.trace_track,
                kind="jit",
                reason=reason,
            )


def JitEngine(
    device: DeviceProfile, coalescing=None, in_place=None, **options
) -> GpuSimulator:
    """The ``jit`` executor's engine, by the constructor call shape the
    e2e harness freezes: ``JitEngine(device, coalescing=, in_place=,
    prog=).run(host, args)``.  Takes :class:`GpuSimulator`'s options;
    the host program carries the two flags' decisions."""
    # Deferred: the runtime imports the pipeline, which imports this.
    from ...runtime import make_engine

    return make_engine("jit", device, **options)
