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

A host program's generated code is built once, in one step, on its
first run under either executor (:class:`JitProgramCache`, attached to
``HostProgram.jit_cache`` under one lock): the ``pycode`` artifact is
loaded from the artifact cache the program's compile went through
(none, when it went through none), the host function and then the
kernel of every launch site it lists are transpiled where the artifact
did not hold them, all are ``compile()``d, and when anything was
transpiled the sources are stored back once, as one payload
(``"kernels"`` and ``"host"``).  A warm process (``$REPRO_ARTIFACT_DIR``
read by the compile, or a ``Server`` with ``artifact_cache=``)
transpiles nothing and only pays ``compile()``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ...core.prim import PrimType, prim_from_name
from ...errors import CompilerBug, ReproError
from ...gpu.device import DeviceProfile
from ...gpu.simulator import GpuSimulator, interp_launch
from ...interp.interpreter import Interpreter
from ...obs import get_tracer
from ...pipeline.artifact import StageArtifact
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

#: Guards the build and attach of ``host.jit_cache``: hosts are shared
#: across serving threads, and each is built once.
_BUILD_LOCK = threading.Lock()


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
    """A host program's generated function, its launch sites and each
    site's compiled kernel (``None``: unsupported)."""

    fn: Callable
    sites: Tuple[LaunchSite, ...]
    kernels: Tuple[Optional[_CompiledKernel], ...]


class JitProgramCache:
    """A host program's generated code, built by the constructor: the
    host function and the compiled kernel of each launch site, with
    their sources.

    Kernel sources are keyed by kernel name, then launch-signature key;
    a ``None`` source records that transpilation was attempted and the
    kernel is unsupported, so neither this process nor (once stored) a
    warm restart ever retries it.
    """

    def __init__(self, hp) -> None:
        cache = hp.artifact_cache
        host_fp = hp.stage_fingerprints.get("host")
        fp = None
        if cache is not None and host_fp:
            fp = _digest(("pycode", host_fp, PYCODE_SCHEMA))
        payload: dict = {}
        if fp is not None:
            artifact = cache.load("pycode", fp)
            if (
                artifact is not None
                and artifact.payload.get("schema") == PYCODE_SCHEMA
            ):
                payload = artifact.payload
        kernels = payload.get("kernels")
        sources: Dict[str, Dict[str, Optional[str]]] = (
            {k: dict(v) for k, v in kernels.items()}
            if isinstance(kernels, dict) else {}
        )
        source = payload.get("host")
        built = None
        if isinstance(source, str):
            try:
                built = _compile_host(hp, source, cached=True)
            except Exception as ex:  # stale/corrupt source: regenerate
                get_tracer().instant(
                    "host-compile-error", "vm", entry=hp.name,
                    error=f"{type(ex).__name__}: {ex}",
                )
        transpiled = built is None
        if built is None:
            with get_tracer().span("jit.transpile", "vm", entry=hp.name):
                source = transpile_host(hp)
            try:
                built = _compile_host(hp, source, cached=False)
            except Exception as ex:
                raise CompilerBug(
                    "host", "transpile",
                    f"{hp.name}: generated host code does not run: "
                    f"{type(ex).__name__}: {ex}",
                ) from ex
        fn, sites = built
        compiled: Dict[Tuple[str, str], Optional[_CompiledKernel]] = {}
        for site in sites:
            if site.key in compiled:
                continue
            name, sig_key = site.key
            by_sig = sources.setdefault(name, {})
            cached = sig_key in by_sig
            if not cached:
                by_sig[sig_key] = _transpile(site)
                transpiled = True
            compiled[site.key] = _compile(site.kernel, by_sig[sig_key], cached)
        if transpiled and fp is not None:
            cache.store(
                StageArtifact(
                    "pycode", fp, hp.name,
                    {"schema": PYCODE_SCHEMA, "kernels": sources,
                     "host": source},
                    meta={"schema": PYCODE_SCHEMA},
                )
            )
        self._sources = sources
        self._host_source: str = source
        self._host = HostFunction(
            fn, sites, tuple(compiled[site.key] for site in sites)
        )

    def host(self) -> HostFunction:
        """The program's generated function."""
        return self._host

    def host_source(self) -> str:
        """The host function's source (the golden-file tests pin it
        beside the kernels')."""
        return self._host_source

    def sources(self) -> Dict[str, Dict[str, Optional[str]]]:
        """Copy of the generated kernel sources, keyed by kernel name
        then launch-signature key (``None`` marks an unsupported
        kernel) — the golden-file tests pin this text."""
        return {k: dict(v) for k, v in self._sources.items()}


def _compile_host(hp, source: str, cached: bool):
    """The host function ``source`` builds for ``hp``, and its launch
    sites."""
    with get_tracer().span("jit.compile", "vm", entry=hp.name, cached=cached):
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
        return ns["build"](hp, stmts), sites


def _transpile(site: LaunchSite) -> Optional[str]:
    """The kernel source of ``site``, or None: unsupported."""
    kernel = site.kernel
    with get_tracer().span(
        "jit.transpile", "vm", kernel=kernel.name, kind=kernel.kind
    ) as span:
        try:
            return transpile_kernel(kernel, site.sig)
        except JitUnsupported as ex:
            span.set(unsupported=ex.reason)
        except Exception as ex:  # codegen bug: degrade, never fail
            span.set(error=f"{type(ex).__name__}: {ex}")
    return None


def _compile(
    kernel, source: Optional[str], cached: bool
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


def jit_cache_for(host) -> JitProgramCache:
    """The host program's :class:`JitProgramCache`, built on first use."""
    cache = host.jit_cache
    if cache is None:
        with _BUILD_LOCK:
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
        """One launcher per launch site of ``hp``'s host function: its
        compiled kernel, or the interpreter where it is unsupported."""
        self._rt.in_place = hp.in_place
        host = jit_cache_for(hp).host()
        return tuple(
            self._launcher(site, kernel) if kernel is not None
            else partial(self._hand_over, site, "transpilation unsupported")
            for site, kernel in zip(host.sites, host.kernels)
        )

    def _launcher(self, site: LaunchSite, kernel: _CompiledKernel):
        """``kernel``, handing a launch it refuses or traps in over to
        the interpreter."""
        rt = self._rt

        def launch(*raws) -> tuple:
            try:
                outs = kernel(rt, raws)
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
            return self._hand_over(site, reason, *raws)

        return launch

    def _hand_over(self, site: LaunchSite, reason: str, *raws) -> tuple:
        self._note_fallback(site.kernel, reason)
        # Generated code never mutates arrays it does not own, so the
        # arguments reach the interpreter as the launch found them.
        return interp_launch(self._interp, site, *raws)

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
