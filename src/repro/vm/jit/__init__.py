"""Kernel transpilation: the jit executor tier.

Lowers kernel-IR kernels into specialized straight-line NumPy source
(:mod:`~repro.vm.jit.codegen`), compiles and memoizes them per launch
signature, persists the generated source through the artifact cache,
and runs them as the kernel runner (:class:`~repro.vm.jit.engine.
JitRunner`) under the host walk of :class:`repro.gpu.GpuSimulator`,
whose accounting object keeps the clock, heap and faults.  Per launch
the ladder is jit → interpreter.
"""

from .codegen import JitUnsupported, PYCODE_SCHEMA, transpile_kernel
from .engine import JitEngine, JitProgramCache, JitRunner, jit_cache_for
from .runtime import JitFallback, JitRuntime

__all__ = [
    "JitEngine",
    "JitFallback",
    "JitProgramCache",
    "JitRunner",
    "JitRuntime",
    "JitUnsupported",
    "PYCODE_SCHEMA",
    "jit_cache_for",
    "transpile_kernel",
]
