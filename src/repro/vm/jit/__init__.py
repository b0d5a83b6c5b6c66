"""Kernel transpilation: the jit executor tier.

Lowers kernel-IR kernels into specialized straight-line NumPy source
(:mod:`~repro.vm.jit.codegen`), compiles and memoizes them per launch
signature, persists the generated source through the artifact cache
(:mod:`~repro.vm.jit.engine`), and runs them under the simulated-device
machinery of :class:`repro.gpu.GpuSimulator`.  Per launch the ladder is
jit → interpreter.
"""

from .codegen import JitUnsupported, PYCODE_SCHEMA, transpile_kernel
from .engine import JitEngine, JitProgramCache, jit_cache_for
from .runtime import JitFallback, JitRuntime

__all__ = [
    "JitEngine",
    "JitFallback",
    "JitProgramCache",
    "JitRuntime",
    "JitUnsupported",
    "PYCODE_SCHEMA",
    "jit_cache_for",
    "transpile_kernel",
]
