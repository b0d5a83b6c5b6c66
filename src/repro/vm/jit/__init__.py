"""Transpilation: the jit executor tier, and the host function both
executors run.

Lowers kernel-IR kernels into specialized straight-line NumPy source
(:mod:`~repro.vm.jit.codegen`) and each host program into one Python
function (:mod:`~repro.vm.jit.codegen.host`), compiles and memoizes
them (kernels per launch signature), persists the generated source
through the artifact cache, and runs kernels as the kernel runner
(:class:`~repro.vm.jit.engine.JitRunner`) of that host function, whose
accounting object keeps the clock, heap and faults.  Per launch the
ladder is jit → interpreter.
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
