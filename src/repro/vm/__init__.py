"""repro.vm — vectorized NumPy execution of the kernel IR.

The scalar reference interpreter defines the semantics; this package
makes the same kernels fast.  :mod:`repro.vm.jit` transpiles each
kernel once per launch signature into straight-line NumPy source that
evaluates it over whole batches (one ufunc application per scalar
operation, for the entire flat index space at once) — the one kernel
lowering of the repository, and the default executor
(``executor="jit"`` on :class:`repro.pipeline.CompilerOptions` /
:class:`repro.runtime.ExecutionPolicy`, ``--executor jit`` on the CLI).
A launch the transpiler refuses, or whose generated code meets a
data-dependent trap, re-runs on the interpreter (counted on the
``vm.fallback`` metric), so results are always interpreter-identical.
``JitEngine`` is only the e2e harness's constructor call shape.
"""

from .jit import JitEngine

# Frozen-harness import (benchmarks/e2e/probes.py): delete with the
# `vm.vector.engine_run_ms` row in the next benchmark PR.
VectorEngine = JitEngine

__all__ = ["JitEngine", "VectorEngine"]
