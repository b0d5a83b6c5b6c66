"""futhark-repro: a Python reproduction of the Futhark language and
optimising compiler from PLDI 2017 ("Purely Functional GPU-Programming
with Nested Parallelism and In-Place Array Updates").

Public API highlights
---------------------
- :mod:`repro.core` — the core language: types, AST, builder, values.
- :func:`repro.frontend.parse` — parse concrete syntax into core IR.
- :func:`repro.check_program` — type/alias/uniqueness checking.
- :class:`repro.interp.Interpreter` — reference semantics.
- :func:`repro.compile_program` — the full Fig. 3 pipeline.
- :mod:`repro.gpu` — the simulated GPU devices and cost model.
- :mod:`repro.bench` — the 16-benchmark suite of Section 6.
- :mod:`repro.errors` — the shared error taxonomy of the resilience
  layer (:class:`ReproError` and friends).
- :mod:`repro.runtime` — the resilient executor (retry, watchdog,
  interpreter fallback) and its :class:`RunReport`.
"""

__version__ = "1.0.0"

from .core import ProgBuilder  # noqa: F401
from .errors import (  # noqa: F401
    ArgumentError,
    CompilerBug,
    DeviceFault,
    KernelTimeout,
    ReproError,
    ValidationError,
)
from .interp import Interpreter, run_program  # noqa: F401


def check_program(prog, **kwargs):
    """Type-check a program, including alias and uniqueness analysis."""
    from .checker import check_program as _check

    return _check(prog, **kwargs)


def compile_program(prog, options=None):
    """Run the full compiler pipeline (Fig. 3) on a core program.

    Returns a :class:`repro.pipeline.CompiledProgram`."""
    from .pipeline import compile_program as _compile

    return _compile(prog, options)
