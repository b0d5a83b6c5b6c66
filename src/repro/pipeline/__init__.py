"""The compiler pipeline — the staged pass manager over Fig. 3.

Four layers:

* :mod:`repro.pipeline.passes` — the :class:`Pass` descriptor and
  :data:`PASSES`, every pass in plan order, built from the
  ``passes()`` hooks of the transformation packages
  (:mod:`repro.checker`, :mod:`repro.simplify`, :mod:`repro.fusion`,
  :mod:`repro.flatten`, :mod:`repro.backend`, :mod:`repro.memory`);
  :func:`plan`/:func:`planned` select the passes an options value
  enables;
* :mod:`repro.pipeline.driver` — the driver, which runs the plan
  under one pass guard (revalidate and recover, or report a
  :class:`~repro.errors.CompilerBug`);
* :mod:`repro.pipeline.fingerprint` — the one hashing scheme behind
  every compile cache;
* :mod:`repro.pipeline.artifact` — versioned stage artifacts and the
  persistent cross-process :class:`ArtifactCache`.

``compile_program`` / ``compile_source`` take a program through the
full pipeline under :class:`CompilerOptions`, returning a
:class:`CompiledProgram`.  The transformation entry points
(``fuse_prog``, ``simplify_prog``, ...) are re-exported here and looked
up *late* by the passes, so tests can monkeypatch
``repro.pipeline.fuse_prog`` etc.
"""

from __future__ import annotations

from typing import Optional

from ..backend.codegen import lower_program
from ..backend.opencl_text import render_program
from ..checker import check_program
from ..core import ast as A
from ..core.pretty import pretty_prog
from ..flatten import FlattenOptions, flatten_prog
from ..fusion import fuse_prog
from ..memory.coalescing import coalesce_program
from ..memory.plan import plan_memory
from ..memory.tiling import tile_program
from ..simplify import inline_prog, simplify_prog

from .options import CompilerOptions, PassDiagnostic
from .passes import PASSES, STAGES, Pass, PassContext, plan, planned
from .fingerprint import (
    ARTIFACT_VERSION,
    compile_fingerprint,
    fingerprint_program,
    fingerprint_text,
    options_slice,
    pipeline_fingerprint,
    stage_fingerprint,
)
from .artifact import (
    ARTIFACT_DIR_ENV,
    ARTIFACT_SCHEMA,
    ArtifactCache,
    StageArtifact,
    default_artifact_cache,
)
from .driver import CompiledProgram, compile_program, compile_source

__all__ = [
    # the stable public API
    "CompilerOptions",
    "CompiledProgram",
    "PassDiagnostic",
    "compile_program",
    "compile_source",
    "compile_cache_key",
    # the staged pass manager
    "PASSES",
    "Pass",
    "PassContext",
    "STAGES",
    "plan",
    "planned",
    # fingerprints & artifacts
    "ARTIFACT_VERSION",
    "ARTIFACT_DIR_ENV",
    "ARTIFACT_SCHEMA",
    "ArtifactCache",
    "StageArtifact",
    "default_artifact_cache",
    "compile_fingerprint",
    "fingerprint_program",
    "fingerprint_text",
    "options_slice",
    "pipeline_fingerprint",
    "stage_fingerprint",
]

#: The most conservative kernel-extraction strategy: exploit only the
#: outermost parallelism and sequentialise everything nested.  This is
#: the degradation target when full flattening fails.
_CONSERVATIVE_FLATTEN = FlattenOptions(
    distribute=False,
    interchange=False,
    reduce_map_interchange=False,
    sequentialise_streams=True,
)


def compile_cache_key(
    prog: A.Prog,
    options: Optional[CompilerOptions] = None,
    entry: str = "main",
) -> str:
    """A stable cache key for compiling ``prog`` — used by the serving
    layer's single-flight compile cache (:mod:`repro.serve.cache`) so
    N concurrent requests for the same program compile once:
    ``compile_fingerprint(fingerprint_program(prog), options, entry)``.
    """
    return compile_fingerprint(fingerprint_program(prog), options, entry)
