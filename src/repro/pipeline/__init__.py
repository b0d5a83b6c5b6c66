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
* :mod:`repro.pipeline.fingerprint` — the one compile identity, the
  host fingerprint, behind every compile cache;
* :mod:`repro.pipeline.artifact` — the versioned host artifact and the
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
    fingerprint_program,
    fingerprint_text,
    options_slice,
    pipeline_fingerprint,
    salted_stage_fingerprint,
)
from .artifact import (
    ARTIFACT_DIR_ENV,
    ARTIFACT_SCHEMA,
    ArtifactCache,
    StageArtifact,
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
    "fingerprint_program",
    "fingerprint_text",
    "options_slice",
    "pipeline_fingerprint",
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
    """The compile's identity, its host fingerprint — used by the
    serving layer's single-flight compile cache (:mod:`repro.serve.cache`)
    so N concurrent requests for the same program compile once, and
    equal to ``compile_program(prog, options, entry).fingerprints["host"]``,
    the name of its on-disk artifact.  Options that differ only in a
    field no enabled pass reads (``strict``) share a key.
    """
    _, salt = planned(options or CompilerOptions())
    return salted_stage_fingerprint(
        "host", fingerprint_program(prog), entry, salt
    )
