"""The fingerprint API: one hashing scheme for every compile cache.

Compilation is deterministic in (program content, the options slice
the enabled passes read, the enabled pass pipeline, entry point), so
that tuple *is* the cache identity — for the in-memory single-flight
compile cache (:mod:`repro.serve.cache`), for the on-disk
:class:`~repro.pipeline.artifact.ArtifactCache`, and for the per-stage
resume fingerprints.  (:func:`repro.pipeline.compile_cache_key`, the
serving layer's key, is :func:`compile_fingerprint` of a program.)

Two flavours:

* :func:`compile_fingerprint` — keyed on the *full* options repr.
  Used for in-memory :class:`~repro.pipeline.driver.CompiledProgram`
  caching, where runtime-only options (``executor``) legitimately
  distinguish entries.
* :func:`stage_fingerprint` — keyed on the *slice* of options the
  passes up to that stage declare via ``Pass.option_keys``, plus the
  pipeline fingerprint of those passes.  Used for on-disk stage
  artifacts, so flipping a runtime-only or later-stage option never
  invalidates an earlier stage's artifact.

Those two parts, a stage's *salt* (:func:`stage_salt`), depend only on
the options and the plan, so they are computed once per options beside
the plan (:func:`~repro.pipeline.passes.planned`), and a compile
hashes only the stage, content, entry and salt
(:func:`salted_stage_fingerprint`), in :func:`stage_fingerprint`'s
order.  The content fingerprint is taken on every compile.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence, Tuple

from .options import CompilerOptions
from .passes import Pass, STAGES

__all__ = [
    "ARTIFACT_VERSION",
    "fingerprint_text",
    "fingerprint_program",
    "options_slice",
    "pipeline_fingerprint",
    "stage_salt",
    "stage_fingerprint",
    "salted_stage_fingerprint",
    "compile_fingerprint",
]

#: Bumped when the artifact payload layout (not an individual pass)
#: changes incompatibly; baked into every stage fingerprint so stale
#: on-disk artifacts miss instead of mis-loading.
ARTIFACT_VERSION = 1


def _digest(parts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def fingerprint_text(text: str) -> str:
    """The content fingerprint of a concrete-syntax program."""
    return _digest(("source", text))


def fingerprint_program(prog) -> str:
    """The content fingerprint of a core-IR program (hashed through
    its pretty-printed rendering, which is a faithful serialisation)."""
    from ..core.pretty import pretty_prog

    return _digest(("program", pretty_prog(prog)))


def options_slice(
    options: CompilerOptions, keys: Iterable[str]
) -> str:
    """A canonical ``k=v`` rendering of the named options fields."""
    return ",".join(
        f"{k}={getattr(options, k)!r}" for k in sorted(set(keys))
    )


def pipeline_fingerprint(passes: Sequence[Pass]) -> str:
    """Identity of an ordered pass pipeline: names, stages and pass
    versions, plus the global artifact-format version."""
    return _digest(
        [f"pipeline/v{ARTIFACT_VERSION}"]
        + [p.fingerprint_token() for p in passes]
    )


def stage_fingerprint(
    stage: str,
    content_fingerprint: str,
    options: CompilerOptions,
    plan: Sequence[Pass],
    entry: str = "main",
) -> str:
    """The artifact fingerprint for one stage frontier.

    Hashes the input content, the entry point, the enabled passes up
    to and including ``stage`` (in plan order), and exactly the options
    fields those passes declare in ``Pass.option_keys``.
    """
    return salted_stage_fingerprint(
        stage, content_fingerprint, entry, stage_salt(stage, options, plan)
    )


def stage_salt(
    stage: str, options: CompilerOptions, plan: Sequence[Pass]
) -> Tuple[str, str]:
    """What ``stage``'s fingerprint hashes besides the input and entry
    point: the options slice and the pipeline fingerprint of the passes
    up to and including ``stage``."""
    upto = STAGES.index(stage)
    prefix = [p for p in plan if STAGES.index(p.stage) <= upto]
    keys = [k for p in prefix for k in p.option_keys]
    return options_slice(options, keys), pipeline_fingerprint(prefix)


def salted_stage_fingerprint(
    stage: str, content_fingerprint: str, entry: str, salt: Tuple[str, str]
) -> str:
    """:func:`stage_fingerprint`, given the stage's :func:`stage_salt`."""
    sliced, pipeline = salt
    return _digest(
        (f"stage:{stage}", content_fingerprint, entry, sliced, pipeline)
    )


def compile_fingerprint(
    content_fingerprint: str,
    options: Optional[CompilerOptions] = None,
    entry: str = "main",
) -> str:
    """The full-options compile key (in-memory caching).

    ``CompilerOptions`` is a frozen dataclass whose repr enumerates
    every switch, which makes the key automatically sensitive to any
    option added later.
    """
    return _digest(
        (
            "compile",
            content_fingerprint,
            repr(options or CompilerOptions()),
            entry,
        )
    )
