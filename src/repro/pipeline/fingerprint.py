"""The fingerprint API: one compile identity.

A compile's product is its host program, and compilation is
deterministic in (program content, entry point, the enabled pass
pipeline, the options slice those passes read).  The host-stage
fingerprint over that tuple is the one identity of a compile: the key
of the serving layer's in-memory single-flight compile cache
(:mod:`repro.serve.cache`, through
:func:`repro.pipeline.compile_cache_key`), the name of the on-disk
host artifact (:class:`~repro.pipeline.artifact.ArtifactCache`), and
the key the jit files its generated source under.  A field no enabled
pass's output reads (``strict``) is outside the slice, so it never
splits a cache.

Everything the fingerprint hashes besides the content and the entry
point, the *salt* (:func:`stage_salt`), depends only on the options,
so it is computed once per options beside the plan
(:func:`~repro.pipeline.passes.planned`), and a compile hashes only
the content, entry and salt (:func:`salted_stage_fingerprint`).  The
content fingerprint is taken once per live program object
(:class:`~repro.core.identity.IdentityMemo`): a warm compile, or a
key taken after a compile, of the same object reads it back.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence, Tuple

from ..core import pretty
from ..core.identity import IdentityMemo
from .options import CompilerOptions
from .passes import Pass

__all__ = [
    "ARTIFACT_VERSION",
    "fingerprint_text",
    "fingerprint_program",
    "options_slice",
    "pipeline_fingerprint",
    "stage_salt",
    "salted_stage_fingerprint",
]

#: Bumped when the artifact payload layout (not an individual pass)
#: changes incompatibly; baked into the host fingerprint so stale
#: on-disk artifacts miss instead of mis-loading.
ARTIFACT_VERSION = 1

_PROGRAM_DIGESTS = IdentityMemo()


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
    its pretty-printed rendering, a faithful serialisation), once per
    live object."""
    digest = _PROGRAM_DIGESTS.get(prog)
    if digest is None:
        text = pretty.pretty_prog(prog)
        digest = _PROGRAM_DIGESTS.add(prog, _digest(("program", text)))
    return digest


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


def stage_salt(
    options: CompilerOptions, plan: Sequence[Pass]
) -> Tuple[str, str]:
    """What the host fingerprint hashes besides the input and entry
    point: the options slice the enabled passes read and the pipeline
    fingerprint of the whole plan."""
    keys = [k for p in plan for k in p.option_keys]
    return options_slice(options, keys), pipeline_fingerprint(plan)


def salted_stage_fingerprint(
    stage: str, content_fingerprint: str, entry: str, salt: Tuple[str, str]
) -> str:
    """The fingerprint of ``stage`` given its :func:`stage_salt`.  The
    driver names only the ``host`` stage; the stage token stays in the
    digest, so host artifacts on disk keep their names."""
    sliced, pipeline = salt
    return _digest(
        (f"stage:{stage}", content_fingerprint, entry, sliced, pipeline)
    )
