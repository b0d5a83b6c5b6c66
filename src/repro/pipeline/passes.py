"""The compiler's pass list.

A :class:`Pass` is a *descriptor*: name, stage, observability phase,
the transformation callable, an options gate, the slice of
:class:`CompilerOptions` fields its output depends on (which feeds the
stage-artifact fingerprints) and its recovery.

:data:`PASSES` holds every pass in plan order (Fig. 3).  It is built
once, at import, from the ``passes()`` hooks of the transformation
packages — :mod:`repro.checker`, :mod:`repro.simplify`,
:mod:`repro.fusion`, :mod:`repro.flatten`, :mod:`repro.backend` and
:mod:`repro.memory`, in that order — each returning the passes it
implements.  The driver (:mod:`repro.pipeline.driver`) runs the
enabled ones in that order; ``repro passes`` prints the list.

A plan depends only on the options, and so do the parts of a stage
fingerprint that do not depend on the program (its *salt*,
:func:`~repro.pipeline.fingerprint.stage_salt`).  :func:`planned`
computes both once per (hashable, frozen) :class:`CompilerOptions` and
keeps them in one memo.  Validating ``disabled_passes`` is not
memoised: a bad name raises on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ArgumentError
from .options import CompilerOptions

__all__ = [
    "PASSES",
    "Pass",
    "PassContext",
    "STAGES",
    "plan",
    "planned",
    "rollback",
]

#: Stage order: frontend validation, core-IR transformations, then the
#: kernel-IR (host program) transformations.  Artifacts snapshot the
#: frontier between ``core`` and ``host``.
STAGES: Tuple[str, ...] = ("frontend", "core", "host")


@dataclass
class PassContext:
    """Mutable per-compile state threaded through every pass callable.

    Passes use it to publish side products (fusion statistics) and to
    attach late attributes to their own span via :meth:`annotate`.
    """

    options: CompilerOptions
    entry: str
    #: The driver's guard; gives passes span-attribute access.
    guard: object = None
    #: Published by the fusion pass, carried onto the compile result
    #: (and into the stage artifacts).
    fusion_stats: object = None

    def annotate(self, **attrs) -> None:
        """Attach attributes to the currently running pass's span
        (no-op when tracing is off)."""
        if self.guard is not None:
            self.guard.annotate_last(**attrs)


def rollback(ir, options, ctx):
    """The default recovery: hand back the pass's input unchanged."""
    return ir


@dataclass(frozen=True)
class Pass:
    """One compiler pass (a descriptor, not an instance)."""

    name: str
    #: ``frontend`` | ``core`` | ``host`` (see :data:`STAGES`).
    stage: str
    #: Observability phase label (``simplify``, ``fusion``,
    #: ``kernel-extraction``, ``memory``, ``backend``, ...).
    phase: str
    #: ``fn(ir, options, ctx) -> ir``.  Core passes map A.Prog → A.Prog;
    #: host passes map HostProgram → HostProgram; the ``lower`` boundary
    #: pass maps the final core program to the initial host program.
    fn: Callable
    #: Options gate: the pass runs only when this predicate holds.
    enabled: Callable[[CompilerOptions], bool] = lambda _o: True
    #: The :class:`CompilerOptions` fields this pass's *output* depends
    #: on — the fingerprint slice: stage artifacts hash exactly these,
    #: so runtime-only options (e.g. ``executor``) never invalidate
    #: cached artifacts.
    option_keys: Tuple[str, ...] = ()
    #: What the guard runs instead when the pass fails or produces
    #: invalid IR; same signature as ``fn``.  :func:`rollback` (the
    #: default) returns the input, anything else is a conservative
    #: variant of the pass.  ``None``: the pass has no recovery and
    #: its failure ends the compile.
    fallback: Optional[Callable] = rollback
    #: Optional passes may be disabled (``--disable-pass``/ablation);
    #: mandatory passes (check, inline, flatten, lower) may not.
    optional: bool = True
    #: Bumped when a pass's output semantics change, invalidating any
    #: on-disk artifacts that embedded the old behaviour.
    version: int = 1

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"pass {self.name!r}: unknown stage {self.stage!r}")

    def enabled_under(self, options: CompilerOptions) -> bool:
        return self.enabled(options) and self.name not in options.disabled_passes

    def fingerprint_token(self) -> str:
        """This pass's contribution to the pipeline fingerprint."""
        return f"{self.stage}:{self.name}@{self.version}"


def _collect() -> Tuple[Pass, ...]:
    from .. import backend, checker, flatten, fusion, memory, simplify

    return tuple(
        p
        for package in (checker, simplify, fusion, flatten, backend, memory)
        for p in package.passes()
    )


#: Every pass, in plan order.
PASSES: Tuple[Pass, ...] = _collect()
_BY_NAME: Dict[str, Pass] = {p.name: p for p in PASSES}

#: Per options: the enabled passes and the salt of the ``core`` and
#: ``host`` artifact stages.
_PLANS: Dict[
    CompilerOptions, Tuple[Tuple[Pass, ...], Mapping[str, Tuple[str, str]]]
] = {}


def plan(options: CompilerOptions) -> List[Pass]:
    """The passes *enabled* under ``options``, in plan order.

    Validates ``options.disabled_passes`` on every call: unknown names
    and attempts to disable a mandatory pass raise
    :class:`~repro.errors.ArgumentError`.  Each call returns a fresh
    list.
    """
    return list(planned(options)[0])


def planned(
    options: CompilerOptions,
) -> Tuple[Tuple[Pass, ...], Mapping[str, Tuple[str, str]]]:
    """:func:`plan` as a tuple, with the salt of the ``core`` and
    ``host`` artifact stages; both are computed once per options."""
    for name in options.disabled_passes:
        if name not in _BY_NAME:
            raise ArgumentError(
                f"--disable-pass {name}: no such pass "
                f"(known: {', '.join(sorted(_BY_NAME))})"
            )
        if not _BY_NAME[name].optional:
            raise ArgumentError(f"--disable-pass {name}: pass is mandatory")
    held = _PLANS.get(options)
    if held is None:
        # Imported here: the fingerprint module imports this one.
        from .fingerprint import stage_salt

        # Two threads may both miss; they store equal values.
        steps = tuple(p for p in PASSES if p.enabled_under(options))
        salts = MappingProxyType({
            stage: stage_salt(stage, options, steps)
            for stage in ("core", "host")
        })
        held = _PLANS[options] = (steps, salts)
    return held
