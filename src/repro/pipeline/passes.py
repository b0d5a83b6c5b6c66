"""The declarative pass registry of the staged pass manager.

A :class:`Pass` is a *descriptor*: name, stage, observability phase,
the transformation callable, declared ordering requirements, what it
invalidates (which tells the driver how to revalidate its output), an
options gate, and the slice of :class:`CompilerOptions` fields its
output depends on (which feeds the stage-artifact fingerprints).

The transformation packages register their passes into the global
:data:`REGISTRY` through their ``register_passes`` hooks —
:mod:`repro.checker`, :mod:`repro.simplify`, :mod:`repro.fusion`,
:mod:`repro.flatten`, :mod:`repro.memory` and :mod:`repro.backend`
each contribute the passes they implement — and the driver
(:mod:`repro.pipeline.driver`) replays the dependency-ordered plan
instead of a hardcoded sequence.  ``repro passes`` prints the live
registry.

A plan depends only on the registry and the options, and so do the
parts of a stage fingerprint that do not depend on the program (its
*salt*, :func:`~repro.pipeline.fingerprint.stage_salt`).
:meth:`PassRegistry.planned` computes both once per (hashable, frozen)
:class:`CompilerOptions` and keeps them in one memo, which
:meth:`PassRegistry.register` empties.  Validating ``disabled_passes``
is not memoised: a bad name raises on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..errors import ArgumentError, CompilerBug
from .options import CompilerOptions

__all__ = ["Pass", "PassContext", "PassRegistry", "REGISTRY", "STAGES"]

#: Stage order: frontend validation, core-IR transformations, then the
#: kernel-IR (host program) transformations.  Artifacts snapshot the
#: frontier between ``core`` and ``host``.
STAGES: Tuple[str, ...] = ("frontend", "core", "host")

#: Driver failure policies, from gentlest to harshest:
#: ``guarded``  — re-validate, roll back to the input IR on failure;
#: ``degrade``  — re-validate, fall back to the pass's conservative
#:                variant on failure, escalate if that also fails;
#: ``escalate`` — a failure is a :class:`CompilerBug` with the
#:                offending IR attached (mandatory lowering);
#: ``failfast`` — errors propagate untouched even in resilient mode
#:                (the initial check: a malformed input program is the
#:                caller's error, not a pass bug).
POLICIES: Tuple[str, ...] = ("guarded", "degrade", "escalate", "failfast")


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


@dataclass(frozen=True)
class Pass:
    """One registered compiler pass (a descriptor, not an instance)."""

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
    #: Pass names that must run before this one *when enabled* (the
    #: declarative replacement for the old hardcoded sequence; a
    #: disabled requirement is simply skipped).
    requires: Tuple[str, ...] = ()
    #: Facts the pass may break, telling the driver how to revalidate:
    #: ``types`` → re-typecheck the core IR, ``memory`` → re-validate
    #: the host program's allocation structure.
    invalidates: Tuple[str, ...] = ()
    #: Options gate: the pass runs only when this predicate holds.
    enabled: Callable[[CompilerOptions], bool] = lambda _o: True
    #: The :class:`CompilerOptions` fields this pass's *output* depends
    #: on — the fingerprint slice: stage artifacts hash exactly these,
    #: so runtime-only options (e.g. ``executor``) never invalidate
    #: cached artifacts.
    option_keys: Tuple[str, ...] = ()
    #: Failure policy interpreted by the driver (see :data:`POLICIES`).
    policy: str = "guarded"
    #: Conservative recovery variant for ``policy="degrade"``; same
    #: signature as ``fn``.  Raising from it escalates the failure.
    fallback: Optional[Callable] = None
    fallback_action: str = "rolled back"
    #: Optional passes may be disabled (``--disable-pass``/ablation);
    #: mandatory passes (check, inline, flatten, lower) may not.
    optional: bool = True
    #: Bumped when a pass's output semantics change, invalidating any
    #: on-disk artifacts that embedded the old behaviour.
    version: int = 1

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"pass {self.name!r}: unknown stage {self.stage!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"pass {self.name!r}: unknown policy {self.policy!r}")

    def enabled_under(self, options: CompilerOptions) -> bool:
        return self.enabled(options) and self.name not in options.disabled_passes

    def fingerprint_token(self) -> str:
        """This pass's contribution to the pipeline fingerprint."""
        return f"{self.stage}:{self.name}@{self.version}"


class PassRegistry:
    """Name-keyed registry with dependency-ordered planning.

    Registration order is the tiebreak: planning performs a stable
    stage-major topological sort over ``requires`` edges, so two passes
    with no declared ordering keep the order their packages registered
    them in.
    """

    def __init__(self) -> None:
        self._passes: Dict[str, Pass] = {}
        #: Per options: the enabled, ordered passes and the salt of the
        #: ``core`` and ``host`` artifact stages.  Emptied by
        #: :meth:`register`.
        self._plans: Dict[
            CompilerOptions,
            Tuple[Tuple[Pass, ...], Mapping[str, Tuple[str, str]]],
        ] = {}

    def register(self, p: Pass) -> Pass:
        if p.name in self._passes:
            raise ValueError(f"pass {p.name!r} is already registered")
        unknown = [r for r in p.requires if r not in self._passes]
        if unknown:
            raise ValueError(
                f"pass {p.name!r} requires unregistered pass(es) {unknown} "
                "(register dependencies first)"
            )
        self._passes[p.name] = p
        self._plans.clear()
        return p

    def get(self, name: str) -> Pass:
        try:
            return self._passes[name]
        except KeyError:
            raise KeyError(f"no registered pass named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._passes

    def __iter__(self) -> Iterator[Pass]:
        return iter(self.ordered())

    def __len__(self) -> int:
        return len(self._passes)

    def names(self) -> List[str]:
        return [p.name for p in self.ordered()]

    def ordered(self) -> List[Pass]:
        """Every registered pass, stage-major and dependency-ordered
        (ignores options gates — this is the full registry listing)."""
        out: List[Pass] = []
        for stage in STAGES:
            out.extend(self._toposort(
                [p for p in self._passes.values() if p.stage == stage]
            ))
        return out

    def plan(self, options: CompilerOptions) -> List[Pass]:
        """The dependency-ordered passes *enabled* under ``options``.

        Validates ``options.disabled_passes`` on every call: unknown
        names and attempts to disable a mandatory pass raise
        :class:`~repro.errors.ArgumentError`.  Each call returns a
        fresh list.
        """
        return list(self.planned(options)[0])

    def planned(
        self, options: CompilerOptions
    ) -> Tuple[Tuple[Pass, ...], Mapping[str, Tuple[str, str]]]:
        """:meth:`plan` as a tuple, with the salt of the ``core`` and
        ``host`` artifact stages; both are computed once per options."""
        for name in options.disabled_passes:
            if name not in self._passes:
                raise ArgumentError(
                    f"--disable-pass {name}: no such pass "
                    f"(known: {', '.join(sorted(self._passes))})"
                )
            if not self._passes[name].optional:
                raise ArgumentError(
                    f"--disable-pass {name}: pass is mandatory"
                )
        held = self._plans.get(options)
        if held is None:
            # Imported here: the fingerprint module imports this one.
            from .fingerprint import stage_salt

            # Two threads may both miss; they store equal values.
            plan = tuple(p for p in self.ordered() if p.enabled_under(options))
            salts = MappingProxyType({
                stage: stage_salt(stage, options, plan)
                for stage in ("core", "host")
            })
            held = self._plans[options] = (plan, salts)
        return held

    def _toposort(self, passes: List[Pass]) -> List[Pass]:
        """Stable Kahn's algorithm over intra-stage ``requires`` edges
        (cross-stage edges are satisfied by stage ordering)."""
        order = {p.name: i for i, p in enumerate(passes)}
        pending = {p.name: p for p in passes}
        out: List[Pass] = []
        satisfied: set = set()
        while pending:
            ready = [
                name for name, p in pending.items()
                if all(
                    r in satisfied or r not in order
                    for r in p.requires
                )
            ]
            if not ready:
                raise CompilerBug(
                    "pass-registry", "plan",
                    f"dependency cycle among passes {sorted(pending)}",
                )
            # One node per round (the earliest-registered ready one),
            # not the whole Kahn frontier: batching would let a
            # later-registered pass with fewer dependencies jump ahead
            # of earlier-registered ones still waiting on theirs.
            name = min(ready, key=order.__getitem__)
            out.append(pending.pop(name))
            satisfied.add(name)
        return out


#: The global registry the transformation packages populate (via
#: ``repro.pipeline.__init__`` calling their ``register_passes``).
REGISTRY = PassRegistry()
