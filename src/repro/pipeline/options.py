"""Pipeline configuration: the ablation switches of §6.1.1 plus the
generic per-pass disable gate of the staged pass manager."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..runtime import DEFAULT_EXECUTOR, check_executor

__all__ = ["CompilerOptions", "PassDiagnostic"]


@dataclass(frozen=True)
class CompilerOptions:
    """Pipeline switches (all on by default, as in the paper).

    Every named switch gates one or more passes through the pass's
    ``enabled`` predicate (see :mod:`repro.pipeline.passes`);
    ``disabled_passes`` is the generic escape hatch — any *optional*
    pass can be switched off by name (the CLI's ``--disable-pass``)
    without a dedicated flag.
    """

    fusion: bool = True
    distribute: bool = True
    interchange: bool = True
    reduce_map_interchange: bool = True
    #: The paper's heuristic of sequentialising stream_red/stream_map
    #: nested inside map nests ("Presently, nested stream_reds are
    #: sequentialised", §5.1).
    sequentialise_streams: bool = True
    coalescing: bool = True
    tiling: bool = True
    #: Liveness-based device-memory planning (frees at last use, block
    #: reuse, copy elision); off = the naive never-free allocation
    #: behaviour, the ``--no-memory-planning`` ablation.
    memory_planning: bool = True
    check: bool = True
    check_uniqueness: bool = True
    #: Execute in-place updates by mutation on the simulated device
    #: (sound only for uniqueness-checked programs).
    in_place: bool = True
    #: Fail fast on a broken optimisation pass instead of rolling the
    #: IR back and continuing.
    strict: bool = False
    #: Which execution engine (one of :data:`repro.runtime.EXECUTORS`)
    #: :meth:`CompiledProgram.execute` uses when no explicit
    #: :class:`ExecutionPolicy` is given, and a :class:`repro.serve.Server`
    #: tries before its interpreter floor.  Runtime-only: does not affect the
    #: generated code or the stage artifacts.
    executor: str = DEFAULT_EXECUTOR
    #: Optional passes to skip by name (the generic ``--disable-pass``
    #: ablation; ``repro passes`` lists them).  Disabling a mandatory
    #: pass is an :class:`~repro.errors.ArgumentError`.  Stored sorted
    #: and de-duplicated, so one set of passes is one (hashable) options
    #: value and one compile key, whatever order or sequence type the
    #: caller gave.
    disabled_passes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_executor(self.executor)
        # A frozen dataclass normalises a field during construction
        # through object.__setattr__.
        object.__setattr__(
            self, "disabled_passes", tuple(sorted(set(self.disabled_passes)))
        )


@dataclass
class PassDiagnostic:
    """One pass-guard intervention: which pass failed, in which phase,
    how, and what the guard did about it."""

    pass_name: str
    phase: str
    error: str
    action: str = "rolled back"

    def __str__(self) -> str:
        return f"[{self.phase}/{self.pass_name}] {self.action}: {self.error}"
