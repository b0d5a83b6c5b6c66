"""Pipeline configuration: the compile decisions of §6.1.1 and the
per-pass switch of the staged pass manager."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["CompilerOptions", "PassDiagnostic"]


@dataclass(frozen=True)
class CompilerOptions:
    """What a compile decides (all on by default, as in the paper).

    The fields shape what a pass does; ``disabled_passes`` is the one
    way to switch an optional pass off (the §6.1.1 ablations: fusion,
    coalescing, tiling, memory planning).  How to run the result is
    not a compile decision: the executor is
    :attr:`repro.runtime.ExecutionPolicy.executor`.
    """

    distribute: bool = True
    interchange: bool = True
    reduce_map_interchange: bool = True
    #: The paper's heuristic of sequentialising stream_red/stream_map
    #: nested inside map nests ("Presently, nested stream_reds are
    #: sequentialised", §5.1).
    sequentialise_streams: bool = True
    check: bool = True
    check_uniqueness: bool = True
    #: Execute in-place updates by mutation on the simulated device
    #: (sound only for uniqueness-checked programs).
    in_place: bool = True
    #: Fail fast on a broken optimisation pass instead of rolling the
    #: IR back and continuing.
    strict: bool = False
    #: Optional passes to skip by name (the CLI's ``--disable-pass``;
    #: ``repro passes`` lists them).  Disabling a mandatory pass is an
    #: :class:`~repro.errors.ArgumentError`.  Stored sorted and
    #: de-duplicated, so one set of passes is one (hashable) options
    #: value and one compile key, whatever order or sequence type the
    #: caller gave.
    disabled_passes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # A frozen dataclass normalises a field during construction
        # through object.__setattr__.
        object.__setattr__(
            self, "disabled_passes", tuple(sorted(set(self.disabled_passes)))
        )

    @property
    def coalescing(self) -> bool:
        # Frozen-harness read (benchmarks/e2e/probes.py): delete with
        # its ``JitEngine(coalescing=)`` call in the next benchmark PR.
        return "coalescing" not in self.disabled_passes


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
