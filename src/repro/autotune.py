"""Multi-versioned compilation — the future-work direction §5.1 closes
with: "A more general solution would be to generate all possible code
versions, and to discriminate between them at runtime based on static
predicates that test whether the exploited parallelism is enough to
fully utilize hardware.  Work is in progress in this direction."

:func:`compile_versions` compiles a program under several flattening
strategies; :class:`MultiVersioned` picks, per dataset size, the
version the cost model predicts fastest (the "static predicate" being
the analytic estimate at the concrete sizes), and can execute it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .core import ast as A
from .core.values import Value
from .errors import ArgumentError
from .gpu.costmodel import CostReport, size_env_from_args
from .gpu.device import DeviceProfile, NVIDIA_GTX780TI
from .obs import get_logger
from .pipeline import CompiledProgram, CompilerOptions, compile_program

#: Structured replacement for the ad-hoc debug prints this module used
#: to accumulate: quiet by default, visible under ``--verbose``.
_log = get_logger("autotune")

__all__ = ["MultiVersioned", "compile_versions", "DEFAULT_STRATEGIES"]

#: The strategy space: how much nested parallelism to exploit.
DEFAULT_STRATEGIES: Dict[str, CompilerOptions] = {
    "full-flattening": CompilerOptions(),
    "outer-parallelism": CompilerOptions(distribute=False),
    "no-interchange": CompilerOptions(interchange=False),
}


@dataclass
class MultiVersioned:
    """Several compilations of one program plus size-based dispatch."""

    versions: Dict[str, CompiledProgram]

    def choose(
        self,
        size_env: Mapping[str, int],
        device: DeviceProfile = NVIDIA_GTX780TI,
    ) -> Tuple[str, CostReport]:
        """The version predicted fastest at the given sizes."""
        best_name = None
        best_report: Optional[CostReport] = None
        for name, compiled in self.versions.items():
            report = compiled.estimate(size_env, device)
            _log.debug(
                "version-estimate",
                version=name,
                device=device.name,
                total_us=report.total_us,
                launches=report.launches,
            )
            if best_report is None or report.total_us < best_report.total_us:
                best_name, best_report = name, report
        if best_name is None or best_report is None:
            raise ArgumentError(
                "multi-versioned program has no compiled versions"
            )
        _log.debug(
            "version-chosen",
            version=best_name,
            device=device.name,
            total_us=best_report.total_us,
        )
        return best_name, best_report

    def run(
        self,
        args: Sequence[Value],
        device: DeviceProfile = NVIDIA_GTX780TI,
    ):
        """Dispatch on the actual argument sizes and execute the
        chosen version on the simulated device."""
        size_env = size_env_from_args(
            next(iter(self.versions.values())).host, args
        )
        name, _ = self.choose(size_env, device)
        _log.debug("dispatch", version=name, sizes=str(size_env))
        results, report = self.versions[name].run(args, device)
        return results, report, name


def compile_versions(
    prog: A.Prog,
    strategies: Optional[Mapping[str, CompilerOptions]] = None,
    entry: str = "main",
) -> MultiVersioned:
    """Compile ``prog`` under every strategy."""
    strategies = strategies or DEFAULT_STRATEGIES
    versions = {}
    for name, options in strategies.items():
        _log.debug("compile-version", version=name)
        versions[name] = compile_program(prog, options, entry)
    return MultiVersioned(versions)
