"""The benchmark registry: one spec per paper benchmark."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .datasets import TABLE2, Dataset
from .programs import ALL_NAMES, module_for

__all__ = ["BenchmarkSpec", "BENCHMARKS", "get_benchmark"]


@dataclass
class BenchmarkSpec:
    name: str
    suite: str  # Rodinia | FinPar | Parboil | Accelerate
    dataset: Dataset
    module: object

    def program(self):
        return self.module.program()

    def small_args(self, rng):
        return self.module.small_args(rng, self.dataset.small)

    def perf_args(self, rng):
        return self.module.small_args(rng, self.dataset.perf)

    def args_at(self, rng, sizes: Dict[str, int]):
        """Arguments at arbitrary sizes (e.g. the sharding suite's
        saturation-scale datasets)."""
        return self.module.small_args(rng, sizes)

    def reference(self):
        return self.module.reference()

    def variant(self, name: str):
        """An ablation variant program (e.g. 'no_inplace'), if any."""
        fn = getattr(self.module, f"program_{name}", None)
        return fn() if fn is not None else None


_SUITES = {
    "Backprop": "Rodinia",
    "CFD": "Rodinia",
    "HotSpot": "Rodinia",
    "K-means": "Rodinia",
    "LavaMD": "Rodinia",
    "Myocyte": "Rodinia",
    "NN": "Rodinia",
    "Pathfinder": "Rodinia",
    "SRAD": "Rodinia",
    "LocVolCalib": "FinPar",
    "OptionPricing": "FinPar",
    "MRI-Q": "Parboil",
    "Crystal": "Accelerate",
    "Fluid": "Accelerate",
    "Mandelbrot": "Accelerate",
    "N-body": "Accelerate",
}


def get_benchmark(name: str) -> BenchmarkSpec:
    return BenchmarkSpec(
        name=name,
        suite=_SUITES[name],
        dataset=TABLE2[name],
        module=module_for(name),
    )


class _Lazy(Mapping):
    """Every benchmark by name; a spec is imported on first access."""

    def __init__(self) -> None:
        self._specs: Dict[str, BenchmarkSpec] = {}

    def __getitem__(self, name: str) -> BenchmarkSpec:
        if name not in self._specs:  # unknown: get_benchmark's KeyError
            self._specs.setdefault(name, get_benchmark(name))
        return self._specs[name]

    def __contains__(self, name: object) -> bool:
        return name in ALL_NAMES

    def __iter__(self):
        return iter(ALL_NAMES)

    def __len__(self) -> int:
        return len(ALL_NAMES)

    def names(self):
        return ALL_NAMES


BENCHMARKS = _Lazy()
