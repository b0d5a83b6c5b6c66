"""The sixteen-benchmark evaluation suite of Section 6.

Benchmarks ported from Rodinia (Backprop, CFD, HotSpot, K-means,
LavaMD, Myocyte, NN, Pathfinder, SRAD), FinPar (LocVolCalib,
OptionPricing), Parboil (MRI-Q) and Accelerate (Crystal, Fluid,
Mandelbrot, N-body), each written in the core language and compiled by
the full pipeline, paired with a reference-implementation cost model
encoding the published code's documented structure.
"""

from .suite import BENCHMARKS, BenchmarkSpec, get_benchmark  # noqa: F401
