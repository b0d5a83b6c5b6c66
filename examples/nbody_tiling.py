#!/usr/bin/env python3
"""N-body with block tiling — the Section 5.2 locality optimisation.

The body arrays are invariant to the parallel dimension and streamed
sequentially by every thread, so the compiler stages them through fast
local memory.  This example shows the tiling annotation in the
generated code, validates the simulated execution against numpy, and
measures the tiling ablation at paper scale (the paper reports x2.29).

Run with:  python examples/nbody_tiling.py
"""

import numpy as np

from repro.core import array_value
from repro.core.prim import F32
from repro.bench.programs.nbody import SOURCE
from repro.pipeline import CompilerOptions, compile_source


def numpy_nbody(xs, ys, zs, ms):
    dx = xs[None, :] - xs[:, None]
    dy = ys[None, :] - ys[:, None]
    dz = zs[None, :] - zs[:, None]
    r2 = dx * dx + dy * dy + dz * dz + 0.01
    f = ms[None, :] / (r2 * np.sqrt(r2))
    return (f * dx).sum(1), (f * dy).sum(1), (f * dz).sum(1)


def main() -> None:
    compiled = compile_source(SOURCE)

    # The kernel stages the four body arrays through local memory.
    text = compiled.opencl()
    tiles = [line for line in text.splitlines() if "tile" in line]
    print("tiling annotations in the generated kernel:")
    for line in tiles:
        print(" ", line.strip())

    # Validate against numpy at small scale.
    rng = np.random.default_rng(3)
    n = 64
    arrays = [
        rng.normal(size=n).astype(np.float32) for _ in range(4)
    ]
    args = [array_value(a, F32) for a in arrays]
    got, report = compiled.run(args)
    want = numpy_nbody(*[a.astype(np.float64) for a in arrays])
    for g, w, label in zip(got, want, "xyz"):
        assert np.allclose(g.data, w, rtol=1e-3, atol=1e-3), label
    print(f"\nsimulated result matches numpy at n={n}")

    # The tiling ablation at paper scale (N = 1e5).
    untiled = compile_source(
        SOURCE, CompilerOptions(disabled_passes=("tiling",))
    )
    sizes = {"n": 100_000}
    t_tiled = compiled.estimate(sizes).total_ms
    t_untiled = untiled.estimate(sizes).total_ms
    print(
        f"at N=1e5: tiled {t_tiled:.1f} ms, untiled {t_untiled:.1f} ms "
        f"-> impact x{t_untiled / t_tiled:.2f} (paper: x2.29)"
    )


if __name__ == "__main__":
    main()
