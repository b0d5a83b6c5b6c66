"""Golden-file tests for the transpiler's generated Python.

The exact text of every kernel the jit engine generates for two
representative benchmarks, and of their host functions, is pinned under
``tests/vm/golden/``: any change to the transpiler's lowering, hoisting,
naming or trap sequences shows up as a readable diff against the golden
file instead of a silent drift.

The compiler's fresh-name counter is process-wide, so each golden
compile resets it first (the codegen's own name counter is
per-kernel, hence already deterministic) — the pinned text is what a
fresh process produces.  To regenerate after an intentional change::

    GOLDEN_UPDATE=1 PYTHONPATH=src \
        python -m pytest tests/vm/test_golden_pycode.py
"""

import os
import pathlib

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.core.traversal import name_source
from repro.pipeline import compile_program
from repro.runtime import ExecutionPolicy
from repro.vm.jit import jit_cache_for

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: benchmark name -> golden file.  One scan-free single-deep program
#: (Pathfinder: map/scan rows over a host loop) and one 2-D stencil
#: whose map nest runs as one flat ``r*c`` batch (HotSpot: the inner
#: index array is tiled, the outer index repeated) — together they pin
#: uniform and batched arithmetic, loops, checked indexing,
#: reductions and the divergent if merge.
CASES = {
    "HotSpot": "hotspot.py.golden",
    "Pathfinder": "pathfinder.py.golden",
}


def render_sources(host) -> str:
    """Every source generated for ``host`` — each kernel's, then the
    host function's — one text in a stable order (what the golden files
    hold and the digests hash)."""
    cache = jit_cache_for(host)
    sources = cache.sources()
    parts = []
    for kname in sorted(sources):
        for sig_key in sorted(sources[kname]):
            src = sources[kname][sig_key]
            parts.append(f"# ===== {kname} {sig_key} =====")
            parts.append(src if src is not None else "# <unsupported>\n")
    parts.append("# ===== host =====")
    parts.append(cache.host_source() or "# <not generated>\n")
    return "\n".join(parts)


def _generated_sources(name: str) -> str:
    # Golden output must not depend on how many compiles ran earlier
    # in the process.
    name_source.reset()
    spec = BENCHMARKS[name]
    compiled = compile_program(spec.program())
    args = spec.small_args(np.random.default_rng(0))
    compiled.execute(args, policy=ExecutionPolicy(executor="jit"))
    return render_sources(compiled.host)


@pytest.mark.parametrize("name", sorted(CASES))
def test_generated_python_matches_golden(name):
    got = _generated_sources(name)
    path = GOLDEN_DIR / CASES[name]
    if os.environ.get("GOLDEN_UPDATE"):
        path.write_text(got)
    want = path.read_text()
    assert got == want, (
        f"{name}: generated Python drifted from {path.name} "
        f"(set GOLDEN_UPDATE=1 to re-pin after an intentional change)"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_generation_is_reproducible(name):
    assert _generated_sources(name) == _generated_sources(name)
