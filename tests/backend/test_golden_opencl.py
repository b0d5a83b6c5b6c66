"""Golden-file tests for the pseudo-OpenCL renderer.

The exact text of ``render_program`` on two benchmarks is pinned under
``tests/backend/golden/``: any change to kernel naming, lowering
structure or the host-driver rendering shows up as a readable diff
against the golden file instead of a silent drift.

The compiler's fresh-name counter is process-wide, so each golden
compile resets it first — the pinned text is what a fresh process
produces.  To regenerate after an intentional change::

    GOLDEN_UPDATE=1 PYTHONPATH=src \
        python -m pytest tests/backend/test_golden_opencl.py
"""

import os
import pathlib

import pytest

from repro.backend.opencl_text import render_program
from repro.bench.suite import BENCHMARKS
from repro.core.traversal import name_source
from repro.pipeline import compile_program

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: benchmark name -> golden file.  One single-kernel scan-free program
#: (Pathfinder), one with a sequentialised inner map (HotSpot), and one
#: allocation-heavy multi-kernel program (LocVolCalib) that pins the
#: memory plan: alloc/free statements, block reuse and copy elision.
CASES = {
    "HotSpot": "hotspot.cl",
    "LocVolCalib": "locvolcalib.cl",
    "Pathfinder": "pathfinder.cl",
}


def _render_fresh(name: str) -> str:
    # Golden output must not depend on how many compiles ran earlier
    # in the process.
    name_source.reset()
    compiled = compile_program(BENCHMARKS[name].program())
    return render_program(compiled.host)


@pytest.mark.parametrize("name", sorted(CASES))
def test_opencl_rendering_matches_golden(name):
    got = _render_fresh(name)
    path = GOLDEN_DIR / CASES[name]
    if os.environ.get("GOLDEN_UPDATE"):
        path.write_text(got)
    want = path.read_text()
    assert got == want, (
        f"{name}: rendered OpenCL drifted from {path.name} "
        f"(set GOLDEN_UPDATE=1 to re-pin after an intentional change)"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_render_is_reproducible(name):
    assert _render_fresh(name) == _render_fresh(name)
