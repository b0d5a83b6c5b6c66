"""The paper's worked examples — Figs. 4, 10 and 11 — with the
assertions the paper makes about them, and their numbers pinned.

The programs are ``tests/helpers.py``'s, not suite benchmarks, so they
are not ``repro bench`` rows; each test builds the lines of its
committed ``benchmarks/results/fig*.txt`` and compares them the way
``test_committed_artefacts.py`` compares a ``.txt`` row.  All of it is
interpreter counters and simulated time: no clock.
"""

import numpy as np

from repro.core import array_value, to_python
from repro.core.prim import I32
from repro.flatten import flatten_prog, perfect_nests
from repro.interp import Interpreter, run_program
from repro.pipeline import CompilerOptions, compile_program
from repro.simplify import simplify_prog

from tests.bench.test_committed_artefacts import (
    ROOT,
    assert_committed,
    line_differences,
)
from tests.fusion.test_stream_rules import fig10_b_and_c
from tests.helpers import (
    fig10_program,
    fig11_program,
    kmeans_counts_parallel,
    kmeans_counts_sequential,
    kmeans_counts_stream,
)


def assert_figure(name, lines):
    out = f"benchmarks/results/{name}"
    committed = (ROOT / out).read_text().splitlines()
    assert_committed(
        out, line_differences(lines, committed, out), "edit it to match"
    )


# -- Fig. 4: cluster counting as (a) a sequential loop with an in-place
# update, O(n) work; (b) a map/reduce over one-hot vectors, O(n*k) work;
# (c) the ``stream_red`` that is both parallel and work-efficient.

K = 16
N = 4000


def _work(mk, data):
    interp = Interpreter(mk(K), in_place=True)
    interp.run("main", [data])
    return interp.metrics.work


def test_fig4_work_complexity():
    rng = np.random.default_rng(0)
    data = array_value(rng.integers(0, K, N).astype(np.int32), I32)

    w_seq = _work(kmeans_counts_sequential, data)
    w_par = _work(kmeans_counts_parallel, data)
    w_stream = _work(kmeans_counts_stream, data)

    assert_figure("fig4_work.txt", [
        f"Fig. 4 cluster counting, n={N}, k={K} "
        f"(abstract work from the interpreter)",
        f"(a) sequential loop, in-place: {w_seq:>10d}",
        f"(b) map/reduce one-hot:        {w_par:>10d}",
        f"(c) stream_red:                {w_stream:>10d}",
        f"(b)/(a) = {w_par / w_seq:.1f}  — the O(n*k) overhead",
        f"(c)/(a) = {w_stream / w_seq:.2f} — work-efficient",
    ])

    # (b) does ~k times the work of (a); (c) stays within a small
    # constant of (a).
    assert w_par > w_seq * (K / 3)
    assert w_stream < w_seq * 3


def test_fig4_simulated_gpu_time():
    rng = np.random.default_rng(1)
    data = array_value(rng.integers(0, K, 512).astype(np.int32), I32)

    times = {}
    for label, mk in (
        ("sequential", kmeans_counts_sequential),
        ("one-hot", kmeans_counts_parallel),
        ("stream_red", kmeans_counts_stream),
    ):
        _, report = compile_program(mk(K)).run([data])
        times[label] = report.total_us

    assert_figure("fig4_gpu.txt", [
        "Fig. 4 variants, simulated GPU time (us) at n=512",
        *(f"{label:12s} {us:10.1f}" for label, us in times.items()),
    ])

    # The sequential formulation cannot use the device at all (it is
    # one long dependent chain executed on the host path), and the
    # one-hot version moves k times the data of the stream_red.
    assert times["stream_red"] <= times["one-hot"] * 1.1


# -- Fig. 10: (a) → (b), outer fusion merges the ``stream_map`` into the
# ``reduce``, leaving one ``stream_red``; (b) → (c), F2/F4/F5/F7 collapse
# the fold's map-scan-reduce chain into one ``stream_seq``, so the
# per-thread footprint is O(1) at chunk size one.


def test_fig10_stream_fusion():
    prog_b, prog_c = fig10_b_and_c()  # asserts a -> b is one outer fusion

    n = 96
    xs = array_value(np.arange(n, dtype=np.int32), I32)
    expected = run_program(fig10_program(), [xs])

    # Footprint: per-chunk array traffic at outer chunk = n, inner
    # chunk = 1 (efficient sequentialisation).
    results = {}
    for label, prog in (("fig10b", prog_b), ("fig10c", prog_c)):
        interp = Interpreter(
            prog,
            chunk_policy=lambda k: [k] if k == n else [1] * k,
        )
        out = interp.run("main", [xs])
        assert to_python(out[0]) == to_python(expected[0])
        results[label] = interp.metrics.array_elems_touched

    assert_figure("fig10.txt", [
        f"Fig. 10 stream fusion, n={n}: array elements touched",
        f"(b) after outer fusion:        {results['fig10b']}",
        f"(c) after stream_seq fusion:   {results['fig10c']}",
    ])

    # The (c) form must not blow up traffic despite running element
    # at a time — the paper's O(1)-footprint claim.
    assert results["fig10c"] <= results["fig10b"] * 6


# -- Fig. 11: the flattener extracts exactly the paper's four perfect
# nests — a map-map (the sequentialised irregular scan/reduce inside), a
# map-map-map and, inside the interchanged loop, a map-map-reduce
# (segmented reduction) plus a map-map — and the interchange pays.


def test_fig11_flattening():
    # That these are the paper's nests under a top-level loop, and the
    # semantics unchanged: ``tests/flatten/test_flatten.py::TestFig11``.
    flat = simplify_prog(flatten_prog(fig11_program()))
    kinds = sorted(
        (i.depth, i.inner) for _, i in perfect_nests(flat.fun("main").body)
    )

    # Interchange pays: compare simulated cost with G7 on and off.
    sizes = {"m": 512, "n": 32}
    with_g7 = compile_program(fig11_program()).estimate(sizes)
    without_g7 = compile_program(
        fig11_program(), CompilerOptions(interchange=False)
    ).estimate(sizes)
    assert_figure("fig11.txt", [
        "Fig. 11: extracted perfect nests (depth, innermost op)",
        *(f"  {k}" for k in kinds),
        f"simulated time at m=512, n=32: with G7 "
        f"{with_g7.total_ms:.2f} ms, without {without_g7.total_ms:.2f} ms",
    ])
    assert without_g7.total_ms > with_g7.total_ms * 2
