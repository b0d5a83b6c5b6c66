"""The committed artefacts are what the tree regenerates.

``BENCH_mem.json``, ``BENCH_shard.json`` and the paper's evaluation
under ``benchmarks/results/`` are deterministic functions of the
source (:data:`repro.bench.pinned.PINNED`), so each
case here runs the suite behind ``python -m repro bench <what>`` and
compares it with the committed file.  A ``.json`` field by field:
integers, strings and structure exactly, floats to the bound
``BENCHMARK.json`` gives the simulated metrics (libm's ``pow`` may
differ in the last bit between platforms; nothing else may).  A
``.txt`` line by line with what the row's renderer prints.  A change
that moves a number fails here until the artefact is regenerated and
the diff committed; under a gate that only asked ``planned <= naive``,
``BENCH_mem.json`` carried two wrong counts from before PR 11 until
PR 18, and ``EXPERIMENTS.md`` two hand-copied factors the tree had
stopped generating until PR 19 made it embed the committed files.

The acceptance thresholds live here too (:data:`GATES`): what CI used
to apply from inline scripts and, for the paper's rows, the
reproduction criteria.  Backprop's shard row builds a 64 MB weight
matrix and takes 9 s, so tier-1 regenerates the other three rows and
``benchmarks/test_bench_artefacts.py`` all four.
"""

import json
import math
import re
from pathlib import Path

import pytest

from repro.bench.datasets import TABLE2
from repro.bench.figures import AMD, NV, geomean
from repro.bench.paper_numbers import TABLE1, paper_speedups
from repro.bench.pinned import PINNED
from repro.bench.runner import Row

ROOT = Path(__file__).resolve().parents[2]

#: The relative bound on a deterministic simulated metric.
FLOAT_BOUND = next(
    m["bound"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if m["name"] == "sim_us_geomean"
)


def differences(fresh, committed, path=""):
    """Every field where the regenerated payload and the committed one
    disagree, as ``path: regenerated X, committed Y`` lines."""
    if isinstance(fresh, dict) and isinstance(committed, dict):
        for key in dict.fromkeys([*committed, *fresh]):
            where = f"{path}.{key}" if path else key
            if key not in fresh:
                yield f"{where}: committed, but no longer generated"
            elif key not in committed:
                yield f"{where}: generated, but not committed"
            else:
                yield from differences(fresh[key], committed[key], where)
    elif isinstance(fresh, list) and isinstance(committed, list):
        if len(fresh) != len(committed):
            yield (
                f"{path}: regenerated {len(fresh)} entries, "
                f"committed {len(committed)}"
            )
        for i, (f, c) in enumerate(zip(fresh, committed)):
            yield from differences(f, c, f"{path}[{i}]")
    elif isinstance(fresh, float) and isinstance(committed, float):
        if not math.isclose(fresh, committed, rel_tol=FLOAT_BOUND):
            yield f"{path}: regenerated {fresh!r}, committed {committed!r}"
    elif type(fresh) is not type(committed) or fresh != committed:
        yield f"{path}: regenerated {fresh!r}, committed {committed!r}"


def line_differences(expected, found, path, first=1):
    """Every line of ``found`` (the text at ``path``, from its line
    ``first``) that is not the ``expected`` one, as ``path:line: X
    should be Y``."""
    if len(expected) != len(found):
        yield f"{path}: {len(found)} lines should be {len(expected)}"
    for number, (e, f) in enumerate(zip(expected, found), start=first):
        if e != f:
            yield f"{path}:{number}: {f!r} should be {e!r}"


def _gate_mem(bench):
    for name, row in bench["benchmarks"].items():
        assert row["planned_peak_bytes"] <= row["naive_peak_bytes"], (
            f"{name}: planned peak above naive"
        )
    assert bench["improved_count"] >= 8, (
        f"planned peak strictly below naive on only "
        f"{bench['improved_count']}/16 benchmarks (need >= 8)"
    )


def _gate_shard(bench):
    for name, row in bench["benchmarks"].items():
        for count in bench["device_counts"]:
            dev = row["devices"][str(count)]
            if count == 1:
                assert dev["mode"] == "whole", (name, count, dev["mode"])
            else:
                assert dev["mode"] == "sharded", (name, count, dev["mode"])
                # The placer may use fewer devices than the pool has.
                assert 2 <= dev["shards"] <= count, (
                    name, count, dev["shards"],
                )
        assert row["speedup_4x"] > 1.0, (
            f"{name}: no scaling at 4 devices ({row['speedup_4x']:.2f}x)"
        )
    assert bench["geomean_speedup_4x"] >= 2.0, (
        f"geomean 4-device speedup {bench['geomean_speedup_4x']:.2f}x < 2x"
    )


def _gate_table1(rows):
    # Who wins matches the paper everywhere, and the overall picture
    # is within a factor 2.
    for row in rows:
        ours, paper = row.speedup(NV), paper_speedups(row.name)[0]
        assert (ours > 1) == (paper > 1), (
            f"{row.name}: NVIDIA speedup {ours:.2f}, the paper's "
            f"{paper:.2f} is on the other side of 1"
        )
    assert len(rows) == 16
    ratio = geomean(r.speedup(NV) for r in rows) / geomean(
        paper_speedups(r.name)[0] for r in rows
    )
    assert 0.5 < ratio < 2.0, f"geomean speedup {ratio:.2f}x the paper's"


def _gate_figure13(rows):
    nv = {row.name: row.speedup(NV) for row in rows}
    amd = {row.name: row.speedup(AMD) for row in rows}
    # The headline shapes: NN the largest speedup and above x10, the
    # four the paper counts as slower on NVIDIA below 1.
    assert max(nv, key=nv.get) == "NN"
    assert nv["NN"] > 10
    for slower in ("CFD", "HotSpot", "LavaMD", "LocVolCalib"):
        assert nv[slower] < 1.0, slower
    # NN's speedup is "less impressive on the AMD GPU" (§6.1).
    assert amd["NN"] < nv["NN"] / 1.5
    # The paper's geometric means over its hand-written references:
    # 1.81x where Futhark wins, 0.79x on the 4 it loses; the same
    # split has the same shape.
    assert geomean(v for v in nv.values() if v > 1) > 1.5
    assert 0.5 < geomean(v for v in nv.values() if v <= 1) <= 1.0


def _gate_table2(datasets):
    # The paper's configurations (that every one's validation-scale
    # inputs build: ``test_suite.py::test_small_args_match_signature``).
    assert datasets == TABLE2
    assert TABLE2["Backprop"].full["n"] == 1 << 20
    assert TABLE2["HotSpot"].full == {"r": 1024, "c": 1024, "iters": 360}
    assert TABLE2["SRAD"].full["r"] == 502 and TABLE2["SRAD"].full["c"] == 458
    assert TABLE2["Mandelbrot"].full == {"w": 4000, "h": 4000, "limit": 255}
    assert TABLE2["N-body"].full["n"] == 100_000
    assert TABLE2["NN"].full["n"] == 855_280


INF = float("inf")
#: The (exclusive) bounds each §6.1.1 factor must stay within.  Fusion
#: never hurts, and visibly helps the two benchmarks with fusable
#: top-level structure (EXPERIMENTS.md records the deviations from the
#: paper's larger factors); Myocyte is the most layout-bound.  (That
#: OptionPricing has no variant without in-place updates, the paper's
#: inexpressibility claim: ``test_suite.py::test_inplace_variants``.)
IMPACT_BOUNDS = {
    "fusion": {
        "K-means": (1.03, INF), "Crystal": (1.05, INF),
        "SRAD": (0.99, INF), "LavaMD": (0.99, INF),
        "Myocyte": (0.99, INF), "LocVolCalib": (0.99, INF),
    },
    "coalescing": {
        "K-means": (2.0, INF), "Myocyte": (4.0, INF),
        "OptionPricing": (2.0, INF), "LocVolCalib": (2.0, INF),
    },
    "tiling": {"LavaMD": (1.1, 4.0), "MRI-Q": (1.1, 4.0), "N-body": (1.1, 4.0)},
    "inplace": {"K-means": (4.0, INF), "LocVolCalib": (1.15, INF)},
}


def _gate_impact(payload):
    for name, (low, high) in IMPACT_BOUNDS[payload["kind"]].items():
        assert low < payload["factors"][name] < high, name


GATES = {
    "table1": _gate_table1,
    "figure13": _gate_figure13,
    "table2": _gate_table2,
    "impact": _gate_impact,
    "mem": _gate_mem,
    "shard": _gate_shard,
}


def assert_committed(out, diffs, remedy):
    diffs = list(diffs)
    assert not diffs, (
        f"{out} is not what this tree generates; {remedy} and commit "
        "the diff:\n  " + "\n  ".join(diffs)
    )


def assert_regenerates(what, names=None, aggregates=()):
    """``python -m repro bench <what>`` would rewrite each of its
    committed files with what it already holds, and that passes
    ``what``'s gate.

    ``names`` regenerates only those rows of a ``.json``;
    ``aggregates`` then names the top-level fields computed over *all*
    rows, which a subset cannot reproduce."""
    entry = PINNED[what]
    for flags in entry.variants:
        out = entry.out.format(**flags)
        text = (ROOT / out).read_text()
        fresh = gated = entry.suite(names=names, **flags)
        if out.endswith(".json"):
            gated = expected = json.loads(text)
            # Through JSON, as the file went: tuples become lists.
            fresh = json.loads(json.dumps(fresh))
            if names is not None:
                expected = {
                    k: v for k, v in gated.items() if k not in aggregates
                }
                expected["benchmarks"] = {
                    n: gated["benchmarks"][n] for n in names
                }
                fresh = {k: v for k, v in fresh.items() if k not in aggregates}
            diffs = differences(fresh, expected)
        else:
            diffs = line_differences(
                entry.dump(fresh).splitlines(), text.splitlines(), out
            )
        command = " ".join(
            [what, *(f"--{flag} {value}" for flag, value in flags.items())]
        )
        assert_committed(out, diffs, f"run `python -m repro bench {command}`")
        GATES[what](gated)


#: What tier-1 leaves to ``benchmarks/test_bench_artefacts.py``:
#: Backprop's shard row, and with it the aggregate over all four.
TIER1_SUBSET = {
    "shard": (["MRI-Q", "Myocyte", "LocVolCalib"], ("geomean_speedup_4x",)),
}


@pytest.mark.parametrize(
    "what, names, aggregates",
    [(what, *TIER1_SUBSET.get(what, (None, ()))) for what in PINNED],
)
def test_committed_file_is_what_the_tree_regenerates(
    what, names, aggregates
):
    assert_regenerates(what, names, aggregates)


def test_a_rotted_field_is_named():
    """The comparison is not vacuous: one stale count (as
    ``BENCH_mem.json`` carried two, from before the manifest-source
    liveness fix) is found and named, and a float within the bound is
    not."""
    current = json.loads((ROOT / PINNED["mem"].out).read_text())
    stale = json.loads(json.dumps(current))
    row = stale["benchmarks"]["LocVolCalib"]
    count = row["planned_alloc_count"]
    row["planned_alloc_count"] = count - 128
    row["peak_ratio"] *= 1.0 + FLOAT_BOUND / 2
    assert list(differences(current, stale)) == [
        "benchmarks.LocVolCalib.planned_alloc_count: "
        f"regenerated {count}, committed {count - 128}"
    ]


def test_a_rotted_line_is_named():
    """The same for a ``.txt``: one stale line (as ``EXPERIMENTS.md``
    carried K-means fusion-off x1.04 where the tree generates x1.12)
    is named with its line number."""
    out = PINNED["impact"].out.format(kind="fusion")
    current = (ROOT / out).read_text().splitlines()
    stale = list(current)
    stale[1] = stale[1].replace("x", "x 0", 1)
    assert stale != current
    assert list(line_differences(current, stale, out)) == [
        f"{out}:2: {stale[1]!r} should be {current[1]!r}"
    ]


def test_a_flipped_winner_fails_the_table1_gate_by_name():
    """The paper's own Table 1 passes its gate; with CFD pushed to a
    win on NVIDIA it fails, naming CFD."""
    rows = [
        Row(name, {NV: nv_ref}, {NV: nv_fut})
        for name, (nv_ref, nv_fut, _, _) in TABLE1.items()
    ]
    _gate_table1(rows)
    cfd = next(row for row in rows if row.name == "CFD")
    cfd.fut_ms[NV] = cfd.ref_ms[NV] / 1.05
    with pytest.raises(AssertionError, match="CFD: NVIDIA speedup 1.05"):
        _gate_table1(rows)


def test_experiments_md_embeds_the_committed_files():
    """No hand-copied number: every table ``EXPERIMENTS.md`` shows is a
    committed ``benchmarks/results`` file, verbatim, in a fenced block
    under an ``<!-- results/<file> -->`` marker — and every such file
    is shown."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    results = ROOT / "benchmarks" / "results"
    embedded, diffs = set(), []
    for block in re.finditer(
        r"<!-- results/(\S+) -->\n```\n(.*?)\n```\n", text, re.DOTALL
    ):
        embedded.add(block[1])
        diffs += line_differences(
            (results / block[1]).read_text().splitlines(),
            block[2].splitlines(),
            "EXPERIMENTS.md",
            first=text.count("\n", 0, block.start(2)) + 1,
        )
    assert_committed(
        "EXPERIMENTS.md", diffs, "paste the files under benchmarks/results"
    )
    assert embedded == {path.name for path in results.iterdir()}
