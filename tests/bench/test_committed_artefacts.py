"""The committed ``BENCH_*.json`` files are what the tree regenerates.

``BENCH_mem.json``, ``BENCH_calib.json`` and ``BENCH_shard.json`` are
deterministic functions of the source (:mod:`repro.bench.pinned`), so
each case here runs the suite behind ``python -m repro bench <what>``
and compares every field with the committed file: integers, strings
and structure exactly, floats to the bound ``BENCHMARK.json`` gives the
simulated metrics (libm's ``pow`` may differ in the last bit between
platforms; nothing else may).  A change that moves a number fails here
until the artefact is regenerated and the diff committed; under a
gate that only asked ``planned <= naive``, ``BENCH_mem.json`` carried
two wrong counts from before PR 11 until PR 18.

The acceptance thresholds CI used to apply from inline scripts live
here too (:data:`GATES`).  Backprop's shard row builds a 64 MB weight
matrix and takes 9 s, so tier-1 regenerates the other three rows and
``benchmarks/test_bench_artefacts.py`` all four.
"""

import json
import math
from pathlib import Path

import pytest

from repro.bench.pinned import PINNED

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


def _gate_mem(bench):
    for name, row in bench["benchmarks"].items():
        assert row["planned_peak_bytes"] <= row["naive_peak_bytes"], (
            f"{name}: planned peak above naive"
        )
    assert bench["improved_count"] >= 8, (
        f"planned peak strictly below naive on only "
        f"{bench['improved_count']}/16 benchmarks (need >= 8)"
    )


def _gate_calibrate(bench):
    for name, row in bench["benchmarks"].items():
        assert row["kernels"], f"{name}: no kernels measured"
        for kname, k in row["kernels"].items():
            assert k["rel_error"] is not None, (name, kname)


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


GATES = {"mem": _gate_mem, "calibrate": _gate_calibrate, "shard": _gate_shard}


def assert_regenerates(what, names=None, aggregates=()):
    """``python -m repro bench <what>`` would rewrite the committed
    file with what it already holds, and that passes ``what``'s gate.

    ``names`` regenerates only those rows; ``aggregates`` then names
    the top-level fields computed over *all* rows, which a subset
    cannot reproduce."""
    entry = PINNED[what]
    committed = json.loads((ROOT / entry.out).read_text())
    # Through JSON, as the file went: tuples become lists.
    fresh = json.loads(json.dumps(entry.suite(names=names)))
    expected = committed
    if names is not None:
        expected = {k: v for k, v in committed.items() if k not in aggregates}
        expected["benchmarks"] = {
            n: committed["benchmarks"][n] for n in names
        }
        fresh = {k: v for k, v in fresh.items() if k not in aggregates}
    diffs = list(differences(fresh, expected))
    assert not diffs, (
        f"{entry.out} is not what this tree generates; run "
        f"`python -m repro bench {what}` and commit the diff:\n  "
        + "\n  ".join(diffs)
    )
    GATES[what](committed)


@pytest.mark.parametrize(
    "what, names, aggregates",
    [
        ("mem", None, ()),
        ("calibrate", None, ()),
        (
            "shard",
            ["MRI-Q", "Myocyte", "LocVolCalib"],
            ("geomean_speedup_4x",),
        ),
    ],
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
