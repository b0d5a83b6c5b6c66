"""Plain-text rendering of the paper's evaluation artefacts, ours
beside the paper's: the lines ``python -m repro bench <what>`` prints
and ``benchmarks/results/<what>.txt`` holds
(:data:`repro.bench.pinned.PINNED`).

Figure 13 is a per-benchmark bar chart of the speedup over the
reference on both GPUs; :func:`render_speedup_chart` renders the same
data as horizontal ASCII bars (log-scaled, since speedups span
0.6x – 16x).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Mapping, Optional

from ..gpu.device import AMD_W8100, NVIDIA_GTX780TI
from .paper_numbers import IMPACT, paper_speedups

__all__ = [
    "geomean",
    "render_table1",
    "render_figure13",
    "render_table2",
    "render_impact",
    "render_speedup_chart",
]

NV = NVIDIA_GTX780TI.name
AMD = AMD_W8100.name


def geomean(xs) -> float:
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def render_table1(rows) -> Iterator[str]:
    """Table 1 (:func:`repro.bench.runner.table1_runtimes` rows): our
    runtimes and speedups on both device profiles, the paper's
    speedups beside them."""
    yield (
        "Table 1: runtimes in ms (measured on the simulated devices "
        "vs the paper's hardware)"
    )
    yield (
        f"{'benchmark':14s} {'NV ref':>10s} {'NV fut':>10s} "
        f"{'speedup':>8s} {'paper':>7s}   {'AMD ref':>10s} "
        f"{'AMD fut':>10s} {'speedup':>8s} {'paper':>7s}"
    )
    for row in rows:
        paper_nv, paper_amd = paper_speedups(row.name)
        yield (
            f"{row.name:14s} {row.ref_ms[NV]:10.1f} "
            f"{row.fut_ms[NV]:10.1f} {row.speedup(NV):8.2f} "
            f"{paper_nv:7.2f}   "
            f"{row.ref_ms[AMD]:10.1f} {row.fut_ms[AMD]:10.1f} "
            f"{row.speedup(AMD):8.2f} {paper_amd:7.2f}"
        )
    yield (
        f"{'geomean':14s} {'':10s} {'':10s} "
        f"{geomean(r.speedup(NV) for r in rows):8.2f} "
        f"{geomean(paper_speedups(r.name)[0] for r in rows):7.2f}"
    )


def render_figure13(rows) -> List[str]:
    """Fig. 13: Table 1's speedups as bars, the paper's NVIDIA ones as
    the side column."""
    speedups = {
        row.name: {device: row.speedup(device) for device in (NV, AMD)}
        for row in rows
    }
    paper_nv = {row.name: paper_speedups(row.name)[0] for row in rows}
    return render_speedup_chart(speedups, paper=paper_nv).splitlines()


def render_table2(datasets) -> Iterator[str]:
    yield "Table 2: benchmark dataset configurations"
    for name, ds in datasets.items():
        yield f"{name:14s} {ds.description:45s} full={ds.full}"


_IMPACT_TITLES = {
    "fusion": "Impact of fusion (slowdown when disabled, NVIDIA profile)",
    "coalescing": "Impact of memory coalescing (slowdown when disabled, "
    "NVIDIA profile)",
    "tiling": "Impact of block tiling (slowdown when disabled, NVIDIA)",
    "inplace": "Impact of in-place updates "
    "(slowdown of the no-in-place variants, NVIDIA profile)",
}


def render_impact(payload: Dict) -> Iterator[str]:
    """One §6.1.1 ablation (a :func:`repro.bench.runner.run_impact`
    payload)."""
    kind = payload["kind"]
    yield _IMPACT_TITLES[kind]
    for name, factor in payload["factors"].items():
        paper = IMPACT[kind].get(name)
        yield f"{name:14s} x{factor:5.2f}" + (
            f"  (paper x{paper})" if paper is not None else ""
        )
    if kind == "inplace":
        yield (
            "OptionPricing: no variant exists — the Brownian bridge is "
            "inexpressible without in-place updates (as the paper states)."
        )


_BAR_WIDTH = 40


def _bar(speedup: float, max_speedup: float) -> str:
    """A log-scale bar; the '|' marks speedup 1.0 (parity)."""
    if speedup <= 0:
        return "?"
    log_max = math.log10(max_speedup)
    log_min = math.log10(0.5)
    span = log_max - log_min
    pos = (math.log10(max(speedup, 0.5)) - log_min) / span
    parity = (0.0 - log_min) / span
    n = max(1, round(pos * _BAR_WIDTH))
    p = round(parity * _BAR_WIDTH)
    cells = ["#" if i < n else " " for i in range(_BAR_WIDTH)]
    if 0 <= p < _BAR_WIDTH:
        cells[p] = "|" if p >= n else "+"
    return "".join(cells)


def render_speedup_chart(
    speedups: Mapping[str, Mapping[str, float]],
    paper: Optional[Mapping[str, float]] = None,
) -> str:
    """Render Fig. 13 as text.

    ``speedups`` maps benchmark name to {device name: speedup};
    ``paper`` optionally supplies the paper's (NVIDIA) numbers for a
    side-by-side column.
    """
    devices = list(next(iter(speedups.values())))
    max_speedup = max(
        max(per.values()) for per in speedups.values()
    )
    max_speedup = max(max_speedup, 2.0)

    lines = [
        "Figure 13: speedup over the reference implementation "
        "(log scale; '|' marks parity)",
        "",
    ]
    for name, per_device in speedups.items():
        for j, device in enumerate(devices):
            label = name if j == 0 else ""
            s = per_device[device]
            tag = device.split()[0][:6]
            suffix = ""
            if paper is not None and j == 0 and name in paper:
                suffix = f"   (paper NV: {paper[name]:5.2f}x)"
            lines.append(
                f"{label:14s} {tag:6s} {_bar(s, max_speedup)} "
                f"{s:6.2f}x{suffix}"
            )
        lines.append("")
    return "\n".join(lines)
