"""The numbers the paper reports, printed beside ours by every renderer
in :mod:`repro.bench.figures` and compared against by the reproduction
gates in ``tests/bench/test_committed_artefacts.py``.

Table 1 entries are (NV ref, NV futhark, AMD ref, AMD futhark) in ms;
``None`` marks entries the paper leaves blank (no OpenCL reference on
the AMD card, or CUDA-only benchmarks).
"""

TABLE1 = {
    "Backprop": (46.9, 20.7, 41.5, 12.9),
    "CFD": (1878.2, 2235.9, 3610.0, 4177.5),
    "HotSpot": (35.9, 45.3, 260.4, 72.6),
    "K-means": (1597.7, 572.2, 1216.1, 1534.9),
    "LavaMD": (5.1, 6.7, 9.0, 7.1),
    "Myocyte": (2733.6, 555.4, None, 2979.8),
    "NN": (178.9, 11.0, 193.2, 37.6),
    "Pathfinder": (18.4, 7.4, 18.2, 6.5),
    "SRAD": (19.9, 16.1, 195.1, 34.8),
    "LocVolCalib": (1211.1, 1293.2, 3117.0, 5015.8),
    "OptionPricing": (136.0, 106.8, 429.5, 360.8),
    "MRI-Q": (20.2, 15.5, 17.9, 14.3),
    "Crystal": (41.0, 8.4, None, 8.4),
    "Fluid": (268.7, 100.4, None, 221.8),
    "Mandelbrot": (30.8, 8.1, None, 14.8),
    "N-body": (613.2, 89.5, None, 269.8),
}

#: §6.1.1 optimisation-impact factors (NVIDIA GPU).  Each kind's keys,
#: in this order, are the benchmarks ``repro bench impact --kind``
#: ablates when no ``--names`` are given.
IMPACT = {
    "fusion": {
        "K-means": 1.42,
        "SRAD": 1.21,
        "Crystal": 10.1,
        "LavaMD": 4.55,
        "Myocyte": 1.66,
        "LocVolCalib": 9.4,
    },
    "coalescing": {
        "K-means": 9.26,
        "Myocyte": 4.2,
        "OptionPricing": 8.79,
        "LocVolCalib": 8.4,
    },
    "tiling": {"LavaMD": 1.35, "MRI-Q": 1.33, "N-body": 2.29},
    "inplace": {"K-means": 8.3, "LocVolCalib": 1.7},
}


def paper_speedups(name: str):
    """The paper's (NVIDIA, AMD) speedups of Futhark over the
    reference; NaN where Table 1 has no AMD reference."""
    nv_ref, nv_fut, amd_ref, amd_fut = TABLE1[name]
    return nv_ref / nv_fut, (amd_ref / amd_fut) if amd_ref else float("nan")
