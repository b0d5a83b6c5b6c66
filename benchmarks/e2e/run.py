#!/usr/bin/env python3
"""The ``e2e`` benchmark: what a caller sees — compile, run and serve.

    python benchmarks/e2e/run.py --workload run_small --seed 0
    python benchmarks/e2e/run.py --workload serve_seq --seed 0 --trace
    python benchmarks/e2e/run.py --all --seed 0 --out benchmarks/e2e/out/mine

One process drives the public API of ``repro.pipeline``, ``repro.runtime``,
``repro.vm``, ``repro.serve`` and ``repro.sched``, checks every
operation's output against the reference interpreter run on the
uncompiled program, prints every metric by name with its unit, and ends
with one JSON line (``correct``, ``attempted``, ``failed``, ``metrics``).
An untraced run reports the end-to-end metrics of ``BENCHMARK.json``; a
traced run (``--trace``) the per-layer ones, and writes a Chrome trace
of the harness's own spans under ``benchmarks/e2e/out/``.  See README.md.
"""

import time

_ENTRY = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from measure import (  # noqa: E402
    HostSpeed, Phase, Spans, geomean, geomean_of_medians, percentile,
    quartiles,
)
from results import append_run, load_spec  # noqa: E402


def import_system():
    """Put ``src/`` on the path and import the system under test.  The
    benchmark measures this checkout's sources, never an installed copy,
    so a checkout without them is an error."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"e2e: no system under test at {src}/repro")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="one workload of BENCHMARK.json")
    which.add_argument("--all", action="store_true",
                       help="every workload, each in its own process")
    ap.add_argument("--seed", type=int, default=0,
                    help="inputs and program order derive from this")
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the measured phase "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--rounds", type=int, default=None,
                    help="measure exactly this many rounds, not --seconds")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="per-layer run: spans, probes, Chrome trace")
    ap.add_argument("--out", type=Path, default=None,
                    help="result file to append this run to "
                         "(a directory with --all)")
    return ap.parse_args(argv)


# -- one run ------------------------------------------------------------------


def set_up(cls, seed: int, speed: HostSpeed):
    """The live workload, warm-up rounds done, and the wall time its
    oracle took (kept out of ``setup_s``)."""
    from workloads import run_oracle

    wl = cls(seed, speed)
    wl.set_up()
    return wl, run_oracle(wl.cases, speed)


def per_program_rows(phase: Phase):
    rows = []
    for name, samples in sorted(phase.samples().items()):
        q1, med, q3 = quartiles(samples)
        rows.append({
            "program": name, "median_ms": med * 1e3, "q1_ms": q1 * 1e3,
            "q3_ms": q3 * 1e3, "n": len(samples),
        })
    return rows


def end_to_end(wl, phase: Phase, setup_s: float):
    from workloads import DEVICE

    costs = [c.compiled.estimate(c.full, DEVICE) for c in wl.cases]
    return {
        "op_ms_geomean": geomean_of_medians(phase.samples()) * 1e3,
        "ops_per_s": statistics.median(phase.rates()),
        "setup_s": setup_s,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        "sim_us_geomean": geomean(c.total_us for c in costs),
        "sim_peak_mb_geomean": geomean(c.mem_peak_mb for c in costs),
    }


def run_untraced(cls, args, speed: HostSpeed):
    wl, oracle_s = set_up(cls, args.seed, speed)
    try:
        phase = wl.measure(args.seconds, args.rounds)
        config = wl.config()
    finally:
        wl.tear_down()
    # Entry of this process to the first measured operation, without the
    # oracle: imports, program construction, input generation, compiles,
    # whatever the workload prepares, warm-up rounds.
    setup_s = (
        (phase.started - _ENTRY - oracle_s)
        / speed.during(_ENTRY, phase.started)
    )
    metrics = end_to_end(wl, phase, setup_s)
    pooled = [s for v in phase.samples().values() for s in v]
    detail = {
        "oracle_s": oracle_s,
        "rounds": len(phase.rounds),
        "host_factor": dict(zip(
            ("q1", "median", "q3"), quartiles(phase.host_factors()),
        )),
        "failed_share": len(phase.failures) / phase.attempted,
        "op_ms_p95": {
            "value": percentile(pooled, 95.0) * 1e3, "n": len(pooled),
        },
        "per_program": per_program_rows(phase),
        "config": config,
    }
    return metrics, phase.attempted, phase.failures, detail


def op_ms_geomean(phases) -> float:
    """One ``op_ms_geomean`` over the operations of several phases."""
    samples = collections.defaultdict(list)
    for phase in phases:
        for name, seconds in phase.samples().items():
            samples[name] += seconds
    return geomean_of_medians(samples) * 1e3


def run_traced(cls, args, speed: HostSpeed):
    """A quarter of an untraced run's time goes to the workload's own
    operations, alternating untraced and traced slices (their
    difference is the tracing overhead); then every layer is probed on
    the same programs."""
    import probes

    wl, oracle_s = set_up(cls, args.seed, speed)
    spans = Spans()
    slices = 4
    phases = []
    try:
        for i in range(slices):
            phases.append(wl.measure(
                args.seconds / (4 * slices),
                None if args.rounds is None else max(1, args.rounds // (4 * slices)),
                spans if i % 2 else None,
            ))
        config = wl.config()
    finally:
        wl.tear_down()
    metrics, probe = probes.run_all(wl, spans)

    plain_ms = op_ms_geomean(phases[0::2])
    traced_ms = op_ms_geomean(phases[1::2])
    metrics["bench.trace_overhead_share"] = (traced_ms - plain_ms) / plain_ms
    metrics["bench.oracle_s"] = oracle_s

    trace_path = HERE / "out" / f"trace-{wl.name}-seed{args.seed}.json"
    spans.write(trace_path, f"e2e:{wl.name}")
    failures = sum((p.failures for p in phases), []) + probe.failures
    attempted = sum(p.attempted for p in phases) + probe.attempted
    detail = {
        "oracle_s": oracle_s,
        "op_ms_geomean_untraced": plain_ms,
        "op_ms_geomean_traced": traced_ms,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "spans": len(spans.events),
        "notes": probe.notes,
        "per_program_ms": probe.per_program_ms(),
        "config": config,
    }
    return metrics, attempted, failures, detail


def report(args, metrics, attempted, failures, detail) -> None:
    print(
        f"workload {args.workload}  seed {args.seed}  "
        f"{'traced' if args.trace else 'untraced'}  "
        f"attempted {attempted}  failed {len(failures)}  "
        f"oracle {detail['oracle_s']:.2f} s"
    )
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        p95 = detail["op_ms_p95"]
        print(f"  {'failed_share':34s} {detail['failed_share']:14.6g} ratio")
        print(f"  {'op_ms_p95 (pooled, n=%d)' % p95['n']:34s} "
              f"{p95['value']:14.6g} ms")
        host = detail["host_factor"]
        print(f"  {'host_factor (median of %d rounds)' % detail['rounds']:34s} "
              f"{host['median']:14.6g} x  [{host['q1']:.4g}, {host['q3']:.4g}]")
        print(f"  {'program':16s} {'median_ms':>10s} {'q1_ms':>10s} "
              f"{'q3_ms':>10s} {'n':>6s}")
        for row in detail["per_program"]:
            print(f"  {row['program']:16s} {row['median_ms']:10.4f} "
                  f"{row['q1_ms']:10.4f} {row['q3_ms']:10.4f} "
                  f"{row['n']:6d}")
    for program, reason in failures[:20]:
        print(f"  FAILED {program}: {reason}")


def run_one(args) -> int:
    spec = load_spec()
    speed = HostSpeed()
    speed.read()
    workloads = import_system()
    speed.read()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(
            f"e2e: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}"
        )
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        values, attempted, failures, detail = run_traced(cls, args, speed)
        declared = spec["per_layer"]
    else:
        values, attempted, failures, detail = run_untraced(cls, args, speed)
        declared = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    report(args, metrics, attempted, failures, detail)
    if args.out is not None:
        import provenance

        append_run(args.out, args.workload, {
            "seed": args.seed,
            "traced": bool(args.trace),
            "seconds": args.seconds,
            "rounds_asked": args.rounds,
            "attempted": attempted,
            "failed": len(failures),
            "failures": [list(f) for f in failures[:50]],
            "metrics": metrics,
            "detail": detail,
            "provenance": provenance.collect(ROOT),
        })
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after the other, so
    ``setup_s`` and ``peak_rss_mb`` mean the same as in a single run."""
    status = 0
    for w in load_spec()["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"),
               "--workload", w["name"], "--seed", str(args.seed),
               "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.rounds is not None:
            cmd += ["--rounds", str(args.rounds)]
        if args.out is not None:
            cmd += ["--out", str(args.out / f"{w['name']}.json")]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
