#!/usr/bin/env python3
"""Render the per-layer latency budget: ``budget.py RESULTS > BUDGET.md``.

``RESULTS`` is a directory of result files holding untraced *and*
traced runs of each workload (``baseline/`` is one).  For every
workload the operation's wall time is split into the layers a caller's
request crosses, using only numbers measured from outside each layer;
the three largest non-kernel layers are named, then every per-layer
metric is listed.
"""

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from results import load, load_spec  # noqa: E402

KERNEL = "kernel"


def _admission(m):
    return [
        ("serve", "admission, cache lookup, enqueue (submit - fingerprint - estimate)",
         m["serve.submit_ms"] - m["pipeline.fingerprint_ms"] - m["gpu.estimate_ms"]),
        ("pipeline", "fingerprint of the request's program", m["pipeline.fingerprint_ms"]),
        ("gpu", "cost estimate for lane classification", m["gpu.estimate_ms"]),
    ]


def _compile_cold(m, e):
    return [
        ("simplify", "inline + three simplifier invocations", m["simplify.pass_ms"]),
        ("fusion", "fusion pass", m["fusion.pass_ms"]),
        ("flatten", "kernel extraction", m["flatten.pass_ms"]),
        ("backend", "lowering to kernel IR", m["backend.pass_ms"]),
        ("memory", "coalescing, tiling, memory-plan", m["memory.pass_ms"]),
        ("pipeline", "driver self: type checks, guards, validation, fingerprints",
         m["pipeline.driver_self_ms"]),
    ]


def _compile_warm(m, e):
    known = m["pipeline.fingerprint_ms"] + m["pipeline.artifact_load_ms"]
    return [
        ("pipeline", "fingerprint of the program", m["pipeline.fingerprint_ms"]),
        ("pipeline", "artifact load: read, verify, unpickle", m["pipeline.artifact_load_ms"]),
        ("pipeline", "rest of the warm driver: plan, stage fingerprints, result",
         e["op_ms_geomean"] - known),
    ]


def _run(m, e):
    return [
        (KERNEL, "jit engine run: numerics and per-launch bookkeeping, one span from outside",
         m["vm.jit.engine_run_ms"]),
        ("runtime", "resilience wrapper (execute - engine run)",
         m["runtime.resilience_overhead_ms"]),
    ]


def _serve_seq(m, e):
    return _admission(m) + [
        ("serve", "queue hop, worker wake, ladder, reply (wait - equivalent execute)",
         m["serve.wait_ms"] - m["serve.execute_equiv_ms"]),
        ("runtime", "resilience wrapper", m["runtime.resilience_overhead_ms"]),
        (KERNEL, "jit engine run (equivalent execute - wrapper)",
         m["serve.execute_equiv_ms"] - m["runtime.resilience_overhead_ms"]),
    ]


def _serve_sat(m, e):
    return _serve_seq(m, e) + [
        ("serve", "waiting behind the other 7 requests in flight (saturated op - sequential call)",
         e["op_ms_geomean"] - m["serve.submit_ms"] - m["serve.wait_ms"]),
    ]


def _serve_pool(m, e):
    return _admission(m) + [
        ("serve", "queue hop, worker wake, ladder, reply (wait - pool run)",
         m["serve.wait_ms"] - m["sched.pool_run_ms"]),
        ("sched", "placement, fan-out and four shard runs beyond one whole run "
                  "(pool run - whole run - slice - merge)",
         m["sched.pool_overhead_ms"] - m["sched.slice_ms"] - m["sched.merge_ms"]),
        ("sched", "slice arguments", m["sched.slice_ms"]),
        ("sched", "merge results", m["sched.merge_ms"]),
        ("runtime", "resilience wrapper", m["runtime.resilience_overhead_ms"]),
        (KERNEL, "vector engine run, whole batch on one device "
                 "(equivalent execute - wrapper)",
         m["serve.execute_equiv_ms"] - m["runtime.resilience_overhead_ms"]),
    ]


#: workload -> rows of (layer, what, milliseconds).  ``kernel`` rows are
#: the generated code itself: the layer optimisation work is *not*
#: chosen from.
BUDGETS = {
    "compile_cold": _compile_cold,
    "compile_warm": _compile_warm,
    "run_small": _run,
    "run_perf": _run,
    "serve_seq": _serve_seq,
    "serve_sat": _serve_sat,
    "serve_pool": _serve_pool,
}


def medians(doc, names):
    return {n: doc["summary"][n]["median"] for n in names if n in doc["summary"]}


def render_workload(w, doc, spec, units, out) -> None:
    e = medians(doc, [m["name"] for m in spec["end_to_end"]])
    m = medians(doc, [x["name"] for x in spec["per_layer"]])
    n_plain = sum(not r["traced"] for r in doc["runs"])
    n_traced = sum(r["traced"] for r in doc["runs"])
    print(f"## {w['name']}\n", file=out)
    print(f"{w['why']}\n", file=out)
    print(
        f"End to end (median of {n_plain} untraced runs): "
        + ", ".join(f"`{k}` {v:.5g} {units[k]}" for k, v in e.items())
        + f"; failed {doc['failed']} of {doc['attempted']}.\n",
        file=out,
    )
    if not m or not e:
        return
    rows = BUDGETS[w["name"]](m, e)
    op = e["op_ms_geomean"]
    print(
        f"Where one operation's {op:.4g} ms goes (probes of {n_traced} traced "
        f"run(s); each row is a geomean over programs or a difference of "
        f"two, so rows need not sum exactly):\n",
        file=out,
    )
    print("| layer | what | ms | share of op |", file=out)
    print("|---|---|---:|---:|", file=out)
    for layer, what, ms in rows:
        print(f"| {layer} | {what} | {ms:.4g} | {ms / op:.1%} |", file=out)
    ranked = sorted(
        (r for r in rows if r[0] != KERNEL), key=lambda r: -r[2]
    )[:3]
    print(
        "\nLargest non-kernel layers: "
        + "; ".join(f"**{layer}** {ms:.3g} ms ({what})"
                    for layer, what, ms in ranked)
        + ".\n",
        file=out,
    )
    print("| per-layer metric | median | unit |", file=out)
    print("|---|---:|---|", file=out)
    for name, value in m.items():
        print(f"| `{name}` | {value:.5g} | {units[name]} |", file=out)
    print(file=out)


def render_findings(docs, out) -> None:
    """The four sizing probes ISSUE 11 was motivated by, as this
    harness measures them."""

    def med(workload, metric):
        return docs[workload]["summary"][metric]["median"]

    def host_factor(workload):
        return statistics.median(
            r["detail"]["host_factor"]["median"]
            for r in docs[workload]["runs"] if not r["traced"]
        )

    def program_ms(workload, metric, program):
        run = next(r for r in docs[workload]["runs"] if r["traced"])
        return run["detail"]["per_program_ms"][metric][program]

    print("## The motivating probes, re-measured\n", file=out)
    seq, small = med("serve_seq", "op_ms_geomean"), med("run_small", "op_ms_geomean")
    print(
        f"1. *A warm served jit request costs 1.9-2.3 ms against 1.3-1.5 ms "
        f"for the same `execute` called directly.*  Measured: `serve_seq` "
        f"{seq:.3g} ms against `run_small` {small:.3g} ms, a serving cost of "
        f"{seq - small:.3g} ms ({(seq - small) / seq:.0%} of the request).",
        file=out,
    )
    sat, one = med("serve_sat", "ops_per_s"), med("serve_seq", "ops_per_s")
    sat_wall = sat / host_factor("serve_sat")
    one_wall = one / host_factor("serve_seq")
    print(
        f"2. *Eight requests in flight complete at about 205 ops/s against "
        f"about 330 ops/s for one sequential client (0.62x).*  Measured: "
        f"`serve_sat` {sat:.4g} ops/s against `serve_seq` {one:.4g} ops/s, "
        f"{sat / one:.2f}x; in wall-clock terms on the day of the baseline "
        f"(each divided by its runs' host factor) {sat_wall:.4g} against "
        f"{one_wall:.4g} ops/s, {sat_wall / one_wall:.2f}x.",
        file=out,
    )
    pool = med("serve_pool", "sched.pool_run_ms")
    whole = pool - med("serve_pool", "sched.pool_overhead_ms")
    print(
        f"3. *The device-pool path is 3.6-4.7x slower in wall time than the "
        f"single-device path on the four shardable programs.*  Measured: "
        f"`DevicePool.run` {pool:.3g} ms against {whole:.3g} ms for the whole "
        f"batch on one device, {pool / whole:.1f}x.",
        file=out,
    )
    simplify = program_ms("compile_cold", "simplify.pass_ms", "K-means")
    compile_ms = program_ms("compile_cold", "pipeline.compile", "K-means")
    print(
        f"4. *The simplifier's three invocations are 54 of K-means' 60 ms "
        f"cold compile.*  Measured: {simplify:.3g} of {compile_ms:.3g} ms "
        f"({simplify / compile_ms:.0%}); over all 16 programs "
        f"`simplify.pass_ms` is {med('compile_cold', 'simplify.pass_ms'):.3g} "
        f"of {med('compile_cold', 'op_ms_geomean'):.3g} ms.\n",
        file=out,
    )


def render(docs, spec, out=sys.stdout) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    first = next(iter(docs.values()))["runs"][0]["provenance"]
    print("# Per-layer latency budget\n", file=out)
    print(
        f"Generated by `python benchmarks/e2e/budget.py benchmarks/e2e/baseline` "
        f"from the result files beside it; do not edit.  Commit "
        f"`{first['git_sha'][:12]}`{' (dirty)' if first['git_dirty'] else ''}, "
        f"Python {first['python']}, NumPy {first['numpy']}, "
        f"{first['cpu_model']} x {first['nproc']}.  Times are milliseconds "
        f"at nominal host speed (README.md, \"Host-speed reference\").\n",
        file=out,
    )
    if {"serve_seq", "serve_sat", "serve_pool", "run_small", "compile_cold"} <= set(docs):
        render_findings(docs, out)
    for w in spec["workloads"]:
        if w["name"] in docs:
            render_workload(w, docs[w["name"]], spec, units, out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", type=Path)
    args = ap.parse_args(argv)
    render(load(args.results), load_spec())
    return 0


if __name__ == "__main__":
    sys.exit(main())
