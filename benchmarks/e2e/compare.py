#!/usr/bin/env python3
"""Compare two sets of e2e results: ``compare.py OLD NEW``.

``OLD`` and ``NEW`` are result files written by ``run.py --out`` or
directories of them (``baseline/`` is one).  Prints one row per
workload x end-to-end metric with both medians, their quartiles and
run counts, the change as a share of the old median, the bound from
``BENCHMARK.json`` and a verdict:

* ``REGRESSION`` — the new median is worse than the old by more than
  the bound;
* ``unresolved`` — within the bound, but the run-to-run spread (the
  distance between the quartiles over the median, on either side) is
  wider than the bound, so "unchanged" cannot be claimed — unless every
  new run reads better than every old one;
* ``improved`` / ``unchanged`` otherwise.

Per-layer metrics, where both sides have traced runs, are listed after
the verdicts without one: they have no bound.  Exits non-zero on a
regression or a higher ``failed_share``.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from results import load, load_spec  # noqa: E402


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``
    (negative = better)."""
    change = (new - old) / old
    return change if better == "lower" else -change


def spread(s) -> float:
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def all_better(old, new, better: str) -> bool:
    if better == "lower":
        return max(new["values"]) < min(old["values"])
    return min(new["values"]) > max(old["values"])


def verdict(old, new, metric) -> str:
    bound, better = metric["bound"], metric["better"]
    worse = worse_by(old["median"], new["median"], better)
    if worse > bound:
        return "REGRESSION"
    clear = all_better(old, new, better)
    if max(spread(old), spread(new)) > bound and not clear:
        return "unresolved"
    # Deterministic metrics (bound 0.1 %) improve by any amount; timed
    # ones only when the runs do not overlap at all.
    if worse < -bound or (worse < 0 and clear):
        return "improved"
    return "unchanged"


def cell(s) -> str:
    return (f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] "
            f"n={s['n']}")


def compare(old_docs, new_docs, spec, out=sys.stdout) -> int:
    status = 0
    for w in spec["workloads"]:
        name = w["name"]
        if name not in old_docs or name not in new_docs:
            continue
        old, new = old_docs[name], new_docs[name]
        print(f"\n{name}", file=out)
        for m in spec["end_to_end"]:
            o = old["summary"].get(m["name"])
            n = new["summary"].get(m["name"])
            if o is None or n is None:
                continue
            v = verdict(o, n, m)
            status |= v == "REGRESSION"
            change = (n["median"] - o["median"]) / o["median"]
            print(
                f"  {m['name']:22s} old {cell(o):44s} new {cell(n):44s} "
                f"{change:+8.2%} of {o['median']:.5g} {m['unit']:8s} "
                f"bound {m['bound']:.1%} ({m['better']} is better)  {v}",
                file=out,
            )
        old_share = old["failed"] / old["attempted"]
        new_share = new["failed"] / new["attempted"]
        failed = "REGRESSION" if new_share > old_share else "unchanged"
        status |= new_share > old_share
        print(
            f"  {'failed_share':22s} old {old['failed']}/{old['attempted']} "
            f"new {new['failed']}/{new['attempted']}  {failed}",
            file=out,
        )
        for m in spec["per_layer"]:
            o = old["summary"].get(m["name"])
            n = new["summary"].get(m["name"])
            if o is None or n is None:
                continue
            change = (
                f"{(n['median'] - o['median']) / o['median']:+8.2%} "
                f"of {o['median']:.5g}"
                if o["median"] else "   (old is 0)"
            )
            print(
                f"  {m['name']:34s} old {o['median']:12.5g} "
                f"new {n['median']:12.5g} {m['unit']:7s} {change}",
                file=out,
            )
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    return compare(load(args.old), load(args.new), load_spec())


if __name__ == "__main__":
    sys.exit(main())
