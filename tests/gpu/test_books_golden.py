"""The engine's books, pinned.

For every benchmark at ``small`` (``default_rng(0)``), under both
executors, the sequence of :class:`DeviceAccounting` calls (method,
what names the call, what it charged — ``RECORDED`` of
``test_accounting_runner_independent.py``), the ``CostReport`` and the
heap statistics (the ``finish`` call's charge) must be exactly what
``golden/books.json`` holds.  Under ``FaultPlan(seed=16*s+i, **PLAN)``
for ``s`` in 0..2 (``i`` the benchmark's index) the same, plus the
``RunReport`` counters: the fault draws, retries and watchdog budgets
line up launch for launch.  The two executors share one record, so the
file also says they agree.  To regenerate after an intentional change
to the books::

    GOLDEN_UPDATE=1 PYTHONPATH=src \\
        python -m pytest tests/gpu/test_books_golden.py
"""

import dataclasses
import json
import os
import pathlib

from repro.bench.suite import BENCHMARKS
from repro.core.traversal import name_source
from repro.gpu.faults import FaultPlan
from repro.runtime import EXECUTORS

from .test_accounting_runner_independent import (  # noqa: F401 (fixture)
    COUNTERS, PLAN, _runs, calls,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "books.json"
FAULT_SEEDS = (0, 1, 2)


def _plain(x):
    if dataclasses.is_dataclass(x):
        return {
            f.name: _plain(getattr(x, f.name))
            for f in dataclasses.fields(x)
        }
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _record(run, counters: bool) -> dict:
    made, cost, report = run
    rec = {"calls": _plain(made), "cost": _plain(cost)}
    if counters:
        rec["report"] = {f: _plain(getattr(report, f)) for f in COUNTERS}
    return rec


def _books(calls) -> dict:
    """``{benchmark: {run label: record}}``; each record is what both
    executors produced (asserted equal here, so one copy is kept)."""
    books = {}
    for i, name in enumerate(BENCHMARKS.names()):
        plans = [("clean", None)] + [
            (f"faults seed={16 * s + i}", FaultPlan(seed=16 * s + i, **PLAN))
            for s in FAULT_SEEDS
        ]
        runs = {}
        for label, plan in plans:
            # Block names come from the process-wide name source: what
            # is pinned is what a fresh process compiles.
            name_source.reset()
            recs = [
                _record(run, plan is not None)
                for run in _runs(name, calls, plan)
            ]
            assert len(recs) == len(EXECUTORS)
            for executor, rec in zip(EXECUTORS[1:], recs[1:]):
                assert rec == recs[0], (name, label, executor)
            runs[label] = recs[0]
        books[name] = runs
    return books


def _render(books: dict) -> str:
    """JSON with one accounting call per line, so a drift reads as a
    line diff."""

    def dump(v) -> str:
        return json.dumps(v, sort_keys=True)

    out = ["{"]
    for n, (name, runs) in enumerate(books.items()):
        out.append(f" {dump(name)}: {{")
        for r, (label, rec) in enumerate(runs.items()):
            out.append(f"  {dump(label)}: {{")
            out.append('   "calls": [')
            made = rec["calls"]
            for c, call in enumerate(made):
                out.append(f"    {dump(call)}{',' if c < len(made) - 1 else ''}")
            rest = [k for k in rec if k != "calls"]
            out.append("   ]" + ("," if rest else ""))
            for k, key in enumerate(rest):
                comma = "," if k < len(rest) - 1 else ""
                out.append(f"   {dump(key)}: {dump(rec[key])}{comma}")
            out.append("  }" + ("," if r < len(runs) - 1 else ""))
        out.append(" }" + ("," if n < len(books) - 1 else ""))
    out.append("}")
    return "\n".join(out) + "\n"


def test_the_books_are_the_pinned_books(calls):
    got = _render(_books(calls))
    assert json.loads(got)  # what is pinned is JSON
    if os.environ.get("GOLDEN_UPDATE"):
        GOLDEN.write_text(got)
    want = GOLDEN.read_text()
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        first = next(
            (
                k for k, (g, w) in enumerate(zip(got_lines, want_lines))
                if g != w
            ),
            min(len(got_lines), len(want_lines)),
        )
        raise AssertionError(
            f"{GOLDEN.name}:{first + 1}: the books drifted "
            f"(set GOLDEN_UPDATE=1 to re-pin after an intentional change)"
            f"\n want: {want_lines[first] if first < len(want_lines) else '<eof>'}"
            f"\n  got: {got_lines[first] if first < len(got_lines) else '<eof>'}"
        )
