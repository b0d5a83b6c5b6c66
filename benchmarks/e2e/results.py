"""Result files: one JSON document per workload holding every run
appended to it and a summary (median and quartiles per metric) over
those runs.  ``run.py --out`` writes them, ``compare.py`` and
``budget.py`` read them, and ``baseline/`` holds the committed ones."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from measure import quartiles

SCHEMA = "repro.e2e/v1"

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"


def load_spec() -> Dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text())


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Median and quartiles of every metric over the runs that report
    it (untraced runs carry the end-to-end metrics, traced runs the
    per-layer ones)."""
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        for name, m in run["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        summary[name] = {
            "unit": units[name], "median": med, "q1": q1, "q3": q3,
            "n": len(vals), "values": vals,
        }
    return summary


def append_run(path: Path, workload: str, run: Dict[str, Any]) -> None:
    """Add ``run`` to the result file at ``path`` (created if missing)
    and refresh its summary."""
    doc = {"schema": SCHEMA, "workload": workload, "runs": []}
    if path.is_file():
        doc = json.loads(path.read_text())
        if doc.get("schema") != SCHEMA or doc.get("workload") != workload:
            raise SystemExit(
                f"{path}: holds {doc.get('schema')}/{doc.get('workload')}, "
                f"not {SCHEMA}/{workload}"
            )
    doc["runs"].append(run)
    doc["summary"] = summarise(doc["runs"])
    doc["failed"] = sum(r["failed"] for r in doc["runs"])
    doc["attempted"] = sum(r["attempted"] for r in doc["runs"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load(path: Path) -> Dict[str, Dict[str, Any]]:
    """``{workload: document}`` from one result file or a directory of
    them."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = {}
    for f in files:
        doc = json.loads(f.read_text())
        if doc.get("schema") == SCHEMA:
            docs[doc["workload"]] = doc
    if not docs:
        raise SystemExit(f"{path}: no {SCHEMA} result files")
    return docs
