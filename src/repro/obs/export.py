"""Exporters: Chrome ``trace.json``, flat JSON metrics, and a
human-readable terminal summary.

The Chrome trace format (the JSON array / object flavour understood by
``chrome://tracing`` and Perfetto) is documented in the Trace Event
Format spec; we emit:

* ``M`` (metadata) events naming the process and each track (thread);
* ``X`` (complete) events for spans — ``ts``/``dur`` in microseconds,
  attributes under ``args``;
* ``i`` (instant) events for markers (rollbacks, faults, jit
  hand-overs, shard re-placements).

Wall-clock spans live on the ``main`` track; the GPU simulator emits
its kernels on per-attempt ``sim-gpu`` tracks stamped with *simulated*
microseconds, so the two timelines are visually separate in Perfetto.

:func:`validate_chrome_trace` is the schema check used by the golden
trace test and by the CI observability job on real artefacts.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry
from .trace import MAIN_TRACK, Span, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "metrics_dump",
    "write_metrics",
    "validate_chrome_trace",
    "validate_metrics_dump",
    "validate_flight_bundle",
    "summary",
]

_PID = 1


def _json_safe(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _event(span: Span, ph: str, tid: int) -> Dict[str, Any]:
    ev: Dict[str, Any] = {
        "name": span.name,
        "cat": span.category or "default",
        "ph": ph,
        "ts": round(span.ts_us, 3),
        "pid": _PID,
        "tid": tid,
        "args": {k: _json_safe(v) for k, v in span.attrs.items()},
    }
    if ph == "X":
        ev["dur"] = round(span.dur_us or 0.0, 3)
    if ph == "i":
        ev["s"] = "t"  # thread-scoped instant
    if ph == "C":
        # Counter events carry their series value in args.
        ev["args"] = {span.name: _json_safe(span.attrs.get("value", 0))}
    return ev


def chrome_trace(
    tracer: Tracer, process_name: str = "repro"
) -> Dict[str, Any]:
    """The full trace as a Chrome/Perfetto-loadable JSON object."""
    tids = {name: i for i, name in enumerate(tracer.tracks())}
    tids.setdefault(MAIN_TRACK, 0)
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for name, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": name},
            }
        )
    for span in sorted(tracer.spans, key=lambda s: (s.ts_us, -(s.dur_us or 0))):
        events.append(_event(span, "X", tids.get(span.track, 0)))
    for inst in tracer.instants:
        events.append(_event(inst, "i", tids.get(inst.track, 0)))
    for c in sorted(
        getattr(tracer, "counters", []), key=lambda s: s.ts_us
    ):
        events.append(_event(c, "C", tids.get(c.track, 0)))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {k: _json_safe(v) for k, v in tracer.metadata.items()},
    }


def write_chrome_trace(
    tracer: Tracer, path: str, process_name: str = "repro"
) -> None:
    """Serialise the trace to ``path`` (open it in chrome://tracing or
    https://ui.perfetto.dev)."""
    with open(path, "w") as f:
        json.dump(chrome_trace(tracer, process_name), f, indent=1)


def metrics_dump(
    registry: MetricsRegistry, metadata: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The registry snapshot wrapped with identifying metadata."""
    out = {"schema": "repro.metrics/v1"}
    out.update(registry.snapshot())
    if metadata:
        out["metadata"] = {k: _json_safe(v) for k, v in metadata.items()}
    return out


def write_metrics(
    registry: MetricsRegistry,
    path: str,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    with open(path, "w") as f:
        json.dump(metrics_dump(registry, metadata), f, indent=1, sort_keys=True)


# -- validation (used by tests and the CI observability job) ---------------

_VALID_PHASES = {"X", "i", "M", "B", "E", "C"}


def validate_chrome_trace(obj: Any) -> List[str]:
    """Structural schema check of an exported trace; returns a list of
    problems (empty = valid)."""
    errors: List[str] = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a traceEvents array"]
    events = obj["traceEvents"]
    if not isinstance(events, list) or not events:
        return ["traceEvents must be a non-empty array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in ev:
                errors.append(f"{where}: missing {field!r}")
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
        if ph in ("X", "i"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: bad ts {ts!r}")
            if "args" in ev and not isinstance(ev["args"], dict):
                errors.append(f"{where}: args must be an object")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: bad dur {dur!r}")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                errors.append(
                    f"{where}: counter event needs a non-empty args object"
                )
            elif not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                errors.append(f"{where}: counter values must be numeric")
    return errors


def validate_metrics_dump(obj: Any) -> List[str]:
    """Schema check of a metrics dump; returns problems (empty = valid)."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return ["top level must be an object"]
    if obj.get("schema") != "repro.metrics/v1":
        errors.append(f"unknown schema {obj.get('schema')!r}")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(obj.get(section), dict):
            errors.append(f"missing section {section!r}")
    for key, h in (obj.get("histograms") or {}).items():
        if not isinstance(h, dict) or "bounds" not in h or "counts" not in h:
            errors.append(f"histogram {key!r}: missing bounds/counts")
            continue
        if len(h["counts"]) != len(h["bounds"]) + 1:
            errors.append(f"histogram {key!r}: counts/bounds length mismatch")
            continue
        bounds = h["bounds"]
        if any(
            bounds[i] >= bounds[i + 1] for i in range(len(bounds) - 1)
        ):
            errors.append(
                f"histogram {key!r}: bounds not strictly ascending"
            )
        if "count" in h and sum(h["counts"]) != h["count"]:
            errors.append(
                f"histogram {key!r}: bucket counts sum to "
                f"{sum(h['counts'])}, expected count={h['count']}"
            )
    return errors


def validate_flight_bundle(obj: Any) -> List[str]:
    """Schema check of a flight-recorder bundle
    (``repro.flightrec/v1``); returns problems (empty = valid).

    Beyond structure, asserts the bundle is *joinable*: the embedded
    trace metadata, metrics metadata and RunReport must all carry the
    bundle's ``run_id`` (when they carry one at all — a request that
    died before reaching the executor has ``run_report: null``).
    """
    errors: List[str] = []
    if not isinstance(obj, dict):
        return ["top level must be an object"]
    if obj.get("schema") != "repro.flightrec/v1":
        errors.append(f"unknown schema {obj.get('schema')!r}")
    for field in ("run_id", "status", "trigger", "trace", "metrics"):
        if field not in obj:
            errors.append(f"missing field {field!r}")
    run_id = obj.get("run_id")
    if not isinstance(run_id, str) or not run_id:
        errors.append(f"run_id must be a non-empty string: {run_id!r}")
    if obj.get("status") not in ("ok", "error", "shed"):
        errors.append(f"bad status {obj.get('status')!r}")
    trigger = obj.get("trigger")
    if trigger is not None and not isinstance(trigger, str):
        errors.append(f"trigger must be a string or null: {trigger!r}")
    if "trace" in obj:
        errors.extend(
            f"trace: {e}" for e in validate_chrome_trace(obj["trace"])
        )
        other = (
            obj["trace"].get("otherData", {})
            if isinstance(obj["trace"], dict)
            else {}
        )
        trace_id = other.get("run_id") if isinstance(other, dict) else None
        if trace_id is not None and trace_id != run_id:
            errors.append(
                f"trace run_id {trace_id!r} != bundle run_id {run_id!r}"
            )
    if "metrics" in obj:
        errors.extend(
            f"metrics: {e}" for e in validate_metrics_dump(obj["metrics"])
        )
        if isinstance(obj["metrics"], dict):
            meta = obj["metrics"].get("metadata") or {}
            metrics_id = meta.get("run_id") if isinstance(meta, dict) else None
            if metrics_id is not None and metrics_id != run_id:
                errors.append(
                    f"metrics run_id {metrics_id!r} != bundle "
                    f"run_id {run_id!r}"
                )
    report = obj.get("run_report")
    if report is not None:
        if not isinstance(report, dict):
            errors.append("run_report must be an object or null")
        else:
            report_id = report.get("run_id")
            if report_id and report_id != run_id:
                errors.append(
                    f"run_report run_id {report_id!r} != bundle "
                    f"run_id {run_id!r}"
                )
    return errors


# -- terminal summary -------------------------------------------------------


def _cell(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _table(rows: List[List[str]], header: List[str]) -> List[str]:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    def fmt(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return lines


def summary(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    top: int = 10,
) -> str:
    """A human-readable digest: slowest spans per category, kernel
    launches, the first ``top`` instants in emission order, and every
    counter — the terminal-friendly view of the same data the JSON
    exporters write."""
    lines: List[str] = []
    if tracer is not None and tracer.spans:
        lines.append("== spans (wall clock) ==")
        passes = [s for s in tracer.spans if s.category == "pipeline"]
        if passes:
            rows = [
                [
                    s.name,
                    f"{s.dur_us or 0:.0f}us",
                    str(s.attrs.get("bindings_before", "-")),
                    str(s.attrs.get("bindings_after", "-")),
                    str(s.attrs.get("soacs_after", "-")),
                ]
                for s in passes
            ]
            lines.extend(
                _table(rows, ["pass", "time", "binds<", "binds>", "soacs>"])
            )
        kernels = [s for s in tracer.spans if s.category == "kernel"]
        if kernels:
            lines.append("")
            lines.append("== simulated kernels ==")
            kernels = sorted(
                kernels, key=lambda s: -(s.dur_us or 0.0)
            )[:top]
            rows = [
                [
                    s.name,
                    str(s.attrs.get("kind", "-")),
                    f"{s.dur_us or 0:.1f}us",
                    f"{s.attrs.get('cycles', 0):.3g}",
                    f"{s.attrs.get('bytes_effective', 0):.3g}",
                    f"{s.attrs.get('occupancy', 0):.2f}",
                ]
                for s in kernels
            ]
            lines.extend(
                _table(
                    rows,
                    ["kernel", "kind", "sim time", "cycles", "bytes", "occ"],
                )
            )
        # Faults, rollbacks, jit hand-overs and re-placements.
        events = list(tracer.instants)
        lines.append("")
        lines.append("== events ==")
        rows = [
            [s.name, " ".join(f"{k}={_cell(v)}" for k, v in s.attrs.items())]
            for s in events[:top]
        ]
        lines.extend(
            _table(rows, ["event", "attributes"]) if rows else ["(none)"]
        )
        if len(events) > top:
            lines.append(f"... and {len(events) - top} more")
    if registry is not None:
        snap = registry.snapshot()
        if snap["counters"]:
            lines.append("")
            lines.append("== counters ==")
            rows = [[k, f"{v:.6g}"] for k, v in snap["counters"].items()]
            lines.extend(_table(rows, ["counter", "value"]))
        if snap["histograms"]:
            lines.append("")
            lines.append("== histograms ==")
            rows = [
                [k, str(h["count"]), f"{h['sum']:.6g}",
                 f"{(h['sum'] / h['count']) if h['count'] else 0:.6g}"]
                for k, h in snap["histograms"].items()
            ]
            lines.extend(_table(rows, ["histogram", "n", "sum", "mean"]))
    return "\n".join(lines) if lines else "(no observability data recorded)"
