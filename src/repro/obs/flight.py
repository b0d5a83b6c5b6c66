"""The flight recorder: bounded per-request telemetry capture for the
serving layer, with automatic post-mortem dumps.

A :class:`FlightRecorder` keeps a thread-safe ring buffer of the last
``capacity`` finished requests.  A :class:`FlightRecord` is two things:
the request's finished result (a :class:`repro.serve.ServeResult`, read
by attribute, so this module imports nothing from :mod:`repro.serve`)
and the request's own :class:`~repro.obs.trace.Tracer`.

For every request the server opens a :meth:`~FlightRecorder.capture`
window, which installs that tracer as the *thread's* ambient tracer:
everything the pipeline, device pool, resilient executor and simulator
record on that thread (and on the split-shard threads, which adopt it)
lands in the capture.  When a process-wide tracer is enabled, the
capture starts on its epoch and, when the window closes, that tracer
absorbs the capture's records — the same objects, each once — so
global observability is unchanged and no timestamp is translated.  The
bundle's metrics are the fold of the capture alone.

When a request ends in one of the terminal device errors in
:data:`DUMP_TRIGGERS`, or its latency exceeds the recorder's SLO
threshold, the record is serialised as a self-contained
``flightrec-<run_id>.json`` bundle (schema :data:`FLIGHT_SCHEMA`): the
Perfetto-loadable Chrome trace, the per-request metrics snapshot and
the :class:`repro.runtime.RunReport`, all joinable on one ``run_id``.
``repro obs replay <bundle>`` renders the terminal view of a dump
(:func:`render_bundle`); ``validate_flight_bundle`` in
:mod:`repro.obs.export` is the schema check CI runs on real dumps.

Dumping is best-effort: a failed write increments a counter and never
propagates into the request path.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .trace import Tracer, get_tracer, thread_tracing

__all__ = [
    "DUMP_TRIGGERS",
    "FLIGHT_SCHEMA",
    "SLO_TRIGGER",
    "FlightRecord",
    "FlightRecorder",
    "read_bundle",
    "render_bundle",
]

#: Bundle schema identifier (checked by ``validate_flight_bundle``).
FLIGHT_SCHEMA = "repro.flightrec/v1"

#: Terminal error classes that force a dump of the request's record.
DUMP_TRIGGERS: Tuple[str, ...] = (
    "DeviceFault",
    "DeviceOOM",
    "KernelTimeout",
    "DeadlineExceeded",
)

#: The trigger name recorded when the latency SLO (not an error) fired.
SLO_TRIGGER = "slo_latency"

#: The process a bundle's Chrome trace is labelled with.
PROCESS_NAME = "repro-serve"


@dataclass
class FlightRecord:
    """One request: its result and its own trace."""

    request_id: str
    program: str
    #: The request's own trace (on the ambient tracer's epoch when one
    #: was enabled at capture, else starting near zero).
    tracer: Tracer
    wall_s: float
    #: The request's :class:`repro.serve.ServeResult`; None until
    #: :meth:`FlightRecorder.finish`.
    result: Any = None
    queue_wait_us: Optional[float] = None
    cache_hit: Optional[bool] = None
    #: Why this record was dumped (an error class name or "slo_latency");
    #: None when it never was.
    dump_trigger: Optional[str] = None
    dump_path: Optional[str] = None


def _sanitize(run_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", run_id) or "unnamed"


def _error_name(result: Any) -> Optional[str]:
    return type(result.error).__name__ if result.error is not None else None


class FlightRecorder:
    """Bounded, thread-safe ring of per-request flight records.

    ``capacity`` bounds live memory: the oldest finished record is
    evicted when a new one lands.  ``slo_latency_us`` (None = off) sets
    the latency threshold beyond which a *successful* request is still
    dumped.  Bundles land in ``dump_dir`` as
    ``flightrec-<run_id>.json``.
    """

    def __init__(
        self,
        capacity: int = 64,
        dump_dir: str = ".",
        slo_latency_us: Optional[float] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.dump_dir = dump_dir
        self.slo_latency_us = slo_latency_us
        self._ring: "deque[FlightRecord]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._completed = 0
        self._evicted = 0
        self._dumps = 0
        self._dump_failures = 0

    # -- capture ------------------------------------------------------------

    @contextmanager
    def capture(self, request_id: str, program: str = ""):
        """Open a per-request capture window on the calling thread.

        Installs the record's own :class:`Tracer` as the thread's
        ambient tracer and yields the open :class:`FlightRecord`.  An
        enabled tracer that was ambient before shares its epoch with
        the capture and absorbs its records when the window closes.
        The caller hands the record and the request's result to
        :meth:`finish`.
        """
        ambient = get_tracer()
        tracer = ambient.fork() if ambient.enabled else Tracer()
        tracer.metadata["run_id"] = request_id
        record = FlightRecord(request_id, program, tracer, time.time())
        try:
            with thread_tracing(tracer):
                yield record
        finally:
            if ambient.enabled:
                ambient.absorb(tracer)

    def finish(
        self,
        record: FlightRecord,
        result: Any,
        queue_wait_us: Optional[float] = None,
        cache_hit: Optional[bool] = None,
    ) -> FlightRecord:
        """Give ``record`` the request's finished ``result``, append it
        to the ring, and dump a bundle if a trigger fires.  Never
        raises from the dump path."""
        record.result = result
        record.queue_wait_us = queue_wait_us
        record.cache_hit = cache_hit
        record.dump_trigger = self._trigger_for(result)
        with self._lock:
            if len(self._ring) == self.capacity:
                self._evicted += 1
            self._ring.append(record)
            self._completed += 1
        if record.dump_trigger is not None:
            self._dump(record)
        return record

    def _trigger_for(self, result: Any) -> Optional[str]:
        error = _error_name(result)
        if error in DUMP_TRIGGERS:
            return error
        if (
            self.slo_latency_us is not None
            and result.latency_s * 1e6 > self.slo_latency_us
        ):
            return SLO_TRIGGER
        return None

    # -- dumping ------------------------------------------------------------

    def bundle(self, record: FlightRecord) -> Dict[str, Any]:
        """The self-contained JSON bundle for one finished record."""
        # Imported here (not at module top) to avoid an export<->flight
        # import cycle: export validates bundles, flight builds them.
        from .export import chrome_trace, metrics_dump

        result, tracer = record.result, record.tracer
        report = result.run_report
        backend = result.backend or ""
        return {
            "schema": FLIGHT_SCHEMA,
            "run_id": record.request_id,
            "program": record.program,
            "status": "ok" if result.ok else "error",
            "trigger": record.dump_trigger,
            "error": _error_name(result),
            "error_message": (
                str(result.error) if result.error is not None else None
            ),
            "latency_us": result.latency_s * 1e6,
            "queue_wait_us": record.queue_wait_us,
            "cache_hit": record.cache_hit,
            "lane": result.lane,
            "backend": backend,
            # The evaluators the request went through, in order: the
            # device step skipped or abandoned, then whichever produced
            # the values.
            "rungs": [d.split(":", 1)[0] for d in result.degraded_from]
            + ([backend] if backend else []),
            "slo_latency_us": self.slo_latency_us,
            "wall_time_s": record.wall_s,
            "trace": chrome_trace(tracer, process_name=PROCESS_NAME),
            "metrics": metrics_dump(
                tracer, metadata={"run_id": record.request_id}
            ),
            "run_report": report.to_dict() if report is not None else None,
            "placement": result.placement,
        }

    def _dump(self, record: FlightRecord) -> None:
        path = os.path.join(
            self.dump_dir, f"flightrec-{_sanitize(record.request_id)}.json"
        )
        try:
            payload = self.bundle(record)
            os.makedirs(self.dump_dir, exist_ok=True)
            with open(path, "w") as f:
                json.dump(payload, f, indent=1, sort_keys=True)
        except Exception:
            with self._lock:
                self._dump_failures += 1
            return
        record.dump_path = path
        with self._lock:
            self._dumps += 1

# -- inspection ---------------------------------------------------------

    def records(self) -> List[FlightRecord]:
        """A snapshot of the ring, oldest first."""
        with self._lock:
            return list(self._ring)

    def stats(self) -> Dict[str, Any]:
        """Occupancy and dump accounting (surfaced via
        ``Server.health()``)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "occupancy": len(self._ring),
                "completed": self._completed,
                "evicted": self._evicted,
                "dumps": self._dumps,
                "dump_failures": self._dump_failures,
                "slo_latency_us": self.slo_latency_us,
            }


# -- replay -----------------------------------------------------------------


def read_bundle(path: str) -> Dict[str, Any]:
    """Load a ``flightrec-*.json`` bundle from disk."""
    with open(path) as f:
        return json.load(f)


def _fmt_us(v: Any) -> str:
    if not isinstance(v, (int, float)):
        return "-"
    if v >= 1_000_000:
        return f"{v / 1e6:.2f}s"
    if v >= 1_000:
        return f"{v / 1e3:.2f}ms"
    return f"{v:.0f}us"


def render_bundle(bundle: Dict[str, Any], top: int = 10) -> str:
    """The terminal view of a flight bundle (``repro obs replay``)."""
    from .export import _table

    lines: List[str] = []
    lines.append(f"== flight record {bundle.get('run_id', '?')} ==")
    rows = [
        ["program", str(bundle.get("program") or "-")],
        ["status", str(bundle.get("status") or "-")],
        ["trigger", str(bundle.get("trigger") or "-")],
        ["error", str(bundle.get("error") or "-")],
        ["latency", _fmt_us(bundle.get("latency_us"))],
        ["queue wait", _fmt_us(bundle.get("queue_wait_us"))],
        ["cache hit", str(bundle.get("cache_hit"))],
        ["lane", str(bundle.get("lane") or "-")],
        ["backend", str(bundle.get("backend") or "-")],
        ["rungs", " -> ".join(bundle.get("rungs") or []) or "-"],
    ]
    lines.extend(_table(rows, ["field", "value"]))
    if bundle.get("error_message"):
        lines.append("")
        lines.append(f"error: {bundle['error_message']}")
    report = bundle.get("run_report")
    if isinstance(report, dict):
        lines.append("")
        lines.append("== run report ==")
        lines.append(
            f"attempts={report.get('attempts', 0)} "
            f"retries={report.get('retries', 0)} "
            f"fallbacks={report.get('fallbacks', 0)} "
            f"ooms={report.get('ooms', 0)} "
            f"timeouts={report.get('timeouts', 0)} "
            f"gave_up={report.get('gave_up_reason')!r}"
        )
        for ev in report.get("events") or []:
            lines.append(f"  - {ev}")
    placement = bundle.get("placement")
    if isinstance(placement, dict):
        lines.append("")
        lines.append("== placement ==")
        lines.append(
            f"mode={placement.get('mode')} "
            f"batch_dim={placement.get('batch_dim')} "
            f"batch={placement.get('batch')} "
            f"makespan={_fmt_us(placement.get('makespan_us'))}"
        )
        shard_rows = [
            [
                str(s.get("index")),
                f"[{s.get('lo')}:{s.get('hi')})",
                str(s.get("device")),
                _fmt_us(s.get("sim_us")),
            ]
            for s in placement.get("shards") or []
        ]
        if shard_rows:
            lines.extend(
                _table(shard_rows, ["shard", "rows", "dev", "sim"])
            )
    trace = bundle.get("trace") or {}
    events = [
        ev
        for ev in trace.get("traceEvents", [])
        if isinstance(ev, dict) and ev.get("ph") == "X"
    ]
    if events:
        lines.append("")
        lines.append(f"== slowest spans (top {top}) ==")
        events.sort(key=lambda ev: -(ev.get("dur") or 0.0))
        rows = [
            [
                str(ev.get("name", "?")),
                str((ev.get("args") or {}).get("kind", ev.get("cat", "-"))),
                _fmt_us(ev.get("ts")),
                _fmt_us(ev.get("dur")),
            ]
            for ev in events[:top]
        ]
        lines.extend(_table(rows, ["span", "kind", "start", "dur"]))
    instants = [
        ev
        for ev in trace.get("traceEvents", [])
        if isinstance(ev, dict) and ev.get("ph") == "i"
    ]
    if instants:
        lines.append("")
        lines.append("== markers ==")
        for ev in instants:
            lines.append(f"  {_fmt_us(ev.get('ts'))}  {ev.get('name', '?')}")
    metrics = bundle.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        lines.append("")
        lines.append("== request counters ==")
        rows = [[k, f"{v:.6g}"] for k, v in sorted(counters.items())]
        lines.extend(_table(rows, ["counter", "value"]))
    return "\n".join(lines)
