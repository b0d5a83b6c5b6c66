"""The flight recorder: bounded per-request telemetry capture for the
serving layer, with automatic post-mortem dumps.

A :class:`FlightRecorder` keeps a thread-safe ring buffer of the last
``capacity`` fully-materialized request records.  For every request the
serving worker opens a :meth:`~FlightRecorder.capture` window, which
installs a *thread-local* :class:`TeeTracer`/:class:`TeeMetrics` pair:
everything the pipeline, resilient executor and simulator record on
that thread (queue wait, compile-cache outcome, evaluator, breaker
refusals, per-attempt spans, per-kernel launch spans with heap bytes)
lands in the request's private capture *and* is mirrored into the
process-wide tracer/registry, so global observability is unchanged.

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
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .metrics import MetricsRegistry, get_metrics, thread_metering
from .trace import Tracer, get_tracer, thread_tracing

__all__ = [
    "DUMP_TRIGGERS",
    "FLIGHT_SCHEMA",
    "SLO_TRIGGER",
    "FlightRecord",
    "FlightRecorder",
    "TeeTracer",
    "TeeMetrics",
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


# -- tee instruments --------------------------------------------------------


class TeeTracer(Tracer):
    """A tracer that records locally *and* mirrors into another tracer.

    The local copy is the per-request capture (its epoch is the
    request's start, so bundle timestamps begin near zero); the mirror
    is the process-wide tracer, which must keep seeing every span so
    enabling the flight recorder does not blind global tracing.

    Timestamp translation: both clocks tick ``time.perf_counter``, so
    a local wall-clock timestamp maps into the mirror's epoch by
    adding the mirror time at this tracer's construction.  Spans
    recorded through :meth:`complete` and counters with explicit
    timestamps carry *simulated* clocks on their own tracks and are
    mirrored unchanged.
    """

    def __init__(self, mirror: Optional[Any] = None) -> None:
        super().__init__()
        if mirror is None or not getattr(mirror, "enabled", False):
            mirror = None
        self._mirror = mirror
        self._offset_us = mirror.now_us() if mirror is not None else 0.0

    def _finish(self, s) -> None:
        super()._finish(s)
        if self._mirror is not None:
            self._mirror.complete(
                s.name,
                s.category,
                ts_us=s.ts_us + self._offset_us,
                dur_us=s.dur_us or 0.0,
                track=s.track,
                **s.attrs,
            )

    def instant(self, name: str, category: str = "", **attrs: Any):
        s = super().instant(name, category, **attrs)
        if self._mirror is not None:
            self._mirror.instant(name, category, **attrs)
        return s

    def complete(
        self,
        name: str,
        category: str = "",
        ts_us: float = 0.0,
        dur_us: float = 0.0,
        track: str = "main",
        **attrs: Any,
    ):
        s = super().complete(name, category, ts_us, dur_us, track, **attrs)
        if self._mirror is not None:
            # Simulated-clock spans: the timestamp is not wall time,
            # so no epoch translation applies.
            self._mirror.complete(name, category, ts_us, dur_us, track, **attrs)
        return s

    def counter(
        self,
        name: str,
        value: float,
        ts_us: Optional[float] = None,
        track: str = "main",
        **attrs: Any,
    ):
        s = super().counter(name, value, ts_us, track, **attrs)
        if self._mirror is not None:
            self._mirror.counter(name, value, ts_us, track, **attrs)
        return s


class _TeeInstrument:
    """Forwards every update to the local and the mirrored instrument;
    reads come from the local one."""

    __slots__ = ("_local", "_mirrored")

    def __init__(self, local: Any, mirrored: Any) -> None:
        self._local = local
        self._mirrored = mirrored

    def inc(self, n: float = 1.0) -> None:
        self._local.inc(n)
        self._mirrored.inc(n)

    def set(self, v: float) -> None:
        self._local.set(v)
        self._mirrored.set(v)

    def observe(self, v: float) -> None:
        self._local.observe(v)
        self._mirrored.observe(v)

    @property
    def value(self) -> float:
        return self._local.value

    @property
    def sum(self) -> float:
        return self._local.sum

    @property
    def count(self) -> int:
        return self._local.count


class TeeMetrics(MetricsRegistry):
    """A registry that records locally and mirrors updates into the
    process-wide registry.  ``snapshot()`` sees only the request-local
    instruments, so a bundle's metrics section is exactly what *this*
    request did."""

    def __init__(self, mirror: Optional[Any] = None) -> None:
        super().__init__()
        if mirror is None or not getattr(mirror, "enabled", False):
            mirror = None
        self._mirror = mirror

    def counter(self, name: str, **labels: Any):
        local = super().counter(name, **labels)
        if self._mirror is None:
            return local
        return _TeeInstrument(local, self._mirror.counter(name, **labels))

    def gauge(self, name: str, **labels: Any):
        local = super().gauge(name, **labels)
        if self._mirror is None:
            return local
        return _TeeInstrument(local, self._mirror.gauge(name, **labels))

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ):
        local = super().histogram(name, buckets, **labels)
        if self._mirror is None:
            return local
        return _TeeInstrument(
            local, self._mirror.histogram(name, buckets, **labels)
        )


# -- records ----------------------------------------------------------------


@dataclass
class FlightRecord:
    """One request's fully-materialized telemetry."""

    request_id: str
    program: str = ""
    tracer: Optional[TeeTracer] = None
    metrics: Optional[TeeMetrics] = None
    wall_s: float = 0.0
    status: str = "open"  # open | ok | error | shed
    lane: str = ""
    backend: str = ""
    #: Evaluators the request went through, in order (off the
    #: :class:`repro.runtime.RunReport`): the device step that was
    #: skipped or abandoned, then whichever produced the values.
    rungs: List[str] = field(default_factory=list)
    queue_wait_us: Optional[float] = None
    cache_hit: Optional[bool] = None
    latency_us: Optional[float] = None
    error: Optional[str] = None
    error_message: Optional[str] = None
    run_report: Optional[Dict[str, Any]] = None
    #: The device pool's placement decision (mode, candidate scores,
    #: per-shard assignment/timing, hedges); None when the request
    #: never reached the pool or ended in an error.
    placement: Optional[Dict[str, Any]] = None
    #: Why this record was dumped (an error class name or "slo_latency");
    #: None when it never was.
    dump_trigger: Optional[str] = None
    dump_path: Optional[str] = None


def _sanitize(run_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", run_id) or "unnamed"


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
        self._shed = 0
        self._dumps = 0
        self._dump_failures = 0

    # -- capture ------------------------------------------------------------

    @contextmanager
    def capture(self, request_id: str, program: str = ""):
        """Open a per-request capture window on the calling thread.

        Installs a :class:`TeeTracer`/:class:`TeeMetrics` pair as the
        thread's ambient observability (mirroring into whatever was
        ambient before), and yields the open :class:`FlightRecord`.
        The caller must :meth:`finish` the record — typically inside
        the window so the final spans are part of the capture.
        """
        record = FlightRecord(
            request_id=request_id,
            program=program,
            tracer=TeeTracer(mirror=get_tracer()),
            metrics=TeeMetrics(mirror=get_metrics()),
            wall_s=time.time(),
        )
        record.tracer.metadata["run_id"] = request_id
        with thread_tracing(record.tracer), thread_metering(record.metrics):
            yield record

    def note_shed(self, request_id: str) -> None:
        """Count a request shed at admission (no capture window ever
        opened for it)."""
        with self._lock:
            self._shed += 1

    def finish(
        self,
        record: FlightRecord,
        status: str,
        latency_us: Optional[float] = None,
        error: Optional[BaseException] = None,
        run_report: Optional[Dict[str, Any]] = None,
        lane: Optional[str] = None,
        backend: Optional[str] = None,
        rungs: Optional[Sequence[str]] = None,
        queue_wait_us: Optional[float] = None,
        cache_hit: Optional[bool] = None,
        placement: Optional[Dict[str, Any]] = None,
    ) -> FlightRecord:
        """Finalize ``record``, append it to the ring, and dump a
        bundle if a trigger fires.  Never raises from the dump path."""
        record.status = status
        record.latency_us = latency_us
        if error is not None:
            record.error = type(error).__name__
            record.error_message = str(error)
        if run_report is not None:
            record.run_report = run_report
        if lane is not None:
            record.lane = lane
        if backend is not None:
            record.backend = backend
        if rungs is not None:
            record.rungs = list(rungs)
        if queue_wait_us is not None:
            record.queue_wait_us = queue_wait_us
        if cache_hit is not None:
            record.cache_hit = cache_hit
        if placement is not None:
            record.placement = placement
        record.dump_trigger = self._trigger_for(record)
        with self._lock:
            if len(self._ring) == self.capacity:
                self._evicted += 1
            self._ring.append(record)
            self._completed += 1
        if record.dump_trigger is not None:
            self._dump(record)
        return record

    def _trigger_for(self, record: FlightRecord) -> Optional[str]:
        if record.error in DUMP_TRIGGERS:
            return record.error
        if (
            self.slo_latency_us is not None
            and record.latency_us is not None
            and record.latency_us > self.slo_latency_us
        ):
            return SLO_TRIGGER
        return None

    # -- dumping ------------------------------------------------------------

    def bundle(self, record: FlightRecord) -> Dict[str, Any]:
        """The self-contained JSON bundle for one record."""
        # Imported here (not at module top) to avoid an export<->flight
        # import cycle: export validates bundles, flight builds them.
        from .export import chrome_trace, metrics_dump

        tracer = record.tracer if record.tracer is not None else Tracer()
        metrics = (
            record.metrics if record.metrics is not None else MetricsRegistry()
        )
        return {
            "schema": FLIGHT_SCHEMA,
            "run_id": record.request_id,
            "program": record.program,
            "status": record.status,
            "trigger": record.dump_trigger,
            "error": record.error,
            "error_message": record.error_message,
            "latency_us": record.latency_us,
            "queue_wait_us": record.queue_wait_us,
            "cache_hit": record.cache_hit,
            "lane": record.lane,
            "backend": record.backend,
            "rungs": list(record.rungs),
            "slo_latency_us": self.slo_latency_us,
            "wall_time_s": record.wall_s,
            "trace": chrome_trace(tracer, process_name=PROCESS_NAME),
            "metrics": metrics_dump(
                metrics, metadata={"run_id": record.request_id}
            ),
            "run_report": record.run_report,
            "placement": record.placement,
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
                "shed": self._shed,
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
            f"makespan={_fmt_us(placement.get('makespan_us'))} "
            f"hedges={placement.get('hedges_launched', 0)}"
        )
        shard_rows = [
            [
                str(s.get("index")),
                f"[{s.get('lo')}:{s.get('hi')})",
                str(s.get("device")),
                _fmt_us(s.get("sim_us")),
                "yes" if s.get("hedge_won") else "",
            ]
            for s in placement.get("shards") or []
        ]
        if shard_rows:
            lines.extend(
                _table(shard_rows, ["shard", "rows", "dev", "sim", "hedge"])
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
