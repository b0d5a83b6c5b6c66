"""``repro.obs`` — the zero-dependency observability layer.

* :mod:`repro.obs.trace` — span-based tracing, opt-in with a no-op
  default.  The pipeline wraps a span around every optimisation pass
  (with IR-size-delta attributes and rollback instants); the GPU
  simulator stamps one span per kernel launch on a simulated-time
  track; the resilient executor spans each attempt, backoff and
  fallback; the server marks each admission, shed and finish.
* :mod:`repro.obs.metrics` — metrics as a view of the trace: a
  snapshot is the fold of one tracer's records into counters, gauges
  and histograms with labels (launches, cycles, memory traffic,
  occupancy, watchdog budget, retries, faults, fallbacks, ...).

The trace is the one event channel: a launch, a fault, a rollback, a
jit hand-over or a shard re-placement is recorded once, on it, and
nothing else records it again.

Exporters (:mod:`repro.obs.export`): Chrome ``trace.json`` for
chrome://tracing / Perfetto, a flat JSON metrics dump, and a terminal
summary table (whose events section lists the instants).  The CLI
surface is ``python -m repro ... --trace-out trace.json --metrics-out
metrics.json``, or ``--verbose`` for the summary alone.

Typical embedding::

    from repro.obs import observe
    from repro.obs.export import write_chrome_trace, write_metrics

    with observe() as session:
        compiled = compile_program(prog)
        compiled.execute(args)
    write_chrome_trace(session.tracer, "trace.json")
    write_metrics(session.tracer, "metrics.json")
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from .flight import (  # noqa: F401
    DUMP_TRIGGERS,
    FLIGHT_SCHEMA,
    FlightRecord,
    FlightRecorder,
    TeeTracer,
)
from .metrics import (  # noqa: F401
    DEFAULT_BUCKETS,
    Histogram,
    MetricsView,
    metering,
)
from .trace import (  # noqa: F401
    NULL_TRACER,
    PassTiming,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    thread_tracing,
    tracing,
)

__all__ = [
    "Tracer",
    "Span",
    "PassTiming",
    "Histogram",
    "MetricsView",
    "FlightRecord",
    "FlightRecorder",
    "TeeTracer",
    "DUMP_TRIGGERS",
    "FLIGHT_SCHEMA",
    "get_tracer",
    "set_tracer",
    "tracing",
    "thread_tracing",
    "metering",
    "ObsSession",
    "observe",
]


@dataclass
class ObsSession:
    """One enabled observation window: a live tracer, and the metrics
    view of it."""

    tracer: Tracer

    @property
    def metrics(self) -> MetricsView:
        return MetricsView(self.tracer)


@contextmanager
def observe(tracer: Optional[Tracer] = None):
    """Install a tracer for the block; yields the :class:`ObsSession`
    holding it (and its metrics view) for export afterwards."""
    with tracing(tracer) as tr:
        yield ObsSession(tr)
