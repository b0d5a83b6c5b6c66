"""``repro.obs`` — the zero-dependency observability layer.

Two cooperating pieces, both opt-in with no-op defaults:

* :mod:`repro.obs.trace` — span-based tracing.  The pipeline wraps a
  span around every optimisation pass (with IR-size-delta attributes
  and rollback instants); the GPU simulator stamps one span per kernel
  launch on a simulated-time track; the resilient executor spans each
  attempt, backoff and fallback.
* :mod:`repro.obs.metrics` — counters / gauges / histograms with
  labels, populated by the simulator (cycles, memory traffic,
  occupancy, watchdog budget) and the runtime (retries, faults,
  fallbacks).

The trace is the one event channel: a fault, a rollback, a jit
hand-over or a shard re-placement is one instant on it, and
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
    write_metrics(session.metrics, "metrics.json")
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
    TeeMetrics,
    TeeTracer,
)
from .metrics import (  # noqa: F401
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    get_metrics,
    metering,
    set_metrics,
    thread_metering,
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
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "FlightRecord",
    "FlightRecorder",
    "TeeTracer",
    "TeeMetrics",
    "DUMP_TRIGGERS",
    "FLIGHT_SCHEMA",
    "get_tracer",
    "set_tracer",
    "tracing",
    "thread_tracing",
    "get_metrics",
    "set_metrics",
    "metering",
    "thread_metering",
    "ObsSession",
    "observe",
]


@dataclass
class ObsSession:
    """One enabled observation window: a live tracer + registry pair."""

    tracer: Tracer
    metrics: MetricsRegistry


@contextmanager
def observe(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
):
    """Install a tracer and a metrics registry for the block; yields
    the :class:`ObsSession` holding both for export afterwards."""
    with tracing(tracer) as tr, metering(metrics) as m:
        yield ObsSession(tr, m)
